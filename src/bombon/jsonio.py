"""JSON encoding shared by the CLI and the report writers.

Conventions: a complex scalar is the pair [re, im] (bare numbers are
accepted on input and read as real); a homogeneous vector is an array
of complex scalars; a matrix is a row-major array of rows.  Decoders
raise ValueError on malformed input so callers can map every parse
problem to one exit code.

``canonical_dumps`` writes text byte-identical to
``json.dumps(obj, indent=2, separators=(",", ": "), allow_nan=False)``
(a property test enforces it), without the stdlib's pure-Python
encoder, which ``indent`` selects.  Rectangular blocks of numbers, the
bulk of every payload, are formatted with one cached ``%r`` template
and one ``%`` call; ``float.__repr__`` is what ``json`` writes.
"""

import functools
import json
import math
from itertools import chain

import numpy as np

from .convexity import AffineComplexLine, ball_body, ellipsoid_body, polydisk_body
from .projective import ProjLine, ProjPoint, Subspace
from .quadrics import QuadricBombon

_escape = json.encoder.encode_basestring_ascii
# Exact types only: bool is an int subclass but is written true/false,
# and a float subclass such as np.float64 has its own repr.
_NUMBERS = frozenset((int, float))
# Deeper nests take the general path, which also catches a list that
# contains itself (its shape scan would never end).
_MAX_BLOCK_DEPTH = 4


def canonical_dumps(obj):
    """Deterministic JSON text: fixed separators, no NaN, keys as built."""
    return _dumps(obj, 0, set())


def _dumps(o, level, markers):
    # Same isinstance order, output and errors as the stdlib encoder.
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (list, tuple)):
        return _dumps_list(o, level, markers)
    if isinstance(o, dict):
        return _dumps_dict(o, level, markers)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _float_text(x):
    if not math.isfinite(x):
        raise ValueError("Out of range float values are not JSON compliant: "
                         + repr(x))
    return float.__repr__(x)


def _enter(o, markers):
    if id(o) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(o))


def _dumps_list(lst, level, markers):
    if not lst:
        return "[]"
    if type(lst) is list:
        block = _number_block(lst)
        if block is not None:
            shape, flat = block
            text = _block_template(shape, level) % tuple(flat)
            if "n" not in text:  # no nan or inf in the block
                return text
    _enter(lst, markers)
    pad = "\n" + "  " * (level + 1)
    body = ("," + pad).join([_dumps(v, level + 1, markers) for v in lst])
    markers.discard(id(lst))
    return "[" + pad + body + "\n" + "  " * level + "]"


def _dumps_dict(dct, level, markers):
    if not dct:
        return "{}"
    _enter(dct, markers)
    pad = "\n" + "  " * (level + 1)
    items = []
    for key, value in dct.items():
        if not isinstance(key, str):
            if key is not None and not isinstance(key, (int, float)):
                raise TypeError(f"keys must be str, int, float, bool or "
                                f"None, not {key.__class__.__name__}")
            key = _dumps(key, 0, markers)  # written as JSON, then quoted
        items.append(_escape(key) + ": " + _dumps(value, level + 1, markers))
    markers.discard(id(dct))
    return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"


def _number_block(lst):
    """(shape, flat entries) of a rectangular nested list of ints and
    floats, or None.  Scans one nesting level per step in C."""
    shape = [len(lst)]
    level = lst
    while len(shape) <= _MAX_BLOCK_DEPTH:
        types = set(map(type, level))
        if types <= _NUMBERS:
            return tuple(shape), level
        lens = set(map(len, level)) if types == {list} else ()
        if len(lens) != 1 or 0 in lens:
            return None
        shape.append(lens.pop())
        level = list(chain.from_iterable(level))
    return None


@functools.lru_cache(maxsize=128)
def _block_template(shape, level):
    if not shape:
        return "%r"
    pad = "\n" + "  " * (level + 1)
    inner = _block_template(shape[1:], level + 1)
    return ("[" + pad + ("," + pad).join([inner] * shape[0])
            + "\n" + "  " * level + "]")


def encode_complex(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(obj):
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        parts = (obj,)
    elif (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(isinstance(t, (int, float)) and not isinstance(t, bool)
                    for t in obj)):
        parts = obj
    else:
        raise ValueError(f"not a complex scalar: {obj!r}")
    try:
        return complex(*parts)
    except OverflowError:
        raise ValueError("integer too large for a float") from None


def _pair_block(obj, ndim):
    """Complex array from a rectangular ``ndim``-deep nest of [re, im]
    pairs of ints and floats, checked one nesting level per C scan; None
    for anything else (bare numbers, bad entries, ragged rows)."""
    cells = obj
    for _ in range(ndim - 1):
        if set(map(type, cells)) != {list} or len(set(map(len, cells))) != 1:
            return None
        cells = list(chain.from_iterable(cells))
    if (set(map(type, cells)) != {list} or set(map(len, cells)) != {2}
            or not set(map(type, chain.from_iterable(cells))) <= _NUMBERS):
        return None
    try:
        return np.array(obj, dtype=float).view(complex)[..., 0]
    except OverflowError:
        return None


def encode_vector(v):
    a = np.asarray(v, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def decode_vector(obj, expect_len=None):
    if not isinstance(obj, list) or not obj:
        raise ValueError("a vector is a nonempty array of complex scalars")
    v = _pair_block(obj, 1)
    if v is None:
        v = np.array([decode_complex(t) for t in obj], dtype=complex)
    if expect_len is not None and v.size != expect_len:
        raise ValueError(f"vector has length {v.size}, expected {expect_len}")
    return v


def encode_matrix(m):
    return encode_vector(m)


def decode_matrix(obj, square=False):
    if not isinstance(obj, list) or not obj:
        raise ValueError("a matrix is a nonempty array of rows")
    m = _pair_block(obj, 2)
    if m is None:
        rows = [decode_vector(r) for r in obj]
        width = rows[0].size
        if any(r.size != width for r in rows):
            raise ValueError("matrix rows have unequal lengths")
        m = np.stack(rows)
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def encode_quadric(x):
    return {"n": x.n, "A": encode_matrix(x.a)}


def decode_quadric(obj, tol=None):
    if not isinstance(obj, dict) or "A" not in obj:
        raise ValueError('a quadric is {"n": int, "A": matrix}')
    a = decode_matrix(obj["A"], square=True)
    n = obj.get("n", a.shape[0] - 1)
    if a.shape[0] != int(n) + 1:
        raise ValueError(f'matrix size {a.shape[0]} does not match "n": {n}')
    kwargs = {} if tol is None else {"tol": tol}
    return QuadricBombon(a, **kwargs)


def encode_point(p):
    v = p.v if isinstance(p, ProjPoint) else p
    return encode_vector(v)


def decode_point(obj, expect_len=None):
    return ProjPoint(decode_vector(obj, expect_len))


def decode_line(obj, expect_len=None):
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise ValueError('a line is {"a": hvector, "b": hvector}')
    a = decode_vector(obj["a"], expect_len)
    b = decode_vector(obj["b"], a.size)
    return ProjLine(a, b)


def encode_subspace(s):
    if s.basis.shape[1] == 0:
        return {"ambient_dim": s.ambient_dim, "basis": []}
    return {"ambient_dim": s.ambient_dim,
            "basis": encode_matrix(s.basis.T)}


def decode_subspace(obj, expect_ambient=None):
    if not isinstance(obj, dict) or "basis" not in obj:
        raise ValueError('a subspace is {"basis": [spanning vectors]}')
    rows = obj["basis"]
    if not isinstance(rows, list):
        raise ValueError("subspace basis must be an array of vectors")
    if not rows:
        amb = obj.get("ambient_dim", expect_ambient)
        if amb is None:
            raise ValueError("empty subspace needs an ambient_dim")
        return Subspace.empty(int(amb))
    m = decode_matrix(rows)
    if expect_ambient is not None and m.shape[1] != expect_ambient + 1:
        raise ValueError(f"subspace vectors have length {m.shape[1]}, "
                         f"expected {expect_ambient + 1}")
    return Subspace(m.T)


def encode_section(sec, rep=None):
    out = {"tag": sec.tag.value, "low_confidence": bool(sec.low_confidence)}
    if sec.point is not None:
        out["point"] = encode_point(sec.point)
    if sec.circle is not None:
        out["circle"] = {"a": encode_vector(sec.circle.a),
                         "b": encode_vector(sec.circle.b),
                         "c": encode_complex(sec.circle.c)}
    if rep is not None:
        out["sides"] = {
            "inner": [s.value for s in rep.inner],
            "outer": [s.value for s in rep.outer],
            "separates": bool(rep.separates),
        }
    return out


def decode_affine_line(obj):
    if not isinstance(obj, dict) or "base" not in obj or "direction" not in obj:
        raise ValueError('an affine line is {"base": vector, '
                         '"direction": vector}')
    base = decode_vector(obj["base"])
    direction = decode_vector(obj["direction"], base.size)
    return AffineComplexLine(base, direction)


def decode_body(obj):
    """Body spec: {"type": "ball"|"ellipsoid"|"bidisk", parameters}."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError('a body spec is {"type": ..., parameters}')
    kind = obj["type"]
    if kind == "ball":
        n = int(obj.get("n", 2))
        center = decode_vector(obj["center"], n) if "center" in obj else None
        return ball_body(n, radius=obj.get("radius", 1.0), center=center)
    if kind == "ellipsoid":
        if "H" not in obj:
            raise ValueError('an ellipsoid spec needs "H" (Hermitian matrix)')
        h = decode_matrix(obj["H"], square=True)
        center = (decode_vector(obj["center"], h.shape[0])
                  if "center" in obj else np.zeros(h.shape[0], dtype=complex))
        return ellipsoid_body(center, h)
    if kind == "bidisk":
        return polydisk_body(obj.get("radii", [1.0, 1.0]))
    raise ValueError(f"unknown body type: {kind!r}")


def load_input(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
