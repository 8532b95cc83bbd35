import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bombon.convexity import AffineComplexLine
from bombon.errors import NotABombon
from bombon.jsonio import (canonical_dumps, decode_affine_line, decode_body,
                           decode_complex, decode_line, decode_matrix,
                           decode_point, decode_quadric, decode_subspace,
                           decode_vector, encode_complex, encode_matrix,
                           encode_quadric, encode_subspace, encode_vector)
from bombon.projective import Subspace
from bombon.quadrics import QuadricBombon


def test_complex_roundtrip():
    assert encode_complex(1 - 2j) == [1.0, -2.0]
    assert decode_complex([1.0, -2.0]) == 1 - 2j
    assert decode_complex(3) == 3 + 0j
    for bad in ("x", [1], [1, 2, 3], [True, False], None):
        with pytest.raises(ValueError):
            decode_complex(bad)


def test_vector_matrix_roundtrip():
    v = np.array([1.0, 1j, -2.0])
    assert np.array_equal(decode_vector(encode_vector(v)), v)
    m = np.array([[1.0, 1j], [-1j, 2.0]])
    assert np.array_equal(decode_matrix(encode_matrix(m)), m)
    with pytest.raises(ValueError):
        decode_vector(encode_vector(v), expect_len=2)
    with pytest.raises(ValueError):
        decode_matrix([[[1, 0]], [[1, 0], [2, 0]]])
    with pytest.raises(ValueError):
        decode_matrix(encode_matrix(np.ones((2, 3))), square=True)


def test_quadric_roundtrip():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    obj = encode_quadric(x)
    assert obj["n"] == 2
    y = decode_quadric(obj)
    assert np.array_equal(y.a, x.a)
    with pytest.raises(ValueError):
        decode_quadric({"n": 3, "A": obj["A"]})
    with pytest.raises(NotABombon):
        decode_quadric({"A": [[1, 0], [0, 1]]})  # definite


def test_line_and_point_decode():
    line = decode_line({"a": [[1, 0], [0, 0]], "b": [[0, 0], [1, 0]]})
    assert np.array_equal(line.a, [1.0, 0.0])
    p = decode_point([[0, 1], [2, 0]])
    assert p.isclose(np.array([1j, 2.0]))
    with pytest.raises(ValueError):
        decode_line({"a": [[1, 0], [0, 0]]})


def test_subspace_roundtrip():
    s = Subspace(np.eye(3, dtype=complex)[:, :2])
    obj = encode_subspace(s)
    t = decode_subspace(obj, expect_ambient=2)
    assert t.projective_dim == 1
    e = decode_subspace({"ambient_dim": 2, "basis": []})
    assert e.projective_dim == -1
    with pytest.raises(ValueError):
        decode_subspace({"basis": []})


def test_body_decode():
    ball = decode_body({"type": "ball", "n": 2, "radius": 2.0})
    assert ball.inside(np.array([1.5, 0.0], dtype=complex))
    ell = decode_body({"type": "ellipsoid", "H": [[1, 0], [0, 4]]})
    assert not ell.inside(np.array([0.0, 0.8], dtype=complex))
    bidisk = decode_body({"type": "bidisk", "radii": [1.0, 2.0]})
    assert bidisk.inside(np.array([0.5, 1.5], dtype=complex))
    with pytest.raises(ValueError):
        decode_body({"type": "torus"})
    with pytest.raises(ValueError):
        decode_body({"type": "ellipsoid"})


def test_affine_line_decode():
    line = decode_affine_line({"base": [[0, 0], [0, 0]],
                               "direction": [[2, 0], [0, 0]]})
    assert isinstance(line, AffineComplexLine)
    assert np.linalg.norm(line.direction) == pytest.approx(1.0)


def test_canonical_dumps_is_deterministic_and_strict():
    payload = {"b": [1.0, 2.0], "a": {"x": 1e-9}}
    assert canonical_dumps(payload) == canonical_dumps(json.loads(
        canonical_dumps(payload)))
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})


# --- canonical_dumps is byte-identical to the stdlib call ----------------


def stdlib_dumps(obj):
    return json.dumps(obj, indent=2, separators=(",", ": "), allow_nan=False)


def outcome(dumps, obj):
    try:
        return dumps(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                               1.7976931348623157e308, 1e16, 1e-7, 0.1])
NUMBERS = st.one_of(FLOATS, EDGE_FLOATS, st.integers(), st.booleans(),
                    FLOATS.map(np.float64))
STRINGS = st.one_of(st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f'
                                                 '\x7f\u00e9\u2028\U0001f600'))
KEYS = st.one_of(STRINGS, st.integers(), FLOATS, st.booleans(), st.none())


def nest(flat, shape):
    if len(shape) == 1:
        return list(flat)
    step = len(flat) // shape[0]
    return [nest(flat[i:i + step], shape[1:])
            for i in range(0, len(flat), step)]


@st.composite
def blocks(draw, entries=FLOATS):
    """Rectangular nested lists of depth 1-3."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    return nest(flat, shape)


LEAVES = st.one_of(st.none(), NUMBERS, STRINGS, blocks(), blocks(NUMBERS),
                   st.lists(NUMBERS), st.just([]), st.just({}), st.just([[]]))
TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(TREES)
def test_canonical_dumps_matches_stdlib(obj):
    assert canonical_dumps(obj) == stdlib_dumps(obj)


BAD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")])


@settings(max_examples=200, deadline=None)
@given(blocks(), BAD_FLOATS, st.integers(0, 63), TREES)
def test_canonical_dumps_rejects_nonfinite_like_stdlib(block, bad, pos, tree):
    flat = block
    while isinstance(flat[0], list):
        flat = flat[pos % len(flat)]
    flat[pos % len(flat)] = bad
    for obj in (block, {"m": block, "x": tree}, [tree, block], {bad: 1},
                [tree, bad]):
        got = outcome(canonical_dumps, obj)
        assert isinstance(got, tuple) and got[0] is ValueError
        assert got == outcome(stdlib_dumps, obj)


@settings(max_examples=100, deadline=None)
@given(TREES, st.sampled_from([object(), 1j, np.int64(3), {1, 2}, b"x",
                               np.array([1.0])]))
def test_canonical_dumps_rejects_unsupported_like_stdlib(tree, bad):
    for obj in ([tree, bad], {"a": tree, "b": [bad]}, {(1, 2): tree}):
        got = outcome(canonical_dumps, obj)
        assert isinstance(got, tuple) and got[0] is TypeError
        assert got == outcome(stdlib_dumps, obj)


def test_canonical_dumps_circular_reference():
    loop = [1.0]
    loop.append(loop)
    deep = [[[[[1.0]]]]]
    deep[0][0][0].append(deep)
    for obj in (loop, deep, {"a": loop}):
        assert outcome(canonical_dumps, obj) == outcome(stdlib_dumps, obj)
        assert outcome(canonical_dumps, obj)[0] is ValueError


# --- block decoders equal the per-entry decoder -------------------------


BIG_INTS = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63 - 1, 2 ** 63 + 1,
                     -(2 ** 63) - 1, 2 ** 64 + 1, 2 ** 64 - 1, 3 ** 60]))
REALS = st.one_of(FLOATS, EDGE_FLOATS, BIG_INTS)
ENTRIES = st.one_of(REALS, st.lists(REALS, min_size=2, max_size=2))
PAIRS = st.lists(REALS, min_size=2, max_size=2)


def per_entry(obj):
    return np.array([decode_complex(t) for t in obj], dtype=complex)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(PAIRS, min_size=1, max_size=6),
                 st.lists(ENTRIES, min_size=1, max_size=6)))
def test_decode_vector_matches_per_entry(obj):
    assert same_bits(decode_vector(obj), per_entry(obj))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_decode_matrix_matches_per_entry(rows, cols, data):
    entries = data.draw(st.one_of(st.just(PAIRS), st.just(ENTRIES)))
    obj = data.draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    assert same_bits(decode_matrix(obj), np.stack([per_entry(r) for r in obj]))


@pytest.mark.parametrize("bad", [True, "1.5", [1.5, "0"], [False, 0.0],
                                 [1.0, 0.0, 0.0], [1.0], None, {},
                                 [10 ** 400, 0], 10 ** 400])
def test_block_decoders_raise_per_entry_errors(bad):
    with pytest.raises(ValueError) as expect:
        decode_complex(bad)
    vec = [[1.0, 0.0], bad, [0.0, 2.0]]
    with pytest.raises(ValueError) as got:
        decode_vector(vec)
    assert str(got.value) == str(expect.value)
    with pytest.raises(ValueError) as got:
        decode_matrix([[[1.0, 0.0], [0.0, 1.0]], [bad, [0.0, 2.0]]])
    assert str(got.value) == str(expect.value)


def test_decode_matrix_shape_errors():
    for bad in ([[[1, 0], [0, 0]], [[1, 0]]], [[]], [[], []], [[1, 0], 2],
                [], "[[1, 0]]"):
        with pytest.raises(ValueError):
            decode_matrix(bad)
    with pytest.raises(ValueError, match="not square"):
        decode_matrix([[[1, 0], [0, 0], [0, 0]]], square=True)
