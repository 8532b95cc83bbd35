"""Brute-force line oracles and the Monte-Carlo axiom verifier.

Everything here judges a set without the signature classifier.  The
grid judge (grid_line_tags, and grid_line_tag, its batch of one) reads
only each line's own 2x2 form: its two eigenvalues, the ends of the
range of its values on the line, give the tag.  The verifier
(verify_axioms) reads only side labels of an arbitrary membership
oracle.  The two views are compared against the exact classifier by
the regression suite.

The verifier reads its lines 32 at a time and tags each chunk in
stages, with one labeller that carries the chunk's line forms, so that
no labelling call exceeds 4096 rows and a run's working memory does not
grow with its number of lines:
- stage 1 labels the 128-point grids of the chunk in one call;
- a line that shows only one side there is labelled again on the
  131072-point stage-2 grid, in blocks of 4096 rows so that each
  block's temporaries stay in cache.  That grid is built once, a block
  at a time, into the one 4.2 MB array it is held in.  An oracle built
  from a form settles a line whose 2x2 line form is definite, beyond
  rounding, on that side from the form's eigenvalues (``_line_label``):
  every grid row would get that label, so the grid is not labelled;
- the chunk's two-sided lines have their zero sets traced along 64
  rays per line, through the chunk's labeller moved to each line's
  trace basis, so that a chunk builds its line forms once.  An oracle
  built from a form, and one whose boundary lies on Hermitian pieces
  (the bidisk, a polydisk chart), proposes each ray's zero in closed
  form from the roots of those forms on the ray and keeps it where it
  is the ray's one crossing and labels certify it (``_trace_zeros``);
  the other rays, and every ray of other oracles, are bisected each on
  its own, four halvings per labelling call (``_bisect``);
- the zero sets are fitted and checked for circles in one batch per
  count of zeros, each line with the bits of its own fit, and the side
  rings of the chunk's fitted lines are labelled in one call.
Every line point is labelled through ``OracleSet.on_lines``, which
labels rows of the line's CP^1: the grids' rows, shared by all lines,
and the rays' chart rows, one set per line.  By default each block is
one real matmul of the rows' floats with ``linalg.real_map`` of the line
bases, handed to ``labels`` as a complex view of the product.  The
quadric oracle and the chart of an ellipsoid label a row from its line's
own 2x2 form instead (``_line_form``): one ``linalg.form_values``
product on the row's four floats gives its value and squared norm.
Labels are int8; a grid's labels are written block by block into one
preallocated (lines, grid) array.  Rows are labelled independently,
and every stage passes each line two or more rows, so the tags do not
depend on which lines share a call: numpy takes a one-row product by
its matrix-vector path, whose sums can round apart from those of the
same row in a larger product.  Every tag leaves through
``oracle_line_tag``, so a wrapper of that one function sees each
tagged line.
``convexity.disk_sections`` runs convex-body charts through the same
stages and circle fits, with one labeller for all its lines.
"""

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .errors import PreconditionError, ZeroVector
from .linalg import (DEFAULT_TOL, _circle_frames, _cut, _gauge,
                     _pinned_eigh, finite_nonnegative, form_values, max_abs,
                     real_form, real_map)
from .moebius import _fit_hermitian_through
from .projective import ProjPoint, line_through, sample_line, sample_point
from .sections import SectionTag, classify_line_section, side_rings
from .version import VERSION

_GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0
# CP^1 grid sizes: the first labelling stage, then the fallback stage
# for one-sided lines
_GRID = 128
# read by no code: the grid oracle's former raw-grid sign cut, printed by
# RunConfig.to_dict as "grid" so that reports keep their bytes
_GRID_SIGN = 1e-6
_STAGE2 = 131072
# zero tracing: rays, bisection steps, and the steps taken from one
# labelling call of a ray's walk (``_bisect``)
_RAYS = 64
_BISECT_ITERS = 60
_HALVINGS = 4
# the rays' directions, and log10 |w| at their ends
_ANGLES = np.exp(2j * np.pi * np.arange(_RAYS) / _RAYS)
_ENDS = np.repeat([[-8.0], [8.0]], _RAYS, axis=1)
# Half-width, in log10 |z|, of the two labels that certify a ray's
# proposed zero x in ``_trace_zeros``.  An x in (-8, 8) is spaced at most
# 2^-49 < 1.8e-15 from its neighbours, and 10^x rounds to a few eps, so
# the rows at x -+ _FLANK lie 1e-12 ln 10 = 2.3e-12 relative on either
# side of x's row, hundreds of roundings clear of it.  Along a ray the
# form's value N(r) = a r^2 + 2 beta r + c (``_ray_zeros``) then moves
# by |N'(r)| r 2.3e-12 at the zero, which beats its rounding,
# 4 eps max|lam| |p|^2 (``_line_label``), wherever
# |N'(r)| r >= 4e-4 max|lam| |p|^2, so nearly every crossing
# certifies; a flatter one is bisected.  A kept zero is within
# 2.3e-12 relative of a flip, far inside the 1e-4 chart residual of a
# circle fit and a disk section's tolerance.
_FLANK = 1e-12
# Rows per block when labelling a grid: big enough to amortize the
# per-call cost, small enough that a block's temporaries stay in cache.
_BLOCK = 4096
# two-sided lines traced together: one label of each of their rays fills
# one labelling call
_TRACE_LINES = _BLOCK // _RAYS
# largest |r - 1| of the traced zeros in the chart of a fitted circle
_CHART_RESIDUAL = 1e-4
# ON band of the bidisk oracle around its gauge level 1
_BIDISK_BAND = 1e-9
# smallest normal float: a squared norm below it has lost digits
_TINY = np.finfo(float).tiny
# machine epsilon and smallest subnormal, for _line_label's error bound
_EPS = np.finfo(float).eps
_SUB = np.finfo(float).smallest_subnormal
_grid_cache = {}


def _fib_point(i, k):
    # sphere angles of the points of index i of the k-point grid, each
    # from its own index, so that a block of indices gets the same values
    # as the whole grid
    theta = np.arccos(1.0 - 2.0 * (i + 0.5) / k)
    phi = 2.0 * np.pi * i / _GOLDEN
    return theta, phi


def spinor(theta, phi):
    """CP^1 representatives [cos(t/2) : sin(t/2) e^{i p}] of sphere angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.cos(theta / 2.0) * np.ones_like(phi),
                     np.sin(theta / 2.0) * np.exp(1j * phi)], axis=-1)


def cp1_grid(k):
    """The k-point Fibonacci grid of CP^1 as a (k, 2) spinor array.

    Built on first use, _BLOCK rows at a time into the one array, and
    cached per k; the array is read-only and shared by every caller, so
    copy it before writing.
    """
    if k not in _grid_cache:
        grid = np.empty((k, 2), dtype=complex)
        for s in range(0, k, _BLOCK):
            grid[s:s + _BLOCK] = spinor(*_fib_point(
                np.arange(s, min(s + _BLOCK, k)), k))
        grid.flags.writeable = False
        _grid_cache[k] = grid
    return _grid_cache[k]


def _value_form(a):
    # real_form(a) with weights [lam, 1]: form_values then gives each
    # row's value and squared norm
    q, lam = real_form(a)
    return q, np.column_stack([lam, np.ones_like(lam)])


def _line_form(a, bases):
    """Factored real forms of the 2x2 restrictions of ``a`` to lines.

    Each basis B of the (m, k, 2) stack ``bases`` is gauged as a whole
    (``linalg._gauge``) and written B = Q R in a Gram-Schmidt frame Q.
    With Q* a Q = V diag(lam) V*, g = real_map(R^T conj(V)) and the
    weights w = [lam, 1] of each float pair make ``form_values(s, (g, w))``
    the pair (Re(p* a p), |p|^2) at p = B s, times the square of B's
    gauge, for CP^1 rows s of shape (r, 2) or (m, r, 2).  Returns
    ((g, w), ok); a line not ok, of rank one by the rank cut, gets the
    zero form, so that each of its rows reads a squared norm of 0.
    """
    b = np.asarray(bases, dtype=complex)
    with np.errstate(all="ignore"):
        b = _gauge(b, axis=(1, 2))[0]
        b0, u = b[:, :, 0], b[:, :, 1]
        # column norms as np.linalg.norm takes them
        r00 = np.sqrt(np.add.reduce((b0.conj() * b0).real, axis=1))
        q0 = b0 / r00[:, None]
        r01 = 0.0
        # Gram-Schmidt, twice for the second column, so that Q stays
        # orthonormal when the columns are nearly dependent
        for _ in range(2):
            c = (q0.conj() * u).sum(axis=1)
            u = u - q0 * c[:, None]
            r01 = r01 + c
        r11 = np.sqrt(np.add.reduce((u.conj() * u).real, axis=1))
        ok = r11 > DEFAULT_TOL * np.maximum(r00, np.hypot(np.abs(r01), r11))
        q = np.stack([q0, u / r11[:, None]], axis=2)
    rt = np.zeros((b.shape[0], 2, 2), dtype=complex)
    rt[:, 0, 0], rt[:, 1, 0], rt[:, 1, 1] = r00, r01, r11
    if not ok.all():
        q[~ok] = rt[~ok] = 0.0
    m = q.conj().transpose(0, 2, 1) @ np.asarray(a, dtype=complex) @ q
    lam, v = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2.0)
    w = np.ones((b.shape[0], 4, 2))
    w[:, :, 0] = np.repeat(lam, 2, axis=1)
    return (real_map(rt @ v.conj()), w), ok


def _range_tag(vmax, vmin, ztol):
    # the tag of a line whose values fill the range [vmin, vmax]
    pos, neg = vmax > ztol, vmin < -ztol
    if pos == neg:
        return SectionTag.CIRCLE if pos else SectionTag.FULL_LINE
    definite = vmin > ztol or vmax < -ztol
    return SectionTag.EMPTY if definite else SectionTag.SINGLE_POINT


def grid_line_tag(a, basis):
    """Classify a line section from the line's own 2x2 form.

    ``grid_line_tags`` of the one line ``basis`` (n+1, 2) of the form
    ``a``.
    """
    return grid_line_tags([a], [basis])[0]


def grid_line_tags(forms, bases):
    """Brute-force section tag of each line ``bases[i]`` of ``forms[i]``.

    Reads each line's own 2x2 form (``_line_form``, its own frame and
    ``eigh``, not ``sections.restrict_form``, so that a fault there
    cannot reach both the classifier and this judge).  Its two
    eigenvalues, the ends of the range of its values on the line, give
    the tag at the cut 1e-10 * max(1, max|A|) (``linalg._cut``): ends
    beyond it on both sides mean Circle, both ends within it FullLine,
    one end within it SinglePoint and both beyond it on one side
    Empty.  Basis columns are first scaled by powers of two
    (``linalg._gauge``), so that a lopsided basis keeps rank two.  Lines
    of any mix of forms and dimensions take one line-form call per
    shape, and each line gets the tag of a batch of one.  Raises
    ValueError for the first line, in order, whose basis is not finite
    or of rank one, and for lists of different lengths.
    """
    forms = [np.asarray(a, dtype=complex) for a in forms]
    bases = [np.asarray(b, dtype=complex) for b in bases]
    m = len(bases)
    if len(forms) != m:
        raise ValueError(f"{len(forms)} forms for {m} line bases")
    lam = np.empty((m, 2))
    big = np.empty(m)
    groups, errors = {}, []
    for i, (a, b) in enumerate(zip(forms, bases)):
        groups.setdefault((a.shape, b.shape), []).append(i)
    for idx in groups.values():
        a = np.stack([forms[i] for i in idx])
        b = np.stack([bases[i] for i in idx])
        finite = np.isfinite(b).all(axis=(1, 2))
        (_, w), ok = _line_form(a, _gauge(b, axis=1)[0])
        lam[idx] = w[:, ::2, 0]
        big[idx] = np.abs(a).max(axis=(1, 2), initial=0.0)
        for k in np.flatnonzero(~(finite & ok))[:1]:
            errors.append((idx[k], "coordinates must be finite"
                           if not finite[k] else
                           "a line basis must have rank two"))
    if errors:
        raise ValueError(min(errors)[1])
    return [_range_tag(hi, lo, _cut(b, 1e-10)) for hi, lo, b in zip(
        lam.max(axis=1).tolist(), lam.min(axis=1).tolist(), big.tolist())]


@dataclass
class OracleSet:
    """Membership-side oracle on CP^dim.

    ``side`` maps a batch (m, dim+1) of homogeneous vectors, which need
    not be unit vectors, to labels +1 (component U), 0 (on the set,
    within the oracle's own band) and -1 (component V); each row's label
    must not depend on the other rows of the batch.  ``labels`` returns
    them as int8 (an int for a single point).  A ``side`` that returns
    another dtype is checked: any value other than -1, 0 and 1 raises
    ValueError, where a cast would wrap it.  The built-in oracles return
    int8, which skips the check.  ``exact``
    optionally carries the quadric the oracle was built from; the
    verifier never consults it for classification, only for
    LowConfidence bookkeeping.

    ``on_lines`` labels points of lines by their CP^1 rows, and a row's
    label equals ``labels`` of its point.  An oracle built from a form
    computes the row's value in other arithmetic than its point's, so
    the two can differ only where a value lies within rounding of a cut.
    """

    side: Callable[[np.ndarray], np.ndarray]
    description: str
    dim: int
    exact: object = None
    # (F, sides) of an oracle whose label of p is sides(Re(p* F p) /
    # |p|^2), set by its builder; ``sides`` must be monotone in the
    # value, which ``_line_label`` relies on.  ``dataclasses.replace``
    # drops it, so that an oracle made with another ``side`` labels its
    # points
    _form: tuple = field(default=None, init=False, repr=False,
                         compare=False)
    # (k, dim+1, dim+1) stack of Hermitian forms F_i of an oracle whose
    # side flips only where some p* F_i p is 0, set by its builder, so
    # that ``_trace_zeros`` proposes zeros from their roots; dropped by
    # ``dataclasses.replace`` like ``_form``
    _pieces: np.ndarray = field(default=None, init=False, repr=False,
                                compare=False)

    def labels(self, pts):
        arr = np.asarray(pts, dtype=complex)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        out = np.asarray(self.side(arr))
        if out.dtype != np.int8:
            # a cast to int8 would wrap a value outside the three labels
            if not np.isin(out, (-1, 0, 1)).all():
                raise ValueError(f"{self.description}: side labels must be "
                                 "-1, 0 or 1")
            out = out.astype(np.int8)
        return int(out[0]) if single else out

    def on_lines(self, bases):
        """Labeller of the points p = B s of the lines ``bases``.

        ``bases`` is an (m, dim+1, 2) stack of bases B; the labeller maps
        CP^1 rows s, (r, 2) for all lines or (m, r, 2) per line, to the
        (m, r) int8 labels of their points, and its ``lines(idx)`` is the
        labeller of the lines ``idx``.  The points are one real matmul of
        the rows' floats with ``real_map`` of the bases, unless the oracle
        has a ``_form``: then the labeller holds each line's
        ``_line_form``, a row's value and squared norm come from it, and
        only the rows whose squared norm there is not a normal float
        (every row of a line of rank one) are built as points.  Raises
        ValueError for bases that are not finite, before any point is
        built.
        """
        bases = np.asarray(bases, dtype=complex)
        if not np.isfinite(bases).all():
            raise ValueError("coordinates must be finite")
        to_pts = real_map(bases.transpose(0, 2, 1))
        if self._form is None:
            return _LineLabeller(self, to_pts)
        (g, w), ok = _line_form(self._form[0], bases)
        return _LineLabeller(self, to_pts, g, w, ok)


class _LineLabeller:
    # ``OracleSet.on_lines`` of a stack of lines: the real point map
    # ``to_pts`` of their bases and, for an oracle with a ``_form``, their
    # line forms (g, w) and rank flags ``ok`` from ``_line_form``

    def __init__(self, oracle, to_pts, g=None, w=None, ok=None):
        self.oracle, self.to_pts = oracle, to_pts
        self.g, self.w, self.ok = g, w, ok

    def lines(self, idx):
        # the labeller of the lines ``idx``, a slice or an index array, on
        # those lines' rows of these arrays
        return _LineLabeller(self.oracle, *(
            None if a is None else a[idx]
            for a in (self.to_pts, self.g, self.w, self.ok)))

    def traced(self, ends, traces):
        # the labeller of the trace bases ``traces`` B E of these lines'
        # bases B, E = ``ends``: a row t of B E is the row E t of B, so
        # its line form is real_map(E^T) g, and its points, where a row
        # takes the point path, are built from the traces
        g = None if self.g is None else real_map(
            ends.transpose(0, 2, 1)) @ self.g
        return _LineLabeller(self.oracle, real_map(traces.transpose(0, 2, 1)),
                             g, self.w, self.ok)

    def _points(self, rows):
        return (np.ascontiguousarray(rows, dtype=complex).view(np.float64)
                @ self.to_pts).view(complex)

    def __call__(self, rows):
        if self.g is None:
            pts = self._points(rows)
            return self.oracle.labels(
                pts.reshape(-1, pts.shape[-1])).reshape(pts.shape[:-1])
        vals, bad = _row_values(rows, (self.g, self.w))
        out = self.oracle._form[1](vals)
        if bad is not None:
            out[bad] = self.oracle.labels(self._points(rows)[bad])
        return out


def _row_values(rows, vform):
    # Re(p* F p) / |p|^2 of each row p from ``form_values`` with weights
    # [lam, 1] (``_value_form``, ``_line_form``), and the mask of rows whose
    # value is not finite or squared norm not normal, or None for no row
    with np.errstate(all="ignore"):
        vn = form_values(rows, vform)
        vals = vn[..., 0] / vn[..., 1]
    if np.isfinite(vals).all() and vn[..., 1].min(initial=np.inf) >= _TINY:
        return vals, None
    return vals, ~np.isfinite(vals) | (vn[..., 1] < _TINY)


def _band(vals, thr):
    # +1 above the band [-thr, thr], 0 in it, -1 below
    return (vals > thr).view(np.int8) - (vals < -thr).view(np.int8)


def oracle_from_quadric(x):
    """Side oracle of an algebraic bombon, banded by its zero tolerance.

    Raises ZeroVector for a zero row and ValueError for a non-finite one.
    """
    thr = x._cut
    vform = _value_form(x.a)

    def side(pts):
        vals, bad = _row_values(pts, vform)
        if bad is not None:
            # zero or non-finite rows, and rows whose squares under- or
            # overflow, which are labelled again gauged
            rows = pts[bad]
            if not np.isfinite(rows).all():
                raise ValueError("coordinates must be finite")
            vn = form_values(_gauge(rows, axis=1)[0], vform)
            if not vn[:, 1].all():
                raise ZeroVector("zero vector has no side")
            vals[bad] = vn[:, 0] / vn[:, 1]
        return _band(vals, thr)

    oracle = OracleSet(side=side, description=f"quadric(n={x.n})", dim=x.n,
                       exact=x)
    oracle._form = (x.a, lambda vals: _band(vals, thr))
    return oracle


def _radii(radii, pair=False):
    # ``radii`` as a float array, and the forms diag(-r_i^2, e_i) of the
    # Hermitian quadrics |z_i|^2 = r_i^2 |z_0|^2, one per radius.  Raises
    # ValueError unless radii is a nonempty 1-D list of finite radii >= 0,
    # of two entries for a ``pair``.
    try:
        r = np.asarray(radii, dtype=float)
    except (TypeError, ValueError):
        r = np.empty((0, 0))
    if r.ndim != 1 or r.size == 0 or pair and r.size != 2:
        raise ValueError("bidisk oracle needs two radii" if pair else
                         "bidisk radii must be a nonempty 1-D list")
    r = np.array([finite_nonnegative(v, "bidisk radius") for v in r.tolist()])
    pieces = np.zeros((r.size, r.size + 1, r.size + 1))
    pieces[:, 0, 0] = -np.square(r)
    idx = np.arange(1, r.size + 1)
    pieces[idx - 1, idx, idx] = 1.0
    return r, pieces


def bidisk_oracle(radii=(1.0, 1.0)):
    """Boundary of the closed bidisk in the affine chart z0 = 1 of CP^2.

    Inside (both coordinates strictly under their radius) is labeled U,
    outside V.  Its line sections are lens-shaped curves, so the axiom
    verifier must report violations on it.  A row is labelled by its
    gauge g = max(|z1| / r1, |z2| / r2) / |z0|: 0 within _BIDISK_BAND of
    1, else +1 below 1 and -1 above; a row at z0 = 0, or whose
    quotients overflow, has g = inf, or NaN for a zero row, and so the
    label -1.  Its boundary lies on the quadrics |z_i| = r_i |z0|, the
    oracle's ``_pieces``.  Raises ValueError unless ``radii`` is a list
    of two finite radii >= 0.
    """
    (r1, r2), pieces = _radii(radii, pair=True)

    def side(pts):
        mag = np.abs(np.asarray(pts, dtype=complex))
        with np.errstate(all="ignore"):
            g = np.maximum(mag[:, 1] / r1, mag[:, 2] / r2)
            g /= mag[:, 0]
        # int8 arithmetic, as in convexity._inside
        out = (g < 1.0).view(np.int8) * np.int8(2)
        out -= 1
        out[np.abs(g - 1.0) <= _BIDISK_BAND] = 0
        return out

    oracle = OracleSet(side=side, description=f"bidisk(r=({r1}, {r2}))",
                       dim=2)
    oracle._pieces = pieces
    return oracle


@dataclass
class RunConfig:
    """Explicit knobs of a verification run; reports embed the config
    together with the package's fixed tolerances."""

    seed: int = 7
    n_lines: int = 200
    output_format: str = "json"

    def __post_init__(self):
        if self.n_lines < 0:
            raise ValueError(f"n_lines must be >= 0, got {self.n_lines}")

    def to_dict(self):
        return {"seed": int(self.seed), "n_lines": int(self.n_lines),
                "tolerances": {"chart_residual": _CHART_RESIDUAL,
                               "grid": _GRID_SIGN, "zero": DEFAULT_TOL},
                "output_format": self.output_format}


@dataclass
class AxiomReport:
    lines_tested: int
    tallies: dict
    two_sides_violations: int
    nonconforming_lines: list
    verdict: str
    line_tags: tuple
    config: dict
    version: str = VERSION

    def to_dict(self):
        return {"version": self.version, "config": self.config,
                "lines_tested": self.lines_tested,
                "tallies": {k: self.tallies[k] for k in sorted(self.tallies)},
                "two_sides_violations": self.two_sides_violations,
                "nonconforming_lines": self.nonconforming_lines,
                "line_tags": list(self.line_tags),
                "verdict": self.verdict}


def _fs_diameter(pts):
    # largest Fubini-Study distance arccos |<u_i, u_j>| of the points,
    # or 2 r <= 0.2 when all lie within r of the first (a metric bound
    # that decides a single point): the smallest overlap, taken over row
    # blocks of the Gram matrix of at most _BLOCK * _GRID entries, so
    # that memory does not grow with the square of the number of points
    u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    r = float(np.arccos(np.clip(np.min(np.abs(u @ u[0].conj())), 0.0, 1.0)))
    if r <= 0.1:
        return 2.0 * r
    uh = u.conj().T
    per = max(1, _BLOCK * _GRID // u.shape[0])
    g = min(float(np.min(np.abs(u[s:s + per] @ uh)))
            for s in range(0, u.shape[0], per))
    return float(np.arccos(np.clip(g, 0.0, 1.0)))


def _ray_forms(label, traces):
    # (m, k, 2, 2) Hermitian 2x2 forms, on each trace basis (p_u, p_v) of
    # the labeller ``label``, of the k forms whose zero sets hold every
    # boundary crossing of its oracle, or None for an oracle without any:
    # its one ``_form``, else its ``_pieces``, each restricted to the
    # trace bases scaled by powers of two
    oracle = label.oracle
    pieces = oracle._pieces if oracle._form is None else oracle._form[0][None]
    if pieces is None:
        return None
    with np.errstate(all="ignore"):
        p = _gauge(traces, axis=(1, 2))[0][:, None]
        return p.conj().transpose(0, 1, 3, 2) @ pieces @ p


def _ray_zeros(m, ang):
    # log10 |w| of the zeros along each ray w = r ang_j of the 2x2 forms
    # m (..., 2, 2), each gauged (``linalg._gauge``).  At the row (w, 1) a
    # form's value is a r^2 + 2 beta r + c, with a = M_00, c = M_11 and
    # beta = Re(conj(ang_j) M_01), whose roots are taken without
    # cancellation as q / a and c / q for q = -(beta + sign(beta)
    # sqrt(beta^2 - ac)).  (..., 2, _RAYS) floats, those two roots per
    # ray, not finite where a root is not real and positive.
    with np.errstate(all="ignore"):
        m = _gauge(m, axis=(-2, -1))[0]
        a, c = m[..., 0, 0].real[..., None], m[..., 1, 1].real[..., None]
        beta = (ang.conj() * m[..., 0, 1][..., None]).real
        q = -(beta + np.copysign(np.sqrt(beta * beta - a * c), beta))
        return np.log10(np.stack([q / a, c / q], axis=-2))


def _ray_labels(label, logr, ang):
    # labels of the chart rows (w, 1), w = 10^logr ang_j, of the rays of
    # the labeller's l lines, for logr (l, u, _RAYS): u rows per ray, in
    # calls of at most _BLOCK rows
    out = np.empty(logr.shape, dtype=np.int8)
    per = _TRACE_LINES // logr.shape[0]
    for s in range(0, logr.shape[1], per):
        part = logr[:, s:s + per]
        rows = np.ones(part.shape + (2,), dtype=complex)
        rows[..., 0] = np.power(10.0, part) * ang
        out[:, s:s + per] = label(rows.reshape(part.shape[0], -1, 2)).reshape(
            part.shape)
    return out


def _certified_zeros(label, x, ang, valid, lab_lo, lab_hi):
    # (kept, zero) per ray, for the rays ``valid`` that bracket a zero,
    # from the roots x (m, k, _RAYS) in log10 |w|; the candidates are the
    # roots in (-8, 8), gathered into each ray's first slots, and slots
    # that no ray fills are not labelled.  A candidate is a crossing when
    # its label is 0 or its labels at x -+ _FLANK differ, and it is
    # certified when its label is 0 or those labels are lab_lo and lab_hi.
    # A ray is kept when exactly one of its candidates is a crossing and
    # that one is certified; flanks are labelled only when some candidate
    # has a side label.
    x = np.where(valid[:, None] & (np.abs(x) < 8.0), x, np.nan)
    k = int(np.isfinite(x).sum(axis=1).max())
    x = (np.fmax.reduce(x, axis=1, keepdims=True) if k <= 1 else
         np.sort(x, axis=1)[:, :k])
    cand = np.isfinite(x)
    x = np.where(cand, x, 0.0)
    on = _ray_labels(label, x, ang)
    cross = cert = cand & (on == 0)
    side = cand & (on != 0)
    if np.any(side):
        flank = _ray_labels(label, np.concatenate(
            [x - _FLANK, x + _FLANK], axis=1), ang)
        below, above = np.split(flank, 2, axis=1)
        cert = cross | side & (below == lab_lo[:, None]) & (
            above == lab_hi[:, None])
        cross = cross | side & (below != above)
    kept = (cross.sum(axis=1) == 1) & (cross & cert).any(axis=1)
    # x of the one crossing of a kept ray, the others' zeros added exactly
    return kept, np.where(cross, x, 0.0).sum(axis=1)


def _bisect(label, a, b, ref, ang):
    # The ends (a, b) in log10 |w| of rays w = r ang, one ray per line of
    # the labeller ``label``, after _BISECT_ITERS halvings of a side flip:
    # a midpoint whose label times ``ref``, the label at a, is > 0 moves
    # a, < 0 moves b and 0 moves both, after which the ray is done.  Each
    # round labels the 2^_HALVINGS - 1 midpoints that the next _HALVINGS
    # halvings of each open ray can visit, each from its own parents as
    # one halving at a time computes it, in calls of at most _BLOCK rows;
    # a walk down them then takes those halvings.  Each ray's rows go
    # through one product with its line's matrix, of several rows: numpy
    # takes a one-row product by its matrix-vector path, whose sums can
    # round apart from those of the same rows in a larger product.
    walk = 2 ** _HALVINGS - 1
    per = _BLOCK // walk
    for _ in range(_BISECT_ITERS // _HALVINGS):
        rays = np.flatnonzero(a != b)
        if not rays.size:
            break
        lo, hi, mids = a[rays, None], b[rays, None], []
        for level in range(_HALVINGS):
            mids.append((lo + hi) / 2.0)
            if level + 1 < _HALVINGS:
                # children in heap order: (lo, mid) left, (mid, hi) right
                lo, hi = (np.stack(p, axis=2).reshape(rays.size, -1)
                          for p in ((lo, mids[-1]), (mids[-1], hi)))
        mids = np.concatenate(mids, axis=1)
        rows = np.ones(mids.shape + (2,), dtype=complex)
        rows[..., 0] = np.power(10.0, mids) * ang[rays, None]
        t = np.empty(mids.shape, dtype=np.int8)
        for s in range(0, rays.size, per):
            r = rays[s:s + per]
            t[s:s + per] = label.lines(r)(rows[s:s + per]) * ref[r, None]
        at, node = np.arange(rays.size), np.zeros(rays.size, dtype=int)
        ra, rb, live = a[rays], b[rays], np.ones(rays.size, dtype=bool)
        for _ in range(_HALVINGS):
            tn, mid = t[at, node], mids[at, node]
            ra = np.where(live & (tn >= 0), mid, ra)
            rb = np.where(live & (tn <= 0), mid, rb)
            live &= tn != 0
            node = 2 * node + 1 + (tn > 0)
        a[rays], b[rays] = ra, rb
    return a, b


def _trace_zeros(label, bases, ends):
    """Zero sets of the lines ``bases`` (m, n+1, 2), 0 < m <=
    _TRACE_LINES, of the labeller ``label`` (``OracleSet.on_lines``),
    along _RAYS rays per line.

    Line i is charted by the columns (p_u, p_v) of ends[i]: p_v sits at
    0 and p_u at infinity.  Rays are labelled through ``label`` moved to
    the trace bases (p_u, p_v), so that the line forms of a chunk are
    built once.  A ray brackets a zero when its labels at log10 |z| = -8
    and 8 are nonzero and differ.  An oracle with a ``_form`` or
    ``_pieces`` proposes a bracketed ray's zero from every positive root
    in (-8, 8) of its forms' 2x2 restrictions to the ray (``_ray_forms``
    and ``_ray_zeros``), and its labels at each candidate x and at
    x -+ _FLANK decide (``_certified_zeros``): a ray keeps its one
    candidate that is a crossing, when it has exactly one and that one's
    label is 0, or its flank labels are those at -8 and 8.  The other
    bracketed rays, every one of them for an oracle with neither, bisect
    the side flip in log10 |z| from [-8, 8], each ray on its own, four
    halvings per labelling call (``_bisect``).  No labelling call exceeds
    _BLOCK rows.  Returns per line the (k, 2) CP^1 coordinates of its k
    bracketed zeros, or None when no ray brackets a flip.  Raises
    ValueError when a trace basis is not finite.
    """
    m, ang = bases.shape[0], _ANGLES
    # each line's trace basis (p_u, p_v), the transpose of ends_t @ basis_t
    traces = np.swapaxes(
        ends.transpose(0, 2, 1) @ bases.transpose(0, 2, 1), 1, 2)
    if not np.isfinite(traces).all():
        raise ValueError("coordinates must be finite")
    label = label.traced(ends, traces)
    lab_lo, lab_hi = _ray_labels(label, np.broadcast_to(
        _ENDS, (m, 2, _RAYS)), ang).transpose(1, 0, 2)
    valid = (lab_lo != 0) & (lab_hi != 0) & (lab_lo != lab_hi)
    # log10 |w| of each bracketed ray's zero
    logr = np.zeros((m, _RAYS))
    todo = valid
    forms = _ray_forms(label, traces) if np.any(valid) else None
    if forms is not None:
        kept, zero = _certified_zeros(
            label, _ray_zeros(forms, ang).reshape(m, -1, _RAYS), ang, valid,
            lab_lo, lab_hi)
        logr[kept] = zero[kept]
        todo = valid & ~kept
    line, ray = np.nonzero(todo)
    if line.size:
        a, b = _bisect(label.lines(line), np.full(line.size, -8.0),
                       np.full(line.size, 8.0), lab_lo[line, ray], ang[ray])
        logr[line, ray] = (a + b) / 2.0
    rows = np.ones((m, _RAYS, 2), dtype=complex)
    rows[..., 0] = np.power(10.0, logr) * ang
    zeros = rows @ ends.transpose(0, 2, 1)
    return [z[v] if v.any() else None for z, v in zip(zeros, valid)]


def _grid_labels(label, grid):
    # (m, len(grid)) labels of the grid rows on each of the m lines of the
    # labeller ``label``, in calls of at most _BLOCK rows, so that a
    # block's temporaries stay in cache.  Rows are labelled
    # independently, so blocks change nothing.
    out = np.empty((label.to_pts.shape[0], grid.shape[0]), dtype=np.int8)
    per = max(1, _BLOCK // out.shape[0])
    for i in range(0, grid.shape[0], per):
        out[:, i:i + per] = label(grid[i:i + per])
    return out


def _line_label(label):
    # The label that the one-line labeller ``label`` gives every unit row
    # of its line when the line form makes it certain, else 0.  A row's
    # value is v = fl(N / S), where N = sum lam_j z_j and S = sum z_j
    # over the same squares z_j >= 0, so N / S is a weighted mean of lam.
    # With fl(a op b) = (a op b)(1 + d) + e, |d| <= eps / 2 and |e| <=
    # t / 2 for t the smallest subnormal (Higham, ch. 2-3):
    # - N's 7 operations leave it within gamma_4 max|lam| S + 7 t / 2;
    # - S, a sum of 4 nonnegative terms, is within a factor gamma_3;
    # - the division adds eps / 2 relative and t / 2;
    # so to first order |v - N / S| <= 4 eps max|lam| + 4 t / S + t / 2.
    # lo is g's smallest singular value less 64 eps |g|_F, above the
    # normwise errors of the SVD and of a row's product with g: every
    # unit row has S >= lo^2 / 2, and lo^2 >= 4 _TINY keeps fl(S)
    # normal, so no row takes the point path.  kappa is twice the bound
    # above, and ``sides`` is monotone: equal labels at both ends of
    # [min lam - kappa, max lam + kappa] are every row's label.
    if label.g is None:
        return 0
    g, lam = label.g[0], label.w[0, ::2, 0]
    mx, gf = float(np.abs(lam).max()), float(np.square(g).sum())
    # 4 mx gf bounds every partial sum of N: finite, it also rules out a
    # non-finite g or lam
    if not (label.ok[0] and np.isfinite(4.0 * mx * gf)):
        return 0
    lo = np.linalg.svd(g, compute_uv=False)[-1] - 64.0 * _EPS * gf ** 0.5
    s2 = lo * lo
    if lo <= 0.0 or s2 < 4.0 * _TINY:
        return 0
    kappa = 16.0 * _EPS * mx + 16.0 * _SUB / s2 + 2.0 * _SUB
    ends = label.oracle._form[1](np.array([lam.min() - kappa,
                                           lam.max() + kappa]))
    return int(ends[0]) if ends[0] == ends[1] else 0


def _grid_tag(label, labels):
    # (tag, grid, labels) of the line of the one-line labeller ``label``:
    # the grid whose labels decide it, those labels and the line's tag,
    # or None for the tag when they show both sides.  ``labels`` are the
    # stage-1 labels; a one-sided line is labelled again on the stage-2
    # grid, unless its line form settles that grid's labels as its
    # stage-1 side.
    grid = cp1_grid(_GRID)
    lo, hi = int(labels.min()), int(labels.max())
    if lo == hi == 0:
        return ("full_line", True, ""), grid, labels
    if (lo, hi) != (-1, 1):
        grid = cp1_grid(_STAGE2)
        side = _line_label(label)
        if side != 0 and side in (lo, hi):
            return ("empty", True, ""), grid, np.full(_STAGE2, side, np.int8)
        labels, = _grid_labels(label, grid)
        lo, hi = int(labels.min()), int(labels.max())
    if (lo, hi) == (-1, 1):
        return None, grid, labels
    ons = grid[labels == 0]
    if ons.shape[0] == 0:
        return ("empty", True, ""), grid, labels
    diameter = _fs_diameter(ons)
    if diameter <= 0.2:
        return ("single_point", True, ""), grid, labels
    return ("nonconforming", True,
            f"one-sided ON set of diameter {diameter:.3f}"), grid, labels


def _traced_zeros(label, bases, ends):
    # _trace_zeros of the lines ``bases`` of the labeller ``label`` from
    # ``ends``, _TRACE_LINES lines per trace
    return [z for s in range(0, len(bases), _TRACE_LINES)
            for z in _trace_zeros(label.lines(slice(s, s + _TRACE_LINES)),
                                  bases[s:s + _TRACE_LINES],
                                  ends[s:s + _TRACE_LINES])]


def _fits(zeros):
    # (lines, zeros, forms) for each count k >= 8 of traced zeros in the
    # list ``zeros``: the indices of the lines with k zeros, their
    # (l, k, 2) zeros and the (l, 2, 2) forms fitted through them in one
    # batch, each with the bits of its own fit
    groups = {}
    for i, z in enumerate(zeros):
        if z is not None and len(z) >= 8:
            groups.setdefault(len(z), []).append(i)
    for idx in groups.values():
        z = np.stack([zeros[i] for i in idx])
        yield idx, z, _fit_hermitian_through(z)[0]


def _circle_fit(m, zeros):
    # (frame, summary) of each form of the stack m (l, 2, 2) fitted
    # through the traced zeros (l, k, 2): (its circle_frame, "") or
    # (None, why the zeros are not a circle); each frame has the bits of
    # a batch of one.  The fitted forms are Hermitian by construction.
    out = [(None, "zero set fit is not mixed-signature")] * len(m)
    mixed = np.flatnonzero(~(np.linalg.det(m).real >= 0))
    if not mixed.size:
        return out
    m = m[mixed]
    frames = _circle_frames(*_pinned_eigh(m, max_abs(m)))
    hom = np.linalg.solve(frames, zeros[mixed].transpose(0, 2, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(hom[:, 0] / hom[:, 1])
    for i, frame, residual in zip(mixed.tolist(), frames,
                                  np.max(np.abs(r - 1.0), axis=1).tolist()):
        out[i] = ((frame, "") if residual <= _CHART_RESIDUAL else
                  (None, f"circle fit residual {residual:.3e} in chart units"))
    return out


def _circle_tags(label, bases, ends):
    # result of each two-sided line of ``bases`` (m, n+1, 2) of the
    # labeller ``label``, traced from ``ends``: traced zeros, circle fits
    # in one batch per zero count, and the side rings of all fitted lines
    # in one labels call
    oracle = label.oracle
    out = [("nonconforming", True, "could not bracket the zero set")] * len(
        bases)
    frames = {}
    for idx, z, m in _fits(_traced_zeros(label, bases, ends)):
        for i, (frame, summary) in zip(idx, _circle_fit(m, z)):
            out[i] = ("nonconforming", True, summary)
            if frame is not None:
                frames[i] = frame
    fitted = sorted(frames)
    rings = [side_rings(bases[i], frames[i]) for i in fitted]
    if fitted:
        # each ring's labels all equal its first, nonzero and unlike the
        # other ring's
        sides = oracle.labels(np.concatenate(rings).reshape(
            -1, bases.shape[1])).reshape(len(fitted), 2, -1)
        inner, outer = sides[:, 0, 0], sides[:, 1, 0]
        ok = ((sides == sides[:, :, :1]).all(axis=(1, 2)) & (inner != 0)
              & (outer != 0) & (inner != outer))
        for i, good in zip(fitted, ok.tolist()):
            out[i] = ("circle", good, "")
    return out


def _tag_stream(oracle, lines):
    # (basis, result) of each line of the iterable ``lines``, in order, a
    # chunk at a time in the stages the module docstring lists
    it = iter(lines)
    while chunk := list(islice(it, _BLOCK // _GRID)):
        bases = np.array(chunk, dtype=complex)
        label = oracle.on_lines(bases)
        tags, two, ends = [], [], []
        for i, labels in enumerate(_grid_labels(label, cp1_grid(_GRID))):
            tag, grid, labels = _grid_tag(label.lines(slice(i, i + 1)), labels)
            tags.append(tag)
            if tag is None:
                # the columns (p_u, p_v) of the first U and the first V
                # grid point
                two.append(i)
                ends.append(grid[[labels.argmax(), labels.argmin()]].T)
        if two:
            for i, tag in zip(two, _circle_tags(label.lines(two), bases[two],
                                                np.array(ends))):
                tags[i] = tag
        yield from zip(bases, tags)


def oracle_line_tags(oracle, lines):
    """Shape of the oracle's ON set on each line, by membership alone.

    ``lines`` is an iterable of (n+1, 2) bases, such as an (m, n+1, 2)
    array or a generator, read in the stages the module docstring
    lists.  Returns one (tag, two_sides_ok, summary) per line, in order,
    each passed through ``oracle_line_tag``: tag is one of the four
    section names or "nonconforming"; two_sides_ok reports the
    complementary-component check for circle fits (True when not
    applicable); summary is a short text for nonconforming lines.
    """
    return [oracle_line_tag(oracle, basis, tagged=result)
            for basis, result in _tag_stream(oracle, lines)]


def oracle_line_tag(oracle, basis, tagged=None):
    """``oracle_line_tags`` for the single line ``basis`` (n+1, 2).

    ``oracle_line_tags`` passes each line's result, computed together
    with other lines, as ``tagged`` and gets it back: every tagged line
    goes through this one function, so a wrapper of it sees each line.
    """
    if tagged is None:
        (_, tagged), = _tag_stream(oracle, [basis])
    return tagged


_TALLY_KEYS = ("empty", "single_point", "circle", "full_line",
               "nonconforming")


def verify_axioms(oracle, cfg=None):
    """Monte-Carlo check of the line-section axioms for a side oracle.

    Samples cfg.n_lines random lines, classifies each ON set by
    membership queries alone, and for circles checks that the two
    complementary chart components carry strictly opposite labels.
    Violations are data in the report, never exceptions.

    A line that shows one side on its 128-point grid is decided on the
    131072-point stage-2 grid, whose spacing on the line's CP^1 is about
    0.01 rad.  A component narrower than that can fall between its
    points.  The line then reads empty where it cuts a small circle, or
    a single point when grid points fall in the oracle's ON band next to
    it; such ON points lie well within the 0.2 rad diameter of a single
    point, so a miss does not read nonconforming.
    """
    cfg = RunConfig() if cfg is None else cfg
    rng = np.random.default_rng(cfg.seed)
    # tagging draws nothing from rng, so drawing the lines as they are
    # tagged keeps the stream of drawing them all first
    results = oracle_line_tags(
        oracle, (sample_line(rng, oracle.dim).basis()
                 for _ in range(cfg.n_lines)))
    tallies = {k: 0 for k in _TALLY_KEYS}
    tags = []
    bad = []
    two_sides = 0
    for i, (tag, sides_ok, summary) in enumerate(results):
        tags.append(tag)
        tallies[tag] += 1
        if not sides_ok:
            two_sides += 1
        if tag == "nonconforming":
            bad.append({"line_index": i, "summary": summary})
    verdict = ("ConsistentWithBombon"
               if tallies["nonconforming"] == 0 and two_sides == 0
               else "Violations")
    return AxiomReport(lines_tested=cfg.n_lines, tallies=tallies,
                       two_sides_violations=two_sides,
                       nonconforming_lines=bad, verdict=verdict,
                       line_tags=tuple(tags), config=cfg.to_dict())


@dataclass
class PointStarReport:
    lines_tested: int
    circle: int
    low_confidence: int
    other: int
    verdict: str
    config: dict
    version: str = VERSION

    def to_dict(self):
        return {"version": self.version, "config": self.config,
                "lines_tested": self.lines_tested, "circle": self.circle,
                "low_confidence": self.low_confidence, "other": self.other,
                "verdict": self.verdict}


def verify_point_star(oracle, z, cfg=None):
    """Check that every sampled line through z cuts the set in a circle.

    z must be strictly off the set (a side point); raises
    PreconditionError otherwise.  When the oracle carries its exact
    quadric, lines the classifier marks as low confidence are counted
    separately instead of against the circle tally.
    """
    cfg = RunConfig() if cfg is None else cfg
    zv = z.v if isinstance(z, ProjPoint) else np.asarray(z, complex)
    if oracle.labels(zv) == 0:
        raise PreconditionError("base point lies on the set itself")
    rng = np.random.default_rng(cfg.seed)
    zp = ProjPoint(zv)
    n_low = 0

    def lines():
        nonlocal n_low
        kept = 0
        while kept + n_low < cfg.n_lines:
            w = sample_point(rng, oracle.dim)
            if zp.isclose(w, 1e-9):
                continue
            line = line_through(zp, w)
            if oracle.exact is not None:
                sec, _ = classify_line_section(oracle.exact, line,
                                               with_sides=False)
                if sec.low_confidence:
                    n_low += 1
                    continue
            kept += 1
            yield line.basis()

    tags = oracle_line_tags(oracle, lines())
    n_circle = sum(tag == "circle" for tag, _, _ in tags)
    n_other = len(tags) - n_circle
    verdict = "AllCircles" if n_other == 0 else "Violations"
    return PointStarReport(lines_tested=cfg.n_lines, circle=n_circle,
                           low_confidence=n_low, other=n_other,
                           verdict=verdict, config=cfg.to_dict())
