"""Brute-force line oracles and the Monte-Carlo axiom verifier.

Everything here judges a set by sampling, never by the signature
classifier: values of the Hermitian form on a spherical grid of a line
(grid_line_tag), or side labels of an arbitrary membership oracle
(verify_axioms).  The two views are compared against the exact
classifier by the regression suite.

The verifier labels each line on a 128-point grid first; a line that
shows only one side there is labelled again on the 131072-point
stage-2 grid, in blocks of 4096 rows so that each block's temporaries
stay in cache.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .linalg import form_values, max_abs, real_form, sq_norms, zero_tol
from .moebius import GenCircle, _fit_hermitian_through
from .projective import sample_line
from .sections import SectionTag
from .version import VERSION

_GOLDEN = (1.0 + 5.0 ** 0.5) / 2.0
_STAGE2 = 131072
# Rows per block when labelling a grid: big enough to amortize the
# per-call cost, small enough that a block's temporaries stay in cache.
_BLOCK = 4096
_angle_cache = {}
_grid_cache = {}


def fib_angles(k):
    """Colatitude/longitude pairs of a k-point Fibonacci sphere grid."""
    if k not in _angle_cache:
        i = np.arange(k)
        theta = np.arccos(1.0 - 2.0 * (i + 0.5) / k)
        phi = 2.0 * np.pi * i / _GOLDEN
        _angle_cache[k] = (theta, phi)
    return _angle_cache[k]


def spinor(theta, phi):
    """CP^1 representatives [cos(t/2) : sin(t/2) e^{i p}] of sphere angles."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack([np.cos(theta / 2.0) * np.ones_like(phi),
                     np.sin(theta / 2.0) * np.exp(1j * phi)], axis=-1)


def cp1_grid(k):
    """The k-point Fibonacci grid of CP^1 as a (k, 2) spinor array.

    Built on first use and cached per k; the array is read-only and
    shared by every caller, so copy it before writing.
    """
    if k not in _grid_cache:
        grid = spinor(*fib_angles(k))
        grid.flags.writeable = False
        _grid_cache[k] = grid
    return _grid_cache[k]


def _line_values(rform, basis, spinors):
    # form values at the unit points of the line, normalized once
    pts = np.asarray(spinors, dtype=complex) @ basis.T
    return form_values(pts, rform) / sq_norms(pts)


def grid_line_tag(a, basis, k=128):
    """Classify a line section by brute force on a k-point grid.

    Uses only values of the form at points of the line's CP^1, never
    eigenvalues: both signs on the raw grid means Circle, everything
    flat means FullLine.  Otherwise pattern searches ascend to the
    largest and descend to the smallest value; the restricted value
    function has no extrema besides its global pair, so the searches
    recover the exact range and with it circles far too small for the
    coarse grid, semidefinite contact points and definite emptiness.
    """
    a = np.asarray(a, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    scale = max(1.0, max_abs(a))
    sign_tol = 1e-6 * scale
    flat_tol = 1e-12 * scale
    ztol = 1e-10 * scale

    rform = real_form(a)
    theta, phi = fib_angles(k)
    vals = _line_values(rform, basis, cp1_grid(k))
    if float(np.max(np.abs(vals))) <= flat_tol:
        return SectionTag.FULL_LINE
    if np.any(vals > sign_tol) and np.any(vals < -sign_tol):
        return SectionTag.CIRCLE

    # signed pattern searches: rows 0-1 maximize the value, rows 2-3
    # minimize it, each from its two best grid seeds
    order = np.argsort(vals)
    idx = np.concatenate([order[-2:], order[:2]])
    sgn = np.array([1.0, 1.0, -1.0, -1.0])
    th = theta[idx].copy()
    ph = phi[idx].copy()
    best = sgn * vals[idx]
    step = np.full(th.size, 0.35)
    off = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for _ in range(80):
        if float(np.max(step)) < 1e-9:
            break
        tt = th[:, None, None] + step[:, None, None] * off[None, :, None]
        pp = ph[:, None, None] + step[:, None, None] * off[None, None, :]
        v = sgn[:, None, None] * _line_values(rform, basis, spinor(tt, pp))
        flat = v.reshape(th.size, -1)
        j = np.argmax(flat, axis=1)
        vbest = flat[np.arange(th.size), j]
        improved = vbest > best + 1e-14 * scale
        jt, jp = np.unravel_index(j, (off.size, off.size))
        th = np.where(improved, th + step * off[jt], th)
        ph = np.where(improved, ph + step * off[jp], ph)
        best = np.maximum(best, vbest)
        step = np.where(improved, step, 0.5 * step)
        if np.max(best[:2]) > sign_tol and np.max(best[2:]) > sign_tol:
            return SectionTag.CIRCLE

    vmax = float(np.max(best[:2]))
    vmin = float(-np.max(best[2:]))
    pos = vmax > ztol
    neg = vmin < -ztol
    if pos and neg:
        return SectionTag.CIRCLE
    if not pos and not neg:
        return SectionTag.FULL_LINE
    if pos:
        return SectionTag.EMPTY if vmin > ztol else SectionTag.SINGLE_POINT
    return SectionTag.EMPTY if vmax < -ztol else SectionTag.SINGLE_POINT


@dataclass
class OracleSet:
    """Membership-side oracle on CP^dim.

    ``side`` maps a batch (m, dim+1) of homogeneous vectors, which need
    not be unit vectors, to labels +1 (component U), 0 (on the set,
    within the oracle's own band) and -1 (component V); each row's label
    must not depend on the other rows of the batch.  ``exact``
    optionally carries the quadric the oracle was built from; the
    verifier never consults it for classification, only for
    LowConfidence bookkeeping.
    """

    side: Callable[[np.ndarray], np.ndarray]
    description: str
    dim: int
    band: float = 0.0
    exact: object = None

    def labels(self, pts):
        arr = np.asarray(pts, dtype=complex)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        out = np.asarray(self.side(arr), dtype=int)
        return int(out[0]) if single else out


def oracle_from_quadric(x):
    """Side oracle of an algebraic bombon, banded by its zero tolerance."""
    thr = zero_tol(x.a, x.tol)
    rform = real_form(x.a)

    def side(pts):
        vals = form_values(pts, rform) / sq_norms(pts)
        return np.where(np.abs(vals) <= thr, 0, np.sign(vals)).astype(int)

    return OracleSet(side=side, description=f"quadric(n={x.n})", dim=x.n,
                     band=thr, exact=x)


def bidisk_oracle(radii=(1.0, 1.0), band=1e-9):
    """Boundary of the closed bidisk in the affine chart z0 = 1 of CP^2.

    Inside (both coordinates strictly under their radius) is labeled U,
    outside V.  Its line sections are lens-shaped curves, so the axiom
    verifier must report violations on it.
    """
    r1, r2 = float(radii[0]), float(radii[1])

    def side(pts):
        pts = np.asarray(pts, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.maximum(np.abs(pts[:, 1]) / r1, np.abs(pts[:, 2]) / r2)
            g = np.where(np.abs(pts[:, 0]) == 0, np.inf,
                         g / np.abs(pts[:, 0]))
        out = np.where(g < 1.0, 1, -1)
        return np.where(np.abs(g - 1.0) <= band, 0, out).astype(int)

    return OracleSet(side=side, description=f"bidisk(r=({r1}, {r2}))", dim=2,
                     band=band)


@dataclass
class RunConfig:
    """Explicit knobs of a verification run; reports embed the config."""

    seed: int = 7
    n_lines: int = 200
    tolerances: dict = field(default_factory=lambda: {
        "zero": 1e-9, "grid": 1e-6, "chart_residual": 1e-4})
    output_format: str = "json"

    def to_dict(self):
        return {"seed": int(self.seed), "n_lines": int(self.n_lines),
                "tolerances": {k: self.tolerances[k]
                               for k in sorted(self.tolerances)},
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
    u = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    g = np.abs(u @ u.conj().T)
    return float(np.max(np.arccos(np.clip(g, 0.0, 1.0))))


def _trace_zeros(oracle, basis, p_u, p_v, n_rays=64, iters=60):
    """Chart: p_v at 0, p_u at infinity; bisect side flips along rays."""
    p = np.column_stack([np.asarray(p_u, complex), np.asarray(p_v, complex)])
    try:
        g = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        return None, None
    ang = np.exp(2j * np.pi * np.arange(n_rays) / n_rays)

    def lab(logr):
        w = np.power(10.0, logr) * ang
        sp = np.column_stack([w, np.ones_like(w)]) @ p.T
        return oracle.labels(sp @ basis.T)

    lo = np.full(n_rays, -8.0)
    hi = np.full(n_rays, 8.0)
    lab_lo = lab(lo)
    lab_hi = lab(hi)
    valid = (lab_lo != 0) & (lab_hi != 0) & (lab_lo != lab_hi)
    if not np.any(valid):
        return None, p
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        lm = lab(mid)
        on = lm == 0
        take_lo = (lm == lab_lo) & ~on
        lo = np.where(valid & (take_lo | on), mid, lo)
        hi = np.where(valid & (~take_lo | on), mid, hi)
    w = np.power(10.0, (lo + hi) / 2.0) * ang
    zeros = np.column_stack([w[valid], np.ones(int(valid.sum()))]) @ p.T
    return zeros, p


def _ring_labels(oracle, basis, chart_inv, radius, k=16):
    w = radius * np.exp(2j * np.pi * np.arange(k) / k)
    hom = np.column_stack([w, np.ones_like(w)])
    sp = hom @ chart_inv.m.T
    return oracle.labels(sp @ basis.T)


def _grid_labels(oracle, grid, basis):
    # Oracle labels of the line points grid @ basis.T, one row block at
    # a time; rows are labelled independently, so blocks change nothing.
    return np.concatenate([oracle.labels(grid[i:i + _BLOCK] @ basis.T)
                           for i in range(0, grid.shape[0], _BLOCK)])


def oracle_line_tag(oracle, basis, chart_residual=1e-4):
    """Shape of the oracle's ON set on one line, by membership alone.

    Returns (tag, two_sides_ok, summary): tag is one of the four
    section names or "nonconforming"; two_sides_ok reports the
    complementary-component check for circle fits (True when not
    applicable); summary is a short text for nonconforming lines.
    """
    basis = np.asarray(basis, dtype=complex)
    grid = cp1_grid(128)
    labels = _grid_labels(oracle, grid, basis)
    if bool(np.all(labels == 0)):
        return "full_line", True, ""
    has_u = bool(np.any(labels == 1))
    has_v = bool(np.any(labels == -1))

    if not (has_u and has_v):
        grid = cp1_grid(_STAGE2)
        labels = _grid_labels(oracle, grid, basis)
        has_u = bool(np.any(labels == 1))
        has_v = bool(np.any(labels == -1))

    if not (has_u and has_v):
        ons = grid[labels == 0]
        if ons.shape[0] == 0:
            return "empty", True, ""
        if _fs_diameter(ons) <= 0.2:
            return "single_point", True, ""
        return "nonconforming", True, (
            f"one-sided ON set of diameter {_fs_diameter(ons):.3f}")

    p_u = grid[int(np.argmax(labels == 1))]
    p_v = grid[int(np.argmax(labels == -1))]
    zeros, _ = _trace_zeros(oracle, basis, p_u, p_v)
    if zeros is None or zeros.shape[0] < 8:
        return "nonconforming", True, "could not bracket the zero set"
    m, _ = _fit_hermitian_through(zeros)
    if np.linalg.det(m).real >= 0:
        return "nonconforming", True, "zero set fit is not mixed-signature"
    circ = GenCircle(m)
    chart = circ.to_unit_chart()
    hom = zeros @ chart.m.T
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.abs(hom[:, 0] / hom[:, 1])
    residual = float(np.max(np.abs(r - 1.0)))
    if not np.isfinite(residual) or residual > chart_residual:
        return "nonconforming", True, (
            f"circle fit residual {residual:.3e} in chart units")
    inv = chart.inverse()
    inner = _ring_labels(oracle, basis, inv, 0.5)
    outer = _ring_labels(oracle, basis, inv, 2.0)
    ok = (np.all(inner == inner[0]) and np.all(outer == outer[0])
          and inner[0] != 0 and outer[0] != 0 and inner[0] != outer[0])
    return "circle", bool(ok), ""


_TALLY_KEYS = ("empty", "single_point", "circle", "full_line",
               "nonconforming")


def verify_axioms(oracle, cfg=None):
    """Monte-Carlo check of the line-section axioms for a side oracle.

    Samples cfg.n_lines random lines, classifies each ON set by
    membership queries alone, and for circles checks that the two
    complementary chart components carry strictly opposite labels.
    Violations are data in the report, never exceptions.
    """
    cfg = RunConfig() if cfg is None else cfg
    rng = np.random.default_rng(cfg.seed)
    chart_residual = float(cfg.tolerances.get("chart_residual", 1e-4))
    tallies = {k: 0 for k in _TALLY_KEYS}
    tags = []
    bad = []
    two_sides = 0
    for i in range(cfg.n_lines):
        line = sample_line(rng, oracle.dim)
        tag, sides_ok, summary = oracle_line_tag(oracle, line.basis(),
                                                 chart_residual)
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
    from .projective import ProjPoint, line_through, sample_point
    from .sections import classify_line_section

    cfg = RunConfig() if cfg is None else cfg
    zv = z.v if isinstance(z, ProjPoint) else np.asarray(z, complex)
    if oracle.labels(zv) == 0:
        raise PreconditionError("base point lies on the set itself")
    rng = np.random.default_rng(cfg.seed)
    zp = ProjPoint(zv)
    n_circle = n_low = n_other = 0
    done = 0
    while done < cfg.n_lines:
        w = sample_point(rng, oracle.dim)
        if zp.isclose(w, 1e-9):
            continue
        line = line_through(zp, w)
        done += 1
        if oracle.exact is not None:
            sec, _ = classify_line_section(oracle.exact, line,
                                           with_sides=False)
            if sec.low_confidence:
                n_low += 1
                continue
        tag, _, _ = oracle_line_tag(
            oracle, line.basis(),
            float(cfg.tolerances.get("chart_residual", 1e-4)))
        if tag == "circle":
            n_circle += 1
        else:
            n_other += 1
    verdict = "AllCircles" if n_other == 0 else "Violations"
    return PointStarReport(lines_tested=cfg.n_lines, circle=n_circle,
                           low_confidence=n_low, other=n_other,
                           verdict=verdict, config=cfg.to_dict())
