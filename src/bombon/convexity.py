"""Convex bodies in C^n: disk sections, minimum-volume ellipsoids,
touching points, and linear closures on the unit sphere.

Bodies are membership oracles (vectorized over batches of points) with
a known bounding radius about the origin.  Complex ellipsoids are
{x : (x - c)* H (x - c) <= 1} with H Hermitian positive definite; their
sections by complex affine lines are round disks, which the oracle line
tagger finds in the chart z0 = 1 of CP^n.  The minimum volume ellipsoid
of a finite sample is computed by a Khachiyan-style
multiplicative-weights iteration on lifted Hermitian outer products,
with away steps for fast convergence at tight duality gaps.  Each step
changes the weights of one point, so the inverse moment matrix and the
leverages follow by rank-one (Sherman-Morrison) updates; a fresh
inverse is taken only to confirm the stop or where an update would
lose digits.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateSpan, NoConvergence, NotOnSphere,
                     OracleInconsistent, ZeroVector)
from .linalg import (as_cvector, finite_nonnegative, form_values,
                     hermitian_eig, orthonormal_columns, real_form, sym)
from .oracles import (_GRID as _LINE_GRID, OracleSet, _fits, _grid_labels,
                      _grid_tag, _radii, _traced_zeros, cp1_grid)
from .projective import _unit

# sections wider than 2 * bounding_radius / _GRID hold stage-2 grid points
_GRID = 64
_MVEE_MAX_ITER = 100000
# smallest denominator 1 + (c / s) w_k of a rank-one MVEE update; below
# it V nearly loses a direction and the leverages come from a fresh inverse
_MVEE_REFRESH = 1e-3


@dataclass
class ConvexBodyOracle:
    """Membership oracle for a compact convex body in C^n.

    ``membership`` takes an (m, n) array of points and returns a boolean
    array; ``bounding_radius`` is a radius about the origin certain to
    contain the body.
    """

    membership: Callable[[np.ndarray], np.ndarray]
    bounding_radius: float
    dim: int
    description: str = ""
    # Hermitian F of a body that is {x : (1, x)* F (1, x) <= 0}, set by
    # its builder, so that its chart oracle labels lines from their 2x2
    # forms; not copied by ``dataclasses.replace``
    _chart_form: np.ndarray = field(default=None, init=False, repr=False,
                                    compare=False)
    # stack of Hermitian forms on whose zero sets in the chart z0 = 1 the
    # body's boundary lies, set by its builder for its chart oracle's
    # ``_pieces``; not copied by ``dataclasses.replace``
    _chart_pieces: np.ndarray = field(default=None, init=False, repr=False,
                                      compare=False)

    def inside(self, pts):
        arr = np.asarray(pts, dtype=complex)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        got = np.asarray(self.membership(arr), dtype=bool)
        return bool(got[0]) if single else got


def _chart_form(c, hm, r2=1.0):
    # the homogeneous form E of the ellipsoid (x - c)* H (x - c) <= r2 in
    # the chart z0 = 1: E = [[c* H c - r2, -(H c)*], [-H c, H]]
    hc = hm @ c
    return np.block([[np.vdot(c, hc).real - r2, -hc.conj()],
                     [-hc[:, None], hm]])


def ball_body(n, radius=1.0, center=None):
    """The ball of ``radius`` about ``center`` (the origin) in C^n.

    Its chart oracle labels lines from the ball's homogeneous form
    [[|c|^2 - r^2, -c*], [-c, I]], as ``ellipsoid_body``'s does, where
    r^2 is positive and the form finite.  Raises ValueError for a radius
    that is not finite and >= 0, and for a center that is not a finite
    vector of n entries.
    """
    radius = finite_nonnegative(radius, "ball radius")
    c = np.zeros(n, dtype=complex) if center is None else as_cvector(center)
    if c.size != n:
        raise ValueError(f"ball center must have {n} entries, got {c.size}")

    def member(pts):
        return np.linalg.norm(pts - c, axis=1) <= radius

    body = ConvexBodyOracle(member, radius + float(np.linalg.norm(c)), n,
                            f"ball(r={radius})")
    with np.errstate(over="ignore", invalid="ignore"):
        form = _chart_form(c, np.eye(n), radius * radius)
    if radius * radius > 0.0 and np.isfinite(form).all():
        body._chart_form = form
    return body


def ellipsoid_body(center, h):
    """The ellipsoid {x : (x - c)* H (x - c) <= 1}, H positive definite.

    Its membership reads one factored form per batch of points.  In the
    chart z0 = 1 of CP^n it is p* E p <= 0 for the homogeneous form
    E = [[c* H c - 1, -(H c)*], [-H c, H]], which is positive at
    z0 = 0, so the row at infinity is outside: the chart oracle labels
    the points of a line from the line's 2x2 restriction of E.  Raises
    ValueError for a center that is not a finite vector.
    """
    c = as_cvector(center)
    hm = sym(np.asarray(h, dtype=complex))
    sig = hermitian_eig(hm)
    if sig.n_pos != hm.shape[0]:
        raise ValueError("ellipsoid form must be positive definite")
    r = 1.0 / np.sqrt(float(sig.eigvals.min()))
    rform = real_form(hm)

    def member(pts):
        return form_values(pts - c, rform) <= 1.0

    body = ConvexBodyOracle(member, r + float(np.linalg.norm(c)), c.size,
                            "ellipsoid")
    body._chart_form = _chart_form(c, hm)
    return body


def polydisk_body(radii):
    """The polydisk {x : |x_i| <= r_i for every i} in C^n, n = len(radii).

    Its boundary lies on the Hermitian quadrics |z_i|^2 = r_i^2 |z0|^2 of
    the chart z0 = 1, which its chart oracle holds as ``_pieces``, so that
    boundary zeros are placed from their roots.  Raises ValueError unless
    ``radii`` is a nonempty 1-D list of finite radii >= 0 (the JSON body
    type "bidisk" takes any number of them).
    """
    r, pieces = _radii(radii)

    def member(pts):
        return np.all(np.abs(pts) <= r[None, :], axis=1)

    body = ConvexBodyOracle(member, float(np.linalg.norm(r)), r.size,
                            f"polydisk(r={tuple(r.tolist())})")
    body._chart_pieces = pieces
    return body


@dataclass(frozen=True)
class AffineComplexLine:
    """Parametrized complex line t -> base + t * direction in C^n.

    The direction is kept as a unit vector (``projective._unit``, gauged
    where its norm under- or overflows), even where moduli overflow.
    Raises ValueError for a base or direction that is not a finite
    vector, and for a zero direction: of largest modulus below 1e-300.
    """

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", as_cvector(self.base))
        try:
            d = _unit(as_cvector(self.direction))
        except ZeroVector:
            raise ValueError("line direction must be nonzero") from None
        object.__setattr__(self, "direction", d)

    def at(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=complex))
        return self.base[None, :] + t[:, None] * self.direction[None, :]


class DiskTag(enum.Enum):
    EMPTY = "empty"
    POINT = "point"
    DISK = "disk"
    NOT_A_DISK = "not_a_disk"


@dataclass
class DiskVerdict:
    tag: DiskTag
    center: complex = 0.0
    radius: float = 0.0
    deviation: float = 0.0


def _inside(vals):
    # chart labels of the values p* F p / |p|^2 of a body's chart form:
    # 1 where vals <= 0, else -1, by int8 arithmetic, which takes half
    # the time of np.where on a stage-2 block
    out = (vals > 0.0).view(np.int8) * np.int8(-2)
    out += 1
    return out


def _chart_oracle(body):
    # the body on CP^n in the chart z0 = 1: +1 inside, -1 outside or at
    # z0 = 0; the (n, m) product loops along rows, not coordinates
    def side(pts):
        far = pts[:, 0] == 0
        aff = np.empty((pts.shape[1] - 1, pts.shape[0]), dtype=complex)
        np.multiply(pts[:, 1:].T, 1.0 / np.where(far, 1.0, pts[:, 0]), out=aff)
        return np.where(body.inside(aff.T) & ~far, np.int8(1), np.int8(-1))

    oracle = OracleSet(side, f"chart({body.description})", body.dim)
    if body._chart_form is not None:
        oracle._form = (body._chart_form, _inside)
    oracle._pieces = body._chart_pieces
    return oracle


def disk_sections(body, lines, tol=1e-3, rng=None):
    """``disk_section_test`` of each of ``lines`` through ``body``; the
    lines share one labeller and are traced together, spot-check pairs
    drawn in line order."""
    tol = finite_nonnegative(tol, "tol")
    rng = np.random.default_rng(0) if rng is None else rng
    big_r = body.bounding_radius
    oracle = _chart_oracle(body)
    out, near, bases = [], [], []
    for line in lines:
        out.append(DiskVerdict(DiskTag.EMPTY))
        t0 = -complex(np.vdot(line.direction, line.base))
        p = line.base + t0 * line.direction
        dmin = float(np.linalg.norm(p))
        if dmin > big_r:
            continue
        chord = float(np.sqrt(big_r ** 2 - dmin ** 2)) + 1e-12
        near.append((len(out) - 1, line, t0, chord))
        bases.append(np.column_stack([np.append(1.0, p),
                                      np.append(0.0, chord * line.direction)]))
    if not near:
        return out
    bases = np.array(bases)
    label = oracle.on_lines(bases)
    todo, two, ends = [], [], []
    for j, (i, line, t0, chord) in enumerate(near):
        one = label.lines(slice(j, j + 1))
        labels, = _grid_labels(one, cp1_grid(_LINE_GRID))
        _, grid, labels = _grid_tag(one, labels)
        inside = labels == 1
        if not np.any(inside):
            continue
        ws = grid[inside, 1] / grid[inside, 0]
        wc = np.mean(ws)
        ia, ib = rng.integers(0, ws.size, size=(2, min(40, ws.size)))
        if not np.all(body.inside(line.at(
                t0 + chord * np.append((ws[ia] + ws[ib]) / 2.0, wc)))):
            raise OracleInconsistent("a midpoint or the centroid of member "
                                     "points left the body")
        if not np.all(inside):
            todo.append((i, t0, chord))
            two.append(j)
            # trace columns (p_u, p_v): the centroid and the point at
            # infinity, so that the rays run straight out of the centroid
            ends.append(np.array([[1.0, 0.0], [wc, 1.0]]))
        elif 2.0 * chord <= tol * big_r:
            out[i] = DiskVerdict(DiskTag.POINT, center=t0)
        else:
            raise OracleInconsistent("member points outside the bounding ball")
    fits = {}
    for idx, z, m in _fits(_traced_zeros(label.lines(two), bases[two],
                                         np.array(ends))):
        fits.update(zip(idx, zip(m, z, np.linalg.det(m).real.tolist())))
    for k, (i, t0, chord) in enumerate(todo):
        m, z, det = fits.get(k, (None, None, 0.0))
        if det >= 0 or m[1, 1] == 0:
            raise OracleInconsistent("section boundary fits no circle")
        center = t0 + chord * complex(-m[1, 0] / m[1, 1])
        radius = chord * float(np.sqrt(-det)) / abs(m[1, 1])
        ts = t0 + chord * (z[:, 1] / z[:, 0])
        rel = float(np.max(np.abs(np.abs(ts - center) - radius))) / radius
        tag = (DiskTag.POINT if 2.0 * radius <= tol * big_r else
               DiskTag.DISK if rel <= tol else DiskTag.NOT_A_DISK)
        out[i] = DiskVerdict(tag, center, radius, rel)
    return out


def disk_section_test(body, line, tol=1e-3, rng=None):
    """Decide whether a convex body cuts the complex line in a disk.

    The oracle line tagger labels the body on the line's CP^1, charted
    so that the bounding-ball chord about the point t0 nearest the
    origin is the unit disk, and traces the section's boundary.  The
    circle fitted through it gives center, radius and deviation
    max | |t - center| - radius | / radius.  Point when 2 * radius (or,
    inside at every grid point, 2 * chord) <= tol * bounding_radius,
    else Disk when deviation <= ``tol``, else NotADisk; Empty when no
    grid point is inside.  The boundary is sampled along 64 rays out of
    the centroid of the member grid points, so a narrow lens cap can
    fall between rays.  At tol 1e-3, on 1000 seeded lenses of the unit
    bidisk cut by random lines, every lens whose small disk pokes out
    of the other by more than 2 tol of its radius read NotADisk, and
    the worst lens that read Disk poked out 1.5e-3; a lens of two
    nearly equal disks is rounder than its protrusion says, and reads
    Disk when it lies within tol of a circle.
    Raises OracleInconsistent when a midpoint or
    the centroid of member points (pairs drawn from ``rng``) is outside,
    the whole grid is inside a long chord, or the boundary fits no
    circle, and ValueError for a negative or non-finite tol.
    """
    return disk_sections(body, [line], tol, rng)[0]


@dataclass
class ComplexEllipsoid:
    """Ellipsoid {x : (x - center)* h (x - center) <= 1} in C^n."""

    center: np.ndarray
    h: np.ndarray
    eps: float = 0.0
    gap_history: tuple = field(default_factory=tuple)
    iterations: int = 0
    weights: Optional[np.ndarray] = None

    def gauge(self, pts):
        d = np.asarray(pts, dtype=complex) - self.center
        if d.ndim == 1:
            return float(np.real(np.vdot(d, self.h @ d)))
        # few points per call: building real_form(h) would cost more
        return np.real(np.einsum("ij,jk,ik->i", d.conj(), self.h, d))


def _leverages(lifted, lconj, u):
    # (V^-1, leverages x_i* V^-1 x_i) of the weights u, from a fresh
    # inverse of V = sum u_i x_i x_i*; V^-1 changes with u and m is
    # small, so real_form would cost more than the einsum
    vinv = np.linalg.inv((lifted.T * u) @ lconj)
    return vinv, np.real(np.einsum("ij,jk,ik->i", lconj, vinv, lifted))


def mvee_complex(points, eps=1e-6):
    """Minimum-volume enclosing complex ellipsoid of a finite sample.

    Khachiyan multiplicative-weights iteration on the lifted vectors
    x_i = [p_i; 1], with Wolfe-Atwood away steps.  Terminates when the
    largest leverage kappa = max x_i* V^-1 x_i, V = sum u_i x_i x_i*,
    satisfies kappa <= (n + 1) + n * eps, which bounds the D-optimality
    duality gap by eps and guarantees every input point has gauge at
    most 1 + eps.

    Each step moves the weights to s u + c e_k (then clips and
    renormalizes them), which changes V by a rank-one term, so V^-1 and
    the leverages follow by Sherman-Morrison updates in O(m n) with no
    inverse (Todd & Yildirim, Discrete Appl. Math. 155, 2007).  A fresh
    inverse recomputes them when the updated leverages meet the target,
    and when an update's denominator 1 + (c / s) w_k falls below
    _MVEE_REFRESH; only a fresh kappa ends the loop.
    ``gap_history[k]`` is the smallest duality gap kappa / (n+1) - 1
    seen within the first k+1 iterations, so the recorded sequence is
    nonincreasing by construction; the kappa of an iteration is read from
    updated leverages, except on the first iteration, on the last and
    after a refresh, where it comes from a fresh inverse.

    Raises ValueError for a negative or non-finite eps, which no
    ellipsoid can meet, DegenerateSpan when the points fail to affinely
    span C^n and NoConvergence if the iteration budget runs out.
    """
    eps = finite_nonnegative(eps, "eps")
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (m, n) array")
    m, n = pts.shape
    centered = (pts[1:] - pts[0]).T if m > 1 else np.zeros((n, 0), complex)
    if m < n + 1 or orthonormal_columns(centered).shape[1] < n:
        raise DegenerateSpan("points must affinely span C^n")
    lifted = np.hstack([pts, np.ones((m, 1), dtype=complex)])
    lconj = lifted.conj()
    nn = n + 1
    u = np.full(m, 1.0 / m)
    target = nn + n * eps
    gaps = []
    best_gap = math.inf
    vinv, w = _leverages(lifted, lconj, u)
    fresh = True
    it = 0
    for it in range(_MVEE_MAX_ITER):
        j = int(w.argmax())
        kappa = float(w[j])
        if kappa <= target and not fresh:
            vinv, w = _leverages(lifted, lconj, u)
            j = int(w.argmax())
            kappa = float(w[j])
        gap = kappa / nn - 1.0
        best_gap = min(best_gap, gap)
        gaps.append(best_gap)
        if kappa <= target:
            break
        alpha = (kappa - nn) / (nn * (kappa - 1.0))
        gain_fw = (nn * math.log1p(-alpha)
                   + math.log1p(alpha / (1.0 - alpha) * kappa))
        i = int(np.where(u > 1e-15, w, np.inf).argmin())
        wi, ui = float(w[i]), float(u[i])
        gain_aw = -math.inf
        beta = 0.0
        if wi < nn and wi > 1.0 + 1e-14 and ui < 1.0:
            beta_star = (nn - wi) / (nn * (wi - 1.0))
            beta = min(beta_star, ui / (1.0 - ui))
            if beta > 0:
                gain_aw = (nn * math.log1p(beta)
                           + math.log1p(-beta * wi / (1.0 + beta)))
        # u <- s u + c e_k: an away step from i or a toward step to j
        k, s, c = (i, 1.0 + beta, -beta) if gain_aw > gain_fw else (
            j, 1.0 - alpha, alpha)
        u = s * u
        u[k] += c
        np.maximum(u, 0.0, out=u)
        total = float(u.sum())
        u /= total
        # the new V is (s V + c x_k x_k*) / total: with y = V^-1 x_k,
        # z = X* y and d = 1 + (c / s) z_k, V^-1 becomes
        # (total / s) (V^-1 - (c / s) y y* / d), and w likewise
        y = vinv @ lifted[k]
        z = lconj @ y
        d = 1.0 + c / s * float(z[k].real)
        fresh = d < _MVEE_REFRESH
        if fresh:
            vinv, w = _leverages(lifted, lconj, u)
        else:
            scale = total / s
            drop = scale * c / (s * d)
            w = scale * w - drop * np.square(np.abs(z))
            vinv = scale * vinv - drop * (y[:, None] * y.conj())
    else:
        raise NoConvergence(f"MVEE did not reach gap {eps:.1e} in "
                            f"{_MVEE_MAX_ITER} iterations")
    center = u @ pts
    spread = sym((pts.T * u) @ pts.conj() - np.outer(center, center.conj()))
    h = sym(np.linalg.inv(spread)) / n
    return ComplexEllipsoid(center=center, h=h, eps=eps,
                            gap_history=tuple(gaps), iterations=it + 1,
                            weights=u)


def john_touchpoint_check(points, ell):
    """True when the touching points of the ellipsoid span C^n affinely.

    Touching means gauge >= 1 - 10 * eps, with eps the ellipsoid's gap
    target (1e-6 when that is 0).  For a genuine minimum-volume
    ellipsoid of the sample this must hold; a failure certifies the
    ellipsoid is not minimal (or the sample is degenerate).
    """
    pts = np.asarray(points, dtype=complex)
    e = ell.eps or 1e-6
    vals = ell.gauge(pts)
    touch = pts[vals >= 1.0 - 10.0 * e]
    if touch.shape[0] == 0:
        return False
    centered = (touch - ell.center).T
    return orthonormal_columns(centered).shape[1] == pts.shape[1]


@dataclass
class AffineSubspace:
    """Complex affine subspace base + span(directions) of C^n."""

    base: np.ndarray
    directions: np.ndarray

    @property
    def dim(self):
        return self.directions.shape[1]

    def project(self, pts):
        d = np.asarray(pts, dtype=complex) - self.base
        if d.ndim == 1:
            return self.base + self.directions @ (self.directions.conj().T @ d)
        coef = d @ np.conj(self.directions)
        return self.base[None, :] + coef @ self.directions.T

    def contains(self, pt, tol=1e-9):
        p = np.asarray(pt, dtype=complex)
        return float(np.linalg.norm(p - self.project(p))) <= tol

    def sphere_center_radius(self):
        """Center and radius of the unit-sphere section of the subspace."""
        c = self.base - self.directions @ (self.directions.conj().T @ self.base)
        r2 = 1.0 - float(np.linalg.norm(c)) ** 2
        return c, float(np.sqrt(max(r2, 0.0)))


def linear_closure(points):
    """Complex affine hull of points on the unit sphere S^{2n-1}.

    The closure of the family under abstract lines (circles cut by
    complex affine lines) is the sphere section of this hull.  Raises
    NotOnSphere when an input is off the sphere by more than 1e-9.
    """
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (m, n) array")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise NotOnSphere("linear closure is defined for unit vectors")
    base = pts[0]
    dirs = orthonormal_columns((pts[1:] - base).T, rtol=1e-9) if pts.shape[0] > 1 \
        else np.zeros((pts.shape[1], 0), dtype=complex)
    return AffineSubspace(base=base, directions=dirs)


def abstract_line_points(x, y, k=16):
    """Points of the circle cut by the complex line through x and y
    on the unit sphere; x and y must be distinct unit vectors."""
    a = np.asarray(y, complex) - np.asarray(x, complex)
    na2 = float(np.linalg.norm(a)) ** 2
    if na2 == 0:
        raise ValueError("need two distinct points")
    s = complex(np.vdot(x, a)) / na2
    centre = -np.conj(s)
    radius = abs(s)
    ts = centre + radius * np.exp(2j * np.pi * np.arange(k) / k)
    return np.asarray(x, complex)[None, :] + ts[:, None] * a[None, :]
