"""Convex bodies in C^n: disk sections, minimum-volume ellipsoids,
touching points, and linear closures on the unit sphere.

Bodies are membership oracles (vectorized over batches of points) with
a known bounding radius about the origin.  Complex ellipsoids are
{x : (x - c)* H (x - c) <= 1} with H Hermitian positive definite; their
sections by complex affine lines are round disks, and the minimum
volume ellipsoid of a finite sample is computed by a Khachiyan-style
multiplicative-weights iteration on lifted Hermitian outer products,
with away steps for fast convergence at tight duality gaps.
"""

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateSpan, NoConvergence, NotOnSphere,
                     OracleInconsistent)
from .linalg import (finite_nonnegative, form_values, hermitian_eig,
                     orthonormal_columns, real_form, sym)

_GRID = 64
_RAYS = 256
_BISECT_ITERS = 60
_MVEE_MAX_ITER = 100000


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

    def inside(self, pts):
        arr = np.asarray(pts, dtype=complex)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        got = np.asarray(self.membership(arr), dtype=bool)
        return bool(got[0]) if single else got


def ball_body(n, radius=1.0, center=None):
    c = np.zeros(n, dtype=complex) if center is None else np.asarray(center, complex)

    def member(pts):
        return np.linalg.norm(pts - c, axis=1) <= radius

    return ConvexBodyOracle(member, radius + float(np.linalg.norm(c)), n,
                            f"ball(r={radius})")


def ellipsoid_body(center, h):
    c = np.asarray(center, dtype=complex)
    hm = sym(np.asarray(h, dtype=complex))
    sig = hermitian_eig(hm)
    if sig.n_pos != hm.shape[0]:
        raise ValueError("ellipsoid form must be positive definite")
    r = 1.0 / np.sqrt(float(sig.eigvals.min()))
    rform = real_form(hm)

    def member(pts):
        return form_values(pts - c, rform) <= 1.0

    return ConvexBodyOracle(member, r + float(np.linalg.norm(c)), c.size,
                            "ellipsoid")


def polydisk_body(radii):
    r = np.asarray(radii, dtype=float)

    def member(pts):
        return np.all(np.abs(pts) <= r[None, :], axis=1)

    return ConvexBodyOracle(member, float(np.linalg.norm(r)), r.size,
                            f"polydisk(r={tuple(r.tolist())})")


@dataclass(frozen=True)
class AffineComplexLine:
    """Parametrized complex line t -> base + t * direction in C^n."""

    base: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, complex))
        d = np.asarray(self.direction, complex)
        nd = np.linalg.norm(d)
        if nd == 0:
            raise ValueError("line direction must be nonzero")
        object.__setattr__(self, "direction", d / nd)

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


def _fit_circle_2d(zs):
    # Kasa least-squares circle through planar points given as complex.
    a = np.column_stack([2.0 * zs.real, 2.0 * zs.imag, np.ones(zs.size)])
    rhs = np.abs(zs) ** 2
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    center = complex(sol[0], sol[1])
    r2 = sol[2] + abs(center) ** 2
    radius = float(np.sqrt(max(r2, 0.0)))
    return center, radius


def disk_section_test(body, line, tol=1e-3, rng=None):
    """Decide whether a convex body cuts the complex line in a disk.

    The planar section is located by a membership grid over the chord
    allowed by the bounding ball, its boundary is traced by bisection
    along rays from an interior point, and a least-squares circle fit
    decides Disk versus NotADisk at relative tolerance ``tol``.  Returns
    Empty when no section point is found (sections thinner than the
    grid pitch are invisible) and Point when the boundary extent stays
    below tol * bounding_radius.  Convexity of the oracle is spot
    checked on midpoints; violations raise OracleInconsistent.  A
    negative or non-finite tol raises ValueError.
    """
    tol = finite_nonnegative(tol, "tol")
    rng = np.random.default_rng(0) if rng is None else rng
    t0 = -complex(np.vdot(line.direction, line.base))
    dmin = float(np.linalg.norm(line.base + t0 * line.direction))
    big_r = body.bounding_radius
    if dmin > big_r:
        return DiskVerdict(DiskTag.EMPTY)
    chord = float(np.sqrt(max(big_r ** 2 - dmin ** 2, 0.0))) + 1e-12

    def inside_t(ts):
        return body.inside(line.at(np.asarray(ts, dtype=complex)))

    hits = np.zeros(0, dtype=complex)
    for npts in (_GRID, _GRID * 4):
        ax = np.linspace(-chord, chord, npts)
        re, im = np.meshgrid(ax, ax)
        ts = t0 + (re + 1j * im).ravel()
        mask = inside_t(ts)
        hits = ts[mask]
        if hits.size:
            break
    if hits.size == 0:
        return DiskVerdict(DiskTag.EMPTY)

    if hits.size >= 2:
        k = min(40, hits.size)
        ia = rng.integers(0, hits.size, size=k)
        ib = rng.integers(0, hits.size, size=k)
        mids = (hits[ia] + hits[ib]) / 2.0
        if not np.all(inside_t(mids)):
            raise OracleInconsistent("midpoint of member points left the body")

    t_in = complex(np.mean(hits))
    if not inside_t([t_in])[0]:
        raise OracleInconsistent("centroid of member points left the body")

    angles = np.exp(2j * np.pi * np.arange(_RAYS) / _RAYS)
    lo = np.zeros(_RAYS)
    hi = np.full(_RAYS, 2.0 * (big_r + abs(t_in) + 1.0))
    for _ in range(_BISECT_ITERS):
        mid = (lo + hi) / 2.0
        ok = inside_t(t_in + mid * angles)
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    boundary = t_in + lo * angles

    diffs = boundary[:, None] - boundary[None, :]
    extent = float(np.max(np.abs(diffs)))
    if extent <= tol * big_r:
        return DiskVerdict(DiskTag.POINT, center=complex(np.mean(boundary)))

    center, radius = _fit_circle_2d(boundary)
    deviation = float(np.max(np.abs(np.abs(boundary - center) - radius)))
    rel = deviation / max(radius, 1e-300)
    if rel <= tol:
        return DiskVerdict(DiskTag.DISK, center=center, radius=radius,
                           deviation=rel)
    return DiskVerdict(DiskTag.NOT_A_DISK, center=center, radius=radius,
                       deviation=rel)


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


def mvee_complex(points, eps=1e-6):
    """Minimum-volume enclosing complex ellipsoid of a finite sample.

    Khachiyan multiplicative-weights iteration on the lifted vectors
    [x; 1], with Wolfe-Atwood away steps.  Terminates when the largest
    leverage satisfies kappa <= (n + 1) + n * eps, which bounds the
    D-optimality duality gap by eps and guarantees every input point has
    gauge at most 1 + eps.  ``gap_history[k]`` is the smallest duality
    gap kappa / (n+1) - 1 certified within the first k+1 iterations, so
    the recorded sequence is nonincreasing by construction.

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
    nn = n + 1
    u = np.full(m, 1.0 / m)
    target = nn + n * eps
    gaps = []
    best_gap = np.inf
    it = 0
    for it in range(_MVEE_MAX_ITER):
        v = (lifted.T * u) @ lifted.conj()
        vinv = np.linalg.inv(v)
        # vinv changes every iteration and m is small: real_form costs more
        w = np.real(np.einsum("ij,jk,ik->i", lifted.conj(), vinv, lifted))
        kappa = float(np.max(w))
        gap = kappa / nn - 1.0
        best_gap = min(best_gap, gap)
        gaps.append(best_gap)
        if kappa <= target:
            break
        j = int(np.argmax(w))
        alpha = (kappa - nn) / (nn * (kappa - 1.0))
        gain_fw = nn * np.log1p(-alpha) + np.log1p(alpha / (1.0 - alpha) * kappa)
        support = np.where(u > 1e-15)[0]
        i = support[int(np.argmin(w[support]))]
        wi = float(w[i])
        gain_aw = -np.inf
        beta = 0.0
        if wi < nn and wi > 1.0 + 1e-14 and u[i] < 1.0:
            beta_star = (nn - wi) / (nn * (wi - 1.0))
            beta = min(beta_star, u[i] / (1.0 - u[i]))
            if beta > 0:
                gain_aw = nn * np.log1p(beta) + np.log1p(-beta * wi / (1.0 + beta))
        if gain_aw > gain_fw:
            u = (1.0 + beta) * u
            u[i] -= beta
        else:
            u = (1.0 - alpha) * u
            u[j] += alpha
        u = np.maximum(u, 0.0)
        u /= u.sum()
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
