"""Moebius maps and generalized circles on the Riemann sphere CP^1.

A Moebius map is a 2x2 complex matrix acting on homogeneous
coordinates, normalized to determinant 1 (the sign ambiguity of the
normalization is projectively invisible).  A generalized circle is the
zero set of a 2x2 Hermitian form of signature (1, 1); lines through
infinity are circles like any other.  This is deliberately the same
data as a mixed restricted form of a quadric on a line, so the two
modules agree by construction.

Circle inversion has a closed form in these terms: the conjugate of a
point u with respect to the circle with matrix M is J conj(M u) with
J = [[0, -1], [1, 0]], an antiholomorphic involution fixing exactly the
circle.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints, PointOnCircle
from .linalg import (DEFAULT_TOL, as_cmatrix, as_cvector, hermitian_eig,
                     hermitize, max_abs, sym, zero_tol)
from .projective import ProjPoint, proj_close

_J_INV = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


class MoebiusMap:
    """Invertible projective map of CP^1, stored det-normalized."""

    __slots__ = ("m",)

    def __init__(self, m):
        a = as_cmatrix(m)
        if a.shape != (2, 2):
            raise ValueError("a Moebius map is a 2x2 matrix")
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(d) < 1e-300:
            raise ValueError("matrix is singular")
        self.m = a / np.sqrt(d)

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    def apply(self, z):
        """Image of a point given as ProjPoint or homogeneous pair."""
        v = z.v if isinstance(z, ProjPoint) else as_cvector(z)
        return ProjPoint(self.m @ v)

    def apply_affine(self, w):
        """Image of an affine parameter w (may return inf)."""
        num = self.m[0, 0] * w + self.m[0, 1]
        den = self.m[1, 0] * w + self.m[1, 1]
        if den == 0:
            return complex(np.inf, 0.0)
        return num / den

    def compose(self, other):
        return MoebiusMap(self.m @ other.m)

    def inverse(self):
        return MoebiusMap(np.linalg.inv(self.m))

    def isclose(self, other, tol=1e-9):
        same = max_abs(self.m - other.m) <= tol
        flip = max_abs(self.m + other.m) <= tol
        return same or flip

    def __repr__(self):
        return f"MoebiusMap({self.m.tolist()!r})"


class GenCircle:
    """Generalized circle {[z] : z* M z = 0}, M Hermitian of signature (1,1)."""

    __slots__ = ("m",)

    def __init__(self, m):
        a = hermitize(m)
        if a.shape != (2, 2):
            raise ValueError("a generalized circle is a 2x2 Hermitian form")
        det = float(np.real(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
        if det >= 0:
            raise ValueError("form must have signature (1, 1): det < 0 required")
        self.m = a

    @classmethod
    def unit_circle(cls):
        return cls(np.diag([1.0, -1.0]).astype(complex))

    @classmethod
    def real_line(cls):
        return cls(np.array([[0.0, 1j], [-1j, 0.0]]))

    def value(self, z):
        v = z.v if isinstance(z, ProjPoint) else as_cvector(z)
        v = v / np.linalg.norm(v)
        return float(np.real(np.vdot(v, self.m @ v)))

    def contains(self, z, tol=DEFAULT_TOL):
        return abs(self.value(z)) <= zero_tol(self.m, tol)

    def side(self, z):
        val = self.value(z)
        thr = zero_tol(self.m)
        if abs(val) <= thr:
            return 0
        return 1 if val > 0 else -1

    def isclose(self, other, tol=1e-9):
        a = self.m / max_abs(self.m)
        b = other.m / max_abs(other.m)
        return max_abs(a - b) <= tol or max_abs(a + b) <= tol

    def to_unit_chart(self):
        """Moebius f with pushforward f(self) = the unit circle.

        Built from the eigendecomposition; deterministic, and the three
        model points 1, -1, i pull back to reproducible witness zeros.
        """
        sig = hermitian_eig(self.m)
        lam, q = sig.eigvals, sig.eigbasis
        k = np.column_stack([q[:, 1] / np.sqrt(lam[1]),
                             q[:, 0] / np.sqrt(-lam[0])])
        return MoebiusMap(np.linalg.inv(k))

    def witness_zeros(self):
        """Three reproducible points on the circle."""
        back = self.to_unit_chart().inverse()
        return (back.apply([1.0, 1.0]), back.apply([-1.0, 1.0]),
                back.apply([1j, 1.0]))

    def __repr__(self):
        return f"GenCircle({self.m.tolist()!r})"


@dataclass(frozen=True)
class Disk:
    """One of the two sides of a generalized circle.

    ``sign`` selects {z : z* M z < 0} (-1) or the positive side (+1).
    """

    circle: GenCircle
    sign: int

    def contains(self, z):
        return self.circle.side(z) == self.sign


def pushforward_circle(f, c):
    """Image circle under a Moebius map: M' = f^-* M f^-1."""
    fi = np.linalg.inv(f.m)
    return GenCircle(sym(fi.conj().T @ c.m @ fi))


def _fit_hermitian_through(points):
    # Least-squares Hermitian 2x2 form vanishing at all given points:
    # one row (|x|^2, 2 Re xy, -2 Im xy, |y|^2), xy = conj(x) y, per unit
    # representative (x, y), then one SVD.  Takes a list of ProjPoints or
    # vectors, or an (m, 2) array.  |x| comes from ``hypot``, which
    # matches scalar ``abs`` where array ``np.abs`` can differ.
    if isinstance(points, np.ndarray):
        v = as_cmatrix(points)
    else:
        v = np.array([p.v if isinstance(p, ProjPoint) else as_cvector(p)
                      for p in points])
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    x, y = v[:, 0], v[:, 1]
    xy = np.conj(x) * y
    a = np.column_stack([np.hypot(x.real, x.imag) ** 2, 2.0 * xy.real,
                         -2.0 * xy.imag, np.hypot(y.real, y.imag) ** 2])
    _, s, vt = np.linalg.svd(a)
    coef = vt[-1]
    resid = float(s[-1]) if a.shape[0] >= 4 else 0.0
    m = np.array([[coef[0], coef[1] + 1j * coef[2]],
                  [coef[1] - 1j * coef[2], coef[3]]], dtype=complex)
    return m, resid


def circle_through(z1, z2, z3):
    """The unique generalized circle through three distinct points."""
    pts = [z1, z2, z3]
    for i in range(3):
        for j in range(i + 1, 3):
            vi = pts[i].v if isinstance(pts[i], ProjPoint) else as_cvector(pts[i])
            vj = pts[j].v if isinstance(pts[j], ProjPoint) else as_cvector(pts[j])
            if proj_close(vi, vj, 1e-12):
                raise CoincidentPoints("three distinct points are required")
    m, _ = _fit_hermitian_through(pts)
    det = float(np.real(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    if det >= 0:
        raise CoincidentPoints("points are too close to determine a circle")
    return GenCircle(m)


def conjugate_point(c, u):
    """Inversion of u in the circle c (the conjugate point).

    Raises PointOnCircle when u lies on c, where inversion would fix it.
    """
    v = u.v if isinstance(u, ProjPoint) else as_cvector(u)
    vn = v / np.linalg.norm(v)
    if abs(np.real(np.vdot(vn, c.m @ vn))) <= zero_tol(c.m):
        raise PointOnCircle("conjugate point of a circle point is itself")
    return ProjPoint(_J_INV @ np.conj(c.m @ v))


def _model_rotation(theta):
    ct = np.cos(theta / 2.0)
    st = np.sin(theta / 2.0)
    return np.array([[ct, st], [-st, ct]], dtype=complex)


def _three_point_map(p, q, r):
    # Moebius sending p -> 0, q -> 1, r -> inf, all homogeneous.
    cols = np.column_stack([r.v, p.v])
    g = np.linalg.inv(cols)
    img = g @ q.v
    if abs(img[0]) < 1e-300 or abs(img[1]) < 1e-300:
        raise CoincidentPoints("normalization points are not distinct")
    return MoebiusMap(np.diag([1.0 / img[0], 1.0 / img[1]]) @ g)


def rotation(c, u, theta):
    """One-parameter rotation of the sphere about u and its conjugate.

    Conjugates (c, u) to the model (real line, i), where the rotation by
    theta is z -> (z cos(t/2) + sin(t/2)) / (-z sin(t/2) + cos(t/2)),
    and transports it back.  The resulting maps preserve c, fix u and
    conjugate_point(c, u), and satisfy the group law in theta exactly up
    to roundoff; replacing u by its conjugate point reverses the sense
    of rotation.
    """
    up = u if isinstance(u, ProjPoint) else ProjPoint(u)
    vn = up.unit
    if abs(np.real(np.vdot(vn, c.m @ vn))) <= zero_tol(c.m):
        raise PointOnCircle("rotation center must avoid the circle")
    za, zb, zc = c.witness_zeros()
    g = _three_point_map(za, zb, zc)
    w = g.apply(up.v)
    wa = w.v[0] / w.v[1]
    if wa.imag < 0:
        g = MoebiusMap(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)).compose(g)
        wa = 1.0 / wa
    h = MoebiusMap(np.array([[1.0, -wa.real], [0.0, wa.imag]], dtype=complex))
    g = h.compose(g)
    gi = np.linalg.inv(g.m)
    return MoebiusMap(gi @ _model_rotation(theta) @ g.m)
