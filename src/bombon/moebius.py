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
circle.  So has the rotation by theta about u that keeps the circle:
P diag(e^{-i theta/2}, e^{i theta/2}) P^-1 with P = [u v], v the
conjugate of u, the paper's circle action P+ x + e^{i theta} P- x with
u and v as its two cores.

A map is normalized from, and a circle decides on, its gauged matrix
(``linalg._gauge``), so that neither depends on the matrix's scale.
"""

import numpy as np

from .errors import CoincidentPoints, PointOnCircle, ZeroVector
from .linalg import (DEFAULT_TOL, _gauge, as_cmatrix, circle_frame,
                     hermitian_eig, hermitize, max_abs, sym, zero_tol)
from .projective import ProjPoint, _close, _coords, form_value

_J_INV = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def _gauged(z):
    # the coordinates of a point or vector z, gauged (``linalg._gauge``)
    # so that products with a gauged or normalized matrix do not
    # overflow; ZeroVector below largest modulus 1e-300, the floor of
    # ``ProjPoint``, which the gauge would lift
    v = _coords(z)
    if max_abs(v) < 1e-300:
        raise ZeroVector("cannot canonicalize a zero vector")
    return _gauge(v)[0]


class MoebiusMap:
    """Invertible projective map of CP^1, stored det-normalized."""

    __slots__ = ("m",)

    def __init__(self, m):
        a = as_cmatrix(m)
        if a.shape != (2, 2):
            raise ValueError("a Moebius map is a 2x2 matrix")
        a = _gauge(a)[0]
        d = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(d) < 1e-300:
            raise ValueError("matrix is singular")
        self.m = a / np.sqrt(d)

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    def apply(self, z):
        """Image of a point given as ProjPoint or homogeneous pair."""
        return ProjPoint._of(self.m @ _gauged(z))

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
    """Generalized circle {[z] : z* M z = 0}, M Hermitian of signature (1,1).

    ``m`` is the caller's form and ``value`` reads it; membership, sides,
    closeness and inversion read its gauged form ``_g``.
    """

    __slots__ = ("m", "_g")

    def __init__(self, m):
        a = hermitize(m)
        if a.shape != (2, 2):
            raise ValueError("a generalized circle is a 2x2 Hermitian form")
        # the determinant's sign, read on the gauged form (an exact
        # scaling): its products cannot overflow, and underflow only where
        # the determinant is negligible at the form's scale
        g = _gauge(a)[0]
        if (g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real >= 0:
            raise ValueError("form must have signature (1, 1): det < 0 required")
        self.m, self._g = a, g

    @classmethod
    def unit_circle(cls):
        return cls(np.diag([1.0, -1.0]).astype(complex))

    @classmethod
    def real_line(cls):
        return cls(np.array([[0.0, 1j], [-1j, 0.0]]))

    def value(self, z):
        return form_value(self.m, z)

    def contains(self, z, tol=DEFAULT_TOL):
        return abs(form_value(self._g, z)) <= zero_tol(self._g, tol)

    def side(self, z):
        val = form_value(self._g, z)
        if abs(val) <= zero_tol(self._g):
            return 0
        return 1 if val > 0 else -1

    def isclose(self, other, tol=1e-9):
        a = self._g / max_abs(self._g)
        b = other._g / max_abs(other._g)
        return max_abs(a - b) <= tol or max_abs(a + b) <= tol

    def to_unit_chart(self):
        """Moebius f with pushforward f(self) = the unit circle.

        Built from the eigendecomposition; deterministic, and the three
        model points 1, -1, i pull back to reproducible witness zeros.
        """
        return MoebiusMap(np.linalg.inv(circle_frame(hermitian_eig(self.m))))

    def witness_zeros(self):
        """Three reproducible points on the circle."""
        back = self.to_unit_chart().inverse()
        return (back.apply([1.0, 1.0]), back.apply([-1.0, 1.0]),
                back.apply([1j, 1.0]))

    def __repr__(self):
        return f"GenCircle({self.m.tolist()!r})"


def pushforward_circle(f, c):
    """Image circle under a Moebius map: M' = f^-* M f^-1."""
    fi = np.linalg.inv(f.m)
    return GenCircle(sym(fi.conj().T @ c.m @ fi))


def _fit_hermitian_through(points):
    # Least-squares Hermitian 2x2 form vanishing at all given points:
    # one row (|x|^2, 2 Re xy, -2 Im xy, |y|^2), xy = conj(x) y, per unit
    # representative (x, y), then one SVD.  Takes a list of ProjPoints or
    # vectors, which it validates, or an (m, 2) complex array the library
    # built, such as the zero tracer's, which it trusts; an (l, m, 2)
    # stack of such arrays is fitted in one batch, to an (l, 2, 2) stack
    # of forms and l residuals, each with the bits of its own call.  |x|
    # comes from ``hypot``, which matches scalar ``abs`` where array
    # ``np.abs`` can differ.
    v = (points if isinstance(points, np.ndarray)
         else np.array([_coords(p) for p in points]))
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    x, y = v[..., 0], v[..., 1]
    xy = np.conj(x) * y
    a = np.empty(xy.shape + (4,))
    a[..., 0], a[..., 3] = (np.hypot(x.real, x.imag) ** 2,
                            np.hypot(y.real, y.imag) ** 2)
    a[..., 1], a[..., 2] = 2.0 * xy.real, -2.0 * xy.imag
    # the m x m U is never read; below 4 rows only the full vt holds a
    # null vector
    rows = a.shape[-2]
    _, s, vt = np.linalg.svd(a, full_matrices=rows < 4)
    coef = vt[..., -1, :]
    resid = s[..., -1] if rows >= 4 else np.zeros(s.shape[:-1])
    m = np.empty(coef.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = coef[..., 0], coef[..., 3]
    m[..., 0, 1] = coef[..., 1] + 1j * coef[..., 2]
    m[..., 1, 0] = coef[..., 1] - 1j * coef[..., 2]
    return (m, resid) if v.ndim == 3 else (m, float(resid))


def circle_through(z1, z2, z3):
    """The unique generalized circle through three distinct points."""
    pts = [z1, z2, z3]
    for i in range(3):
        for j in range(i + 1, 3):
            if _close(_coords(pts[i]), _coords(pts[j]), 1e-12):
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
    v = _gauged(u)
    if c.contains(v):
        raise PointOnCircle("conjugate point of a circle point is itself")
    return ProjPoint._of(_J_INV @ np.conj(c._g @ v))


def rotation(c, u, theta):
    """One-parameter rotation of the sphere about u and its conjugate.

    With P = [u v], v = conjugate_point(c, u), the map is
    P diag(e^{-i theta/2}, e^{i theta/2}) P^-1: it fixes u and v, its
    derivative at u is e^{i theta}, and it preserves c, about which u and
    v are symmetric.  The maps satisfy the group law in theta up to
    roundoff, and (v, -theta) gives the same map as (u, theta).
    """
    up = u if isinstance(u, ProjPoint) else ProjPoint(u)
    if c.contains(up):
        raise PointOnCircle("rotation center must avoid the circle")
    p = np.column_stack([up.v, conjugate_point(c, up).v])
    spin = np.exp(0.5j * theta * np.array([-1.0, 1.0]))
    return MoebiusMap((p * spin) @ np.linalg.inv(p))
