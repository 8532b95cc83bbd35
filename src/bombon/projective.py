"""Points, lines and linear subspaces of complex projective space.

Homogeneous coordinate vectors are plain complex ndarrays.  A point is
stored in canonical form: scaled so the first coordinate of largest
modulus (ties resolved within relative tolerance 1e-12) equals exactly
1.  Canonicalization is an exact fixpoint, so applying it twice returns
bit-identical coordinates.
"""

import numpy as np

from .errors import CoincidentPoints, ZeroVector
from .linalg import (DEFAULT_TOL, as_cvector, hermitian_eig, max_abs,
                     nullspace, orthonormal_columns, sym)

_PIVOT_RTOL = 1e-12


def canonicalize(v):
    """Scale homogeneous coordinates to the canonical representative.

    The pivot is the first coordinate whose modulus is within relative
    tolerance 1e-12 of the maximum; it is scaled to exactly 1+0j.
    Raises ZeroVector when all coordinates are numerically zero.
    """
    w = as_cvector(v).copy()
    for _ in range(w.size + 1):
        mags = np.abs(w)
        m = float(mags.max())
        if m < 1e-300:
            raise ZeroVector("cannot canonicalize a zero vector")
        pivot = int(np.argmax(mags >= m * (1.0 - _PIVOT_RTOL)))
        piv = w[pivot]
        if piv == 1.0:
            return w
        w = w / piv
        w[pivot] = 1.0
    return w


def unit_rep(v):
    """Unit-norm representative of the same projective point."""
    w = as_cvector(v)
    n = np.linalg.norm(w)
    if n < 1e-300:
        raise ZeroVector("zero vector has no unit representative")
    return w / n


def form_value(a, p):
    """Re(v* A v) / (v* v) at a ProjPoint's coordinates or a vector v.

    v is first scaled by a power of two, which is exact, so that tiny
    and huge v neither under- nor overflow.  ZeroVector for v = 0.
    """
    v = p.v if isinstance(p, ProjPoint) else as_cvector(p)
    big = max_abs(v)
    if big < 1e-300:
        raise ZeroVector("zero vector has no form value")
    v = v * np.ldexp(1.0, 1 - np.frexp(big)[1])
    return float(np.vdot(v, a @ v).real / np.vdot(v, v).real)


def proj_close(u, v, tol=DEFAULT_TOL):
    """True when [u] and [v] agree as projective points within tol."""
    a = unit_rep(u)
    b = unit_rep(v)
    return 1.0 - abs(np.vdot(a, b)) <= tol


class ProjPoint:
    """A point of CP^n held in canonical homogeneous coordinates."""

    __slots__ = ("v",)

    def __init__(self, coords):
        self.v = canonicalize(coords)

    @property
    def n(self):
        return self.v.size - 1

    @property
    def unit(self):
        return unit_rep(self.v)

    def isclose(self, other, tol=DEFAULT_TOL):
        w = other.v if isinstance(other, ProjPoint) else other
        return proj_close(self.v, w, tol)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.v.size == other.v.size and self.isclose(other)

    __hash__ = None

    def __repr__(self):
        entries = ", ".join(f"{z:.6g}" for z in self.v)
        return f"ProjPoint([{entries}])"


class ProjLine:
    """A projective line spanned by two independent points.

    The generating coordinate vectors are kept exactly as given (after
    finiteness checks); several section formulas depend on the chosen
    representatives, not just on the line as a set.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = as_cvector(a)
        b = as_cvector(b)
        if a.size != b.size:
            raise ValueError("line endpoints live in different spaces")
        if proj_close(a, b, 1e-9):
            raise CoincidentPoints("line through a repeated point is undefined")
        self.a = a
        self.b = b

    @property
    def n(self):
        return self.a.size - 1

    def basis(self):
        """(n+1, 2) matrix whose columns are the stored representatives."""
        return np.column_stack([self.a, self.b])

    def point(self, x, y):
        """The point [x*a + y*b] for homogeneous parameters (x, y)."""
        return ProjPoint(x * self.a + y * self.b)

    def __repr__(self):
        return f"ProjLine({ProjPoint(self.a)!r}, {ProjPoint(self.b)!r})"


def line_through(p, q):
    """The unique line through two distinct points.

    Raises CoincidentPoints when the unit representatives satisfy
    |<p, q>| = 1 within 1e-9.
    """
    pv = p.v if isinstance(p, ProjPoint) else as_cvector(p)
    qv = q.v if isinstance(q, ProjPoint) else as_cvector(q)
    return ProjLine(pv, qv)


class Subspace:
    """A projective linear subspace, stored as an orthonormal basis.

    ``basis`` has shape (n+1, k+1) for a subspace of projective
    dimension k; zero columns encode the empty subspace (dimension -1).
    """

    __slots__ = ("basis", "_n")

    def __init__(self, basis, ambient_dim=None, orthonormal=False):
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 2:
            raise ValueError("basis must be a matrix of column vectors")
        if not orthonormal:
            b = orthonormal_columns(b)
        self.basis = b
        self._n = b.shape[0] - 1 if ambient_dim is None else ambient_dim
        if b.shape[0] != self._n + 1:
            raise ValueError("basis rows do not match ambient dimension")

    @classmethod
    def empty(cls, ambient_dim):
        return cls(np.zeros((ambient_dim + 1, 0), dtype=complex),
                   ambient_dim, orthonormal=True)

    @classmethod
    def full(cls, ambient_dim):
        return cls(np.eye(ambient_dim + 1, dtype=complex),
                   ambient_dim, orthonormal=True)

    @property
    def ambient_dim(self):
        return self._n

    @property
    def projective_dim(self):
        return self.basis.shape[1] - 1

    def projector(self):
        return self.basis @ self.basis.conj().T

    def contains_vector(self, v, tol=DEFAULT_TOL):
        w = unit_rep(v)
        res = w - self.basis @ (self.basis.conj().T @ w)
        return np.linalg.norm(res) <= tol

    def contains_point(self, p, tol=DEFAULT_TOL):
        return self.contains_vector(p.v if isinstance(p, ProjPoint) else p, tol)

    def contains_subspace(self, other, tol=DEFAULT_TOL):
        return all(self.contains_vector(other.basis[:, j], tol)
                   for j in range(other.basis.shape[1]))

    def __repr__(self):
        return f"Subspace(dim={self.projective_dim}, ambient={self._n})"


def span(items, ambient_dim=None):
    """Smallest subspace containing the given points or subspaces."""
    cols = []
    n = ambient_dim
    for it in items:
        if isinstance(it, Subspace):
            cols.append(it.basis)
            n = it.ambient_dim if n is None else n
        elif isinstance(it, ProjPoint):
            cols.append(it.v[:, None])
            n = it.n if n is None else n
        elif isinstance(it, ProjLine):
            cols.append(it.basis())
            n = it.n if n is None else n
        else:
            v = as_cvector(it)
            cols.append(v[:, None])
            n = v.size - 1 if n is None else n
    if n is None:
        raise ValueError("span of nothing needs an explicit ambient_dim")
    if not cols:
        return Subspace.empty(n)
    stacked = np.hstack(cols)
    return Subspace(orthonormal_columns(stacked), n, orthonormal=True)


def meet(s, t, tol=DEFAULT_TOL):
    """Intersection of two subspaces.

    Computed as the kernel of the stacked orthogonal-complement system;
    the kernel extraction shares ``hermitian_eig`` and its tolerance.
    """
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    k = s.ambient_dim + 1
    eye = np.eye(k, dtype=complex)
    g = sym((eye - s.projector()) + (eye - t.projector()))
    sig = hermitian_eig(g, tol=tol)
    return Subspace(sig.kernel(), s.ambient_dim, orthonormal=True)


def perp(s):
    """Orthocomplement with respect to the standard Hermitian product."""
    rows = s.basis.conj().T
    return Subspace(nullspace(rows), s.ambient_dim, orthonormal=True)


def sample_point(rng, n):
    """A point of CP^n drawn from the unitary-invariant measure.

    Coordinates are i.i.d. standard complex Gaussians, then canonicalized.
    Deterministic given the generator state.
    """
    z = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return ProjPoint(z)


def sample_line(rng, n):
    """A random line of CP^n through two independent sampled points."""
    while True:
        p = sample_point(rng, n)
        q = sample_point(rng, n)
        if not p.isclose(q, 1e-6):
            return ProjLine(p.v, q.v)
