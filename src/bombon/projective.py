"""Points, lines and linear subspaces of complex projective space.

Homogeneous coordinate vectors are plain complex ndarrays.  A point is
stored in canonical form: scaled so the first coordinate of largest
modulus (ties resolved within relative tolerance 1e-12) equals exactly
1.  Canonicalization is an exact fixpoint, so applying it twice returns
bit-identical coordinates.

Outside input is validated once, at the public boundary: ``ProjPoint``,
``ProjLine``, ``line_through``, ``span``, ``canonicalize``,
``unit_rep``, ``proj_close`` and ``form_value`` coerce what they are
given to a finite 1-d complex vector (ValueError otherwise) and then
call a private core.  The cores (``_canonical``, ``_unit``, ``_close``,
``_form_value``, ``ProjPoint._of``, ``ProjLine._of``) trust arrays the
library built and skip the coercion and the finiteness scan;
``_canonical`` still raises the public error for a non-finite vector,
such as an overflowing product, at no cost to finite ones.
"""

import math

import numpy as np

from .errors import CoincidentPoints, ZeroVector
from .linalg import (DEFAULT_TOL, _UNIT_LO, _gauge, _hermitian_eig,
                     _require_finite, as_cvector, max_abs, nullspace,
                     orthonormal_columns, sym)

_PIVOT_RTOL = 1e-12


def canonicalize(v):
    """Scale homogeneous coordinates to the canonical representative.

    The pivot is the first coordinate whose modulus is within relative
    tolerance 1e-12 of the maximum; it is scaled to exactly 1+0j.
    Raises ZeroVector when all coordinates are numerically zero.
    """
    return _canonical(as_cvector(v).copy())


def _canonical(w):
    # canonicalize on a 1-d complex array; w itself is never written but
    # may be returned
    for _ in range(w.size + 1):
        mags = np.abs(w)
        m = float(mags.max())
        _require_finite(w, m, "coordinates")
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
    return _unit(as_cvector(v))


def _norm(w):
    # np.linalg.norm(w) bit for bit: the same two dot products of the
    # real and imaginary parts, which np.vdot takes without warning when
    # a square overflows
    return math.sqrt(np.vdot(w.real, w.real) + np.vdot(w.imag, w.imag))


def _unit(w):
    # The squares in the norm lose digits below _UNIT_LO and overflow
    # above 1.3e154: such a w is gauged, and is zero below the cut of
    # ``_canonical``, largest modulus 1e-300, which needs a largest |Re|
    # or |Im| below 2^-996 (e > 996); other w keep their bits.
    n = _norm(w)
    if not _UNIT_LO <= n < math.inf:
        u, e = _gauge(w)
        n = _norm(u)
        if not n or e > 996 and max_abs(w) < 1e-300:
            raise ZeroVector("zero vector has no unit representative")
        w = u
    return w / n


def _coords(p):
    # a ProjPoint's coordinates, or p validated as a coordinate vector
    return p.v if isinstance(p, ProjPoint) else as_cvector(p)


def form_value(a, p):
    """Re(v* A v) / (v* v) at a ProjPoint's coordinates or a vector v.

    v is first gauged (``linalg._gauge``), so that tiny and huge v
    neither under- nor overflow.  ZeroVector below largest modulus 1e-300.
    """
    return _form_value(a, _coords(p))


def _form_value(a, v):
    # form_value at a finite 1-d complex vector v, gauged and zero as in
    # ``_unit``; np.dot gives the bits of a @ u at less call cost
    u, e = _gauge(v)
    d = np.vdot(u, u).real
    if not d or e > 996 and max_abs(v) < 1e-300:
        raise ZeroVector("zero vector has no form value")
    return float(np.vdot(u, np.dot(a, u)).real / d)


def proj_close(u, v, tol=DEFAULT_TOL):
    """True when [u] and [v] agree as projective points within tol."""
    return _close(as_cvector(u), as_cvector(v), tol)


def _close(u, v, tol):
    return 1.0 - abs(np.vdot(_unit(u), _unit(v))) <= tol


class ProjPoint:
    """A point of CP^n held in canonical homogeneous coordinates."""

    __slots__ = ("v",)

    def __init__(self, coords):
        self.v = canonicalize(coords)

    @classmethod
    def _of(cls, v):
        """The point of a 1-d complex array the library built, which it
        hands over: canonicalized without coercion or a copy."""
        p = object.__new__(cls)
        p.v = _canonical(v)
        return p

    @property
    def n(self):
        return self.v.size - 1

    @property
    def unit(self):
        return _unit(self.v)

    def isclose(self, other, tol=DEFAULT_TOL):
        return _close(self.v, _coords(other), tol)

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

    The generating coordinate vectors are kept exactly as given, once
    the constructor has checked that they are finite 1-d vectors of one
    size and distinct points; several section formulas depend on the
    chosen representatives, not just on the line as a set.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self._set(as_cvector(a), as_cvector(b))

    @classmethod
    def _of(cls, a, b):
        """The line through two 1-d complex arrays the library built:
        no coercion, but the same size and coincidence checks."""
        line = object.__new__(cls)
        line._set(a, b)
        return line

    @classmethod
    def _apart(cls, a, b):
        """The line through two 1-d complex arrays of one size that the
        library built and has already found to be distinct points: no
        checks."""
        line = object.__new__(cls)
        line.a, line.b = a, b
        return line

    def _set(self, a, b):
        if a.size != b.size:
            raise ValueError("line endpoints live in different spaces")
        if _close(a, b, 1e-9):
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
        return ProjPoint._of(complex(x) * self.a + complex(y) * self.b)

    def __repr__(self):
        return f"ProjLine({ProjPoint(self.a)!r}, {ProjPoint(self.b)!r})"


def line_through(p, q):
    """The unique line through two distinct points.

    Raises CoincidentPoints when the unit representatives satisfy
    |<p, q>| = 1 within 1e-9.
    """
    return ProjLine._of(_coords(p), _coords(q))


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
    the kernel extraction shares the ``hermitian_eig`` core and its
    tolerance.
    """
    if s.ambient_dim != t.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    k = s.ambient_dim + 1
    eye = np.eye(k, dtype=complex)
    g = sym((eye - s.projector()) + (eye - t.projector()))
    return Subspace(_hermitian_eig(g, tol).kernel(), s.ambient_dim,
                    orthonormal=True)


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
    return ProjPoint._of(z)


def sample_line(rng, n):
    """A random line of CP^n through two independent sampled points."""
    while True:
        p = sample_point(rng, n)
        q = sample_point(rng, n)
        if not _close(p.v, q.v, 1e-6):
            # points 1e-6 apart pass the constructor's 1e-9 coincidence
            # check, so the line is built without it
            return ProjLine._apart(p.v, q.v)
