"""Hermitian linear algebra helpers.

All rank and zero decisions in the library go through a single relative
tolerance: a quantity is treated as zero when it is at most
``tol * max(1, |M|_inf)`` where ``|M|_inf`` is the largest entry modulus
of the matrix it was derived from.  ``DEFAULT_TOL`` is the knob.

Eigendecompositions of Hermitian matrices come from LAPACK through
``numpy.linalg.eigh``; signatures fall out of them, and the eigenvector
phases are pinned so results are reproducible on a given numpy/LAPACK
build.  The pinning is one vectorized step over all columns and gives
bit for bit what pinning each column in turn gives.

Large stacks of complex rows are worked on as real rows of interleaved
(Re, Im) float pairs, so that each step is one real matmul:
- ``real_map(b)`` is the real matrix of ``p -> p @ b``, for a whole
  stack of ``b`` at once;
- values ``Re(p* A p)`` of a fixed Hermitian form go through one
  kernel: ``real_form`` factors the 2k x 2k real symmetric form of ``A``
  once, by one ``eigh``, into ``q, lam``, and ``form_values`` is
  ``((x @ q) ** 2) @ lam``.  Because ``q`` is orthogonal, weights
  ``[lam, 1]`` give each row's value and squared norm in one product.

Every array brought into floating range goes through one rule, the
gauge ``_gauge(a, axis)``: each slice times the power of two 2^e that
puts its largest |Re| or |Im|, which cannot overflow where a modulus
can, in [1, 2).  That is exact unless an entry falls below the normal
range.  Zero and non-finite slices keep e = 0, so callers keep their own
zero and finiteness checks.  No other module scales by magnitude.

Input is validated once, at the public boundary.  ``hermitian_eig`` and
``congruence_to_signs`` pass what they are given through ``hermitize``,
which checks that it is a finite square Hermitian matrix, and then call
a private core, ``_hermitian_eig``.  Matrices the library built itself
with ``sym`` or ``hermitize`` go to the core directly: they are exactly
Hermitian, and the core keeps only a free check that their largest
modulus is finite, which an overflowing product would break.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

DEFAULT_TOL = 1e-9
# smallest norm whose sum of squares is a normal float: the square root
# of the smallest one
_UNIT_LO = 2.0 ** -511


def as_cvector(v):
    """Coerce to a finite 1-d complex array."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError("expected a 1-d coordinate vector")
    if not np.isfinite(a).all():
        raise ValueError("coordinates must be finite")
    return a


def as_cmatrix(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(m):
    """Largest entry modulus; the matrix norm used for tolerances."""
    a = np.asarray(m)
    return float(np.abs(a).max()) if a.size else 0.0


def _gauge(a, axis=None):
    # (a 2^e, e), the gauge of the module docstring: e has the keepdims
    # shape of max(axis=axis), or is one int with no axis, found in one
    # pass and applied in two steps where it passes 1023.  A copy, not a
    # product by 1.0, keeps a non-finite a: complex inf * 1 has NaN parts.
    a = np.asarray(a, dtype=complex)
    if axis is None:
        big = float(np.maximum.reduce(np.abs(
            np.ascontiguousarray(a).view(float)), axis=None, initial=0.0))
        e = 1 - math.frexp(big)[1] if 0.0 < big < math.inf else 0
        if e > 1023:
            return a * 2.0 ** 1023 * math.ldexp(1.0, e - 1023), e
        return (a * math.ldexp(1.0, e) if e else a.copy()), e
    # on the float view of a, whose last axis holds (Re, Im): the axes of
    # ``axis``, negative ones counted past that axis, and that axis
    f = a[..., None].view(float)
    axes = tuple(x - 1 if x < 0 else x for x in (
        (axis,) if isinstance(axis, int) else axis)) + (-1,)
    big = np.abs(f).max(axis=axes, keepdims=True, initial=0.0)
    e = np.where(np.isfinite(big) & (big > 0.0), 1 - np.frexp(big)[1], 0)
    return np.ldexp(f, e).view(complex)[..., 0], e[..., 0]


def finite_nonnegative(x, name):
    """``x`` as a float; ValueError naming ``name`` unless finite and >= 0."""
    v = float(x)
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {v}")
    return v


def zero_tol(m, tol=DEFAULT_TOL):
    """Zero threshold for quantities derived from ``m``."""
    return _cut(max_abs(m), tol)


def _cut(big, tol):
    # the one zero rule, given the largest entry modulus ``big``
    return tol * max(1.0, big)


def _require_finite(a, big, what):
    # A non-finite entry makes the largest modulus ``big`` non-finite, so
    # the exact entry check runs only when that scan says it may be needed.
    if not math.isfinite(big) and not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")


_HERMITIAN_ATOL = 1e-12


def hermitize(m):
    """Validate Hermitian symmetry and return (M + M*) / 2.

    Raises ValueError when the asymmetry |M - M*| exceeds
    _HERMITIAN_ATOL * max(1, |M|).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    big = max_abs(a)
    _require_finite(a, big, "matrix entries")
    if a.shape[0] != a.shape[1]:
        raise ValueError("Hermitian matrix must be square")
    # Halving first keeps a - a* finite for entries up to the float
    # maximum; the gap is half of |a - a*|.  Below 2^1023 a + a* cannot
    # overflow and the result is ``sym(a)``; above, h + h* equals it
    # apart from subnormal entries, which halving rounds.
    h = a / 2.0
    hh = h.conj().T
    gap = max_abs(h - hh)
    if gap > _HERMITIAN_ATOL * max(0.5, big / 2.0):
        raise ValueError(
            f"matrix is not Hermitian (asymmetry {2.0 * gap:.3e})")
    return sym(a) if big < 2.0 ** 1023 else h + hh


def sym(m):
    """Hermitian part, no validation.  For internally computed matrices."""
    a = np.asarray(m, dtype=complex)
    return (a + a.conj().T) / 2.0


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def real_form(a):
    """Factored real form ``(q, lam)`` of the Hermitian form ``a``.

    With a complex row p viewed as interleaved (Re, Im) float64 pairs x,
    ``((x @ q) ** 2) @ lam`` equals ``Re(p* a p)``: ``lam`` and the
    orthogonal ``q`` are the eigenpairs of the 2k x 2k real symmetric
    matrix of that form.  Only the Hermitian part of ``a`` contributes,
    as it does to that real part.
    """
    h = sym(a)
    lam, q = np.linalg.eigh(np.kron(h.real, np.eye(2))
                            + np.kron(h.imag, _J2))
    return q, lam


def real_map(b):
    """Real matrices of ``p -> p @ b`` for a (..., r, k) complex stack:
    (..., 2r, 2k), acting on rows viewed as interleaved float pairs."""
    b = np.asarray(b, dtype=complex)
    out = np.empty(b.shape[:-2] + (b.shape[-2], 2, b.shape[-1], 2))
    out[..., 0, :, 0] = out[..., 1, :, 1] = b.real
    out[..., 0, :, 1] = b.imag
    out[..., 1, :, 0] = -b.imag
    return out.reshape(b.shape[:-2] + (2 * b.shape[-2], 2 * b.shape[-1]))


def _float_rows(rows):
    return np.ascontiguousarray(rows, dtype=complex).view(np.float64)


def form_values(rows, rform):
    """``Re(p* A p)`` for every row p of a (..., k) complex stack, given
    ``rform = real_form(A)``: ``((x @ q) ** 2) @ lam``.

    Weights ``w`` of shape (2k, j) in place of ``lam`` give j values per
    row; with ``w = [lam, 1]`` the second is the squared norm |p|^2.
    """
    q, w = rform
    y = _float_rows(rows) @ q
    y *= y
    return y @ w


@dataclass(frozen=True)
class Signature:
    """Eigenstructure of a Hermitian matrix.

    Attributes
    ----------
    n_pos, n_neg, n_zero : int
        Eigenvalue counts relative to ``zero_threshold``.
    eigvals : ndarray
        Real eigenvalues in ascending order.
    eigbasis : ndarray
        Unitary matrix whose columns are the matching eigenvectors.
    zero_threshold : float
        The absolute cutoff used for the counts.
    """

    n_pos: int
    n_neg: int
    n_zero: int
    eigvals: np.ndarray
    eigbasis: np.ndarray
    zero_threshold: float

    def kernel(self):
        """Orthonormal columns spanning the numerical kernel."""
        mask = np.abs(self.eigvals) <= self.zero_threshold
        return self.eigbasis[:, mask]

    def positive_basis(self):
        return self.eigbasis[:, self.eigvals > self.zero_threshold]

    def negative_basis(self):
        return self.eigbasis[:, self.eigvals < -self.zero_threshold]


def _fix_phases(v):
    # Pin each column's largest entry to be real positive so the basis is
    # reproducible; ties broken by first index.  Columns are eigenvectors,
    # so no pivot is zero.  ``hypot`` gives the pivot modulus bit for bit
    # as scalar ``abs`` does; array ``np.abs`` on complex can differ in
    # the last bit.  A stack (..., k, k) pins each matrix's columns; one
    # matrix, the classifier's case, indexes its pivots directly: with
    # take_along_axis alone, classify calls ran about 10% slower.
    if not v.size:
        return v
    idx = np.abs(v).argmax(axis=-2)
    piv = (v[idx, np.arange(v.shape[1])] if v.ndim == 2 else
           np.take_along_axis(v, idx[..., None, :], axis=-2))
    return v * (piv.conj() / np.hypot(piv.real, piv.imag))


def hermitian_eig(m, tol=DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix (LAPACK via numpy).

    Parameters
    ----------
    m : array_like
        Hermitian matrix; ``hermitize`` validates it and takes its
        Hermitian part before the decomposition.
    tol : float
        Relative tolerance; eigenvalues with modulus at most
        ``tol * max(1, |m|_inf)`` count as zero.

    Returns
    -------
    Signature

    Raises
    ------
    NoConvergence
        When LAPACK fails to converge.
    """
    return _hermitian_eig(hermitize(m), tol)


def _hermitian_eig(a, tol):
    """``hermitian_eig`` of a matrix the library built with ``sym`` or
    ``hermitize``: exactly Hermitian, so it skips the coercion and the
    symmetry check (``hermitize`` would return its values whenever its
    entries are below 2^1023).  A non-finite entry, say from an
    overflowing product, is still a ValueError."""
    big = max_abs(a)
    lam, v = _pinned_eigh(a, big)
    thr = _cut(big, tol)
    n_pos = int(np.count_nonzero(lam > thr))
    n_neg = int(np.count_nonzero(lam < -thr))
    n_zero = a.shape[0] - n_pos - n_neg
    return Signature(n_pos=n_pos, n_neg=n_neg, n_zero=n_zero,
                     eigvals=lam, eigbasis=v, zero_threshold=thr)


def _pinned_eigh(a, big):
    # eigenvalues, ascending as LAPACK returns them, and phase-pinned
    # eigenvectors of the exactly Hermitian matrix, or stack of matrices,
    # ``a`` whose largest entry modulus is ``big``; ValueError for a
    # non-finite entry, NoConvergence when LAPACK fails
    _require_finite(a, big, "matrix entries")
    try:
        lam, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    return lam, _fix_phases(v)


def orthonormal_columns(cols, rtol=DEFAULT_TOL):
    """Orthonormalize by modified Gram-Schmidt with re-orthogonalization.

    ``cols`` is (dim, m); dependent columns are dropped.  The rank cut is
    ``rtol`` relative to the largest input column norm.  Columns whose
    squares under- or overflow there are first gauged as a whole
    (``_gauge``).  Raises ValueError for entries that are not finite.
    """
    a = np.asarray(cols, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    dim, m = a.shape
    if m == 0:
        return np.zeros((dim, 0), dtype=complex)
    with np.errstate(all="ignore"):
        biggest = float(np.linalg.norm(a, axis=0).max())
    _require_finite(a, biggest, "coordinates")
    if not _UNIT_LO <= biggest < math.inf:
        a = _gauge(a)[0]
        biggest = float(np.linalg.norm(a, axis=0).max())
    thresh = rtol * biggest
    basis = []
    for j in range(m):
        w = a[:, j].copy()
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        nw = np.linalg.norm(w)
        if nw > thresh:
            basis.append(w / nw)
    if not basis:
        return np.zeros((dim, 0), dtype=complex)
    return np.column_stack(basis)


def nullspace(rows, tol=DEFAULT_TOL):
    """Orthonormal basis of {v : rows @ v = 0} via the Gram matrix.

    ``rows`` is (k, dim).  Routed through the ``hermitian_eig`` core so
    the rank decision uses the same tolerance scheme as everything else.
    """
    r = np.asarray(rows, dtype=complex)
    if r.ndim != 2:
        raise ValueError("expected a matrix of row constraints")
    dim = r.shape[1]
    if r.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    return _hermitian_eig(sym(r.conj().T @ r), tol).kernel()


def congruence_to_signs(m, tol=DEFAULT_TOL):
    """Congruence taking a Hermitian matrix to diag(+1.., -1.., 0..).

    Returns (t, signs) with ``t* @ m @ t`` equal to ``diag(signs)`` where
    ``signs`` lists +1 entries first, then -1, then 0.
    """
    return _congruence_to_signs(hermitian_eig(m, tol=tol))


def _congruence_to_signs(sig):
    # congruence_to_signs, given the Signature of the matrix
    lam, q = sig.eigvals, sig.eigbasis
    pos = np.where(lam > sig.zero_threshold)[0]
    neg = np.where(lam < -sig.zero_threshold)[0]
    zer = np.where(np.abs(lam) <= sig.zero_threshold)[0]
    t = np.concatenate([q[:, pos] / np.sqrt(lam[pos]),
                        q[:, neg] / np.sqrt(-lam[neg]), q[:, zer]], axis=1)
    return t, np.repeat([1, -1, 0], [pos.size, neg.size, zer.size])


def circle_frame(sig):
    """Columns (w+, w-): the eigenvectors of a 2x2 form with eigenvalues
    l0 < 0 < l1 scaled to form values +1 and -1, so that the form reads
    |z|^2 - 1 at z w+ + w-.  Eigenvalues below the zero cut scale too."""
    return _circle_frames(sig.eigvals, sig.eigbasis)


_NEG_POS = np.array([-1.0, 1.0])


def _circle_frames(lam, q):
    # circle_frame of the eigenpairs (lam, q) of a 2x2 form or of a
    # stack (..., 2) and (..., 2, 2) of them: the columns q1 / sqrt(l1)
    # and q0 / sqrt(-l0) in one division
    return q[..., ::-1] / np.sqrt(lam * _NEG_POS)[..., None, ::-1]


def random_hermitian(rng, k, scale=1.0):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return sym(g) * scale


def random_unitary(rng, k):
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q = orthonormal_columns(g)
    while q.shape[1] < k:  # essentially never
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q = orthonormal_columns(g)
    return q
