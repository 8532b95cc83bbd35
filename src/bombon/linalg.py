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

Values ``Re(p* A p)`` of a fixed Hermitian form over large stacks of
rows go through one real-arithmetic kernel: ``real_form`` builds the
2k x 2k real symmetric form of ``A`` once, and ``form_values`` applies
it to the rows viewed as interleaved float pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

DEFAULT_TOL = 1e-9


def as_cvector(v):
    """Coerce to a finite 1-d complex array."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1:
        raise ValueError("expected a 1-d coordinate vector")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("coordinates must be finite")
    return a


def as_cmatrix(m):
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(m):
    """Largest entry modulus; the matrix norm used for tolerances."""
    a = np.asarray(m)
    return float(np.abs(a).max()) if a.size else 0.0


def zero_tol(m, tol=DEFAULT_TOL):
    """Zero threshold for quantities derived from ``m``."""
    return tol * max(1.0, max_abs(m))


def hermitize(m, atol=1e-12):
    """Validate Hermitian symmetry to ``atol`` and return (M + M*) / 2.

    Raises ValueError when the asymmetry exceeds the bound.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    # A non-finite entry makes the largest modulus non-finite, so the
    # exact entry check runs only when that scan says it may be needed.
    big = max_abs(a)
    if not math.isfinite(big) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if a.shape[0] != a.shape[1]:
        raise ValueError("Hermitian matrix must be square")
    # Halving first keeps a + a* and a - a* finite for entries up to the
    # float maximum.  A power-of-two scale is exact, so the result is
    # (a + a*) / 2 bit for bit apart from subnormal entries and the sign
    # of exact zeros, and the gap is exactly half of |a - a*|.
    h = a / 2.0
    hh = h.conj().T
    gap = max_abs(h - hh)
    if gap > atol * max(0.5, big / 2.0):
        raise ValueError(
            f"matrix is not Hermitian (asymmetry {2.0 * gap:.3e})")
    return h + hh


def sym(m):
    """Hermitian part, no validation.  For internally computed matrices."""
    a = np.asarray(m, dtype=complex)
    return (a + a.conj().T) / 2.0


_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def real_form(a):
    """2k x 2k real symmetric matrix R of the Hermitian form ``a``.

    With a complex row p viewed as interleaved (Re, Im) float64 pairs x,
    ``x @ R @ x`` equals ``Re(p* a p)``.  Only the Hermitian part of
    ``a`` contributes, as it does to that real part.
    """
    h = sym(a)
    return np.kron(h.real, np.eye(2)) + np.kron(h.imag, _J2)


def _float_rows(rows):
    return np.ascontiguousarray(rows, dtype=complex).view(np.float64)


def form_values(rows, rform):
    """``Re(p* A p)`` for every row p of a (..., k) complex stack, given
    ``rform = real_form(A)``: one real matmul and a row dot."""
    x = _float_rows(rows)
    return np.einsum("...j,...j->...", x @ rform, x)


def sq_norms(rows):
    """Squared norm of every row of a (..., k) complex stack."""
    x = _float_rows(rows)
    return np.einsum("...j,...j->...", x, x)


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

    @property
    def rank(self):
        return self.n_pos + self.n_neg

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
    # the last bit.
    if not v.size:
        return v
    piv = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
    return v * (piv.conj() / np.hypot(piv.real, piv.imag))


def hermitian_eig(m, tol=DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix (LAPACK via numpy).

    Parameters
    ----------
    m : array_like
        Hermitian matrix (validated and symmetrized on ingest).
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
    a = hermitize(m)
    k = a.shape[0]
    thr = zero_tol(a, tol)
    try:
        # LAPACK returns the eigenvalues in ascending order.
        lam, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    v = _fix_phases(v)
    n_pos = int(np.count_nonzero(lam > thr))
    n_neg = int(np.count_nonzero(lam < -thr))
    n_zero = k - n_pos - n_neg
    return Signature(n_pos=n_pos, n_neg=n_neg, n_zero=n_zero,
                     eigvals=lam, eigbasis=v, zero_threshold=thr)


def orthonormal_columns(cols, rtol=DEFAULT_TOL):
    """Orthonormalize by modified Gram-Schmidt with re-orthogonalization.

    ``cols`` is (dim, m); dependent columns are dropped.  The rank cut is
    ``rtol`` relative to the largest input column norm.
    """
    a = np.asarray(cols, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix of column vectors")
    dim, m = a.shape
    if m == 0:
        return np.zeros((dim, 0), dtype=complex)
    norms = np.linalg.norm(a, axis=0)
    biggest = float(norms.max())
    if biggest == 0.0:
        return np.zeros((dim, 0), dtype=complex)
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

    ``rows`` is (k, dim).  Routed through ``hermitian_eig`` so the rank
    decision uses the same tolerance scheme as everything else.
    """
    r = np.asarray(rows, dtype=complex)
    if r.ndim != 2:
        raise ValueError("expected a matrix of row constraints")
    dim = r.shape[1]
    if r.shape[0] == 0:
        return np.eye(dim, dtype=complex)
    g = sym(r.conj().T @ r)
    sig = hermitian_eig(g, tol=tol)
    return sig.kernel()


def congruence_to_signs(m, tol=DEFAULT_TOL):
    """Congruence taking a Hermitian matrix to diag(+1.., -1.., 0..).

    Returns (t, signs) with ``t* @ m @ t`` equal to ``diag(signs)`` where
    ``signs`` lists +1 entries first, then -1, then 0.
    """
    sig = hermitian_eig(m, tol=tol)
    lam, q = sig.eigvals, sig.eigbasis
    pos = np.where(lam > sig.zero_threshold)[0]
    neg = np.where(lam < -sig.zero_threshold)[0]
    zer = np.where(np.abs(lam) <= sig.zero_threshold)[0]
    cols = []
    signs = []
    for idx in pos:
        cols.append(q[:, idx] / np.sqrt(lam[idx]))
        signs.append(1)
    for idx in neg:
        cols.append(q[:, idx] / np.sqrt(-lam[idx]))
        signs.append(-1)
    for idx in zer:
        cols.append(q[:, idx])
        signs.append(0)
    t = np.column_stack(cols) if cols else np.zeros((m.shape[0], 0), dtype=complex)
    return t, np.array(signs, dtype=int)


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
