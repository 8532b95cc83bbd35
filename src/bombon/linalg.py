"""Hermitian linear algebra helpers.

All rank and zero decisions in the library go through a single relative
tolerance: a quantity is treated as zero when it is at most
``tol * max(1, |M|_inf)`` where ``|M|_inf`` is the largest entry modulus
of the matrix it was derived from.  ``DEFAULT_TOL`` is the knob.

Eigendecompositions of Hermitian matrices use a self-contained cyclic
Jacobi iteration rather than a packaged solver; signatures fall out of
it and the eigenvector phases are pinned so results are reproducible
bit for bit.

Values ``Re(p* A p)`` of a fixed Hermitian form over large stacks of
rows go through one real-arithmetic kernel: ``real_form`` builds the
2k x 2k real symmetric form of ``A`` once, and ``form_values`` applies
it to the rows viewed as interleaved float pairs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

DEFAULT_TOL = 1e-9

_JACOBI_MAX_SWEEPS = 100


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
    return float(np.max(np.abs(a))) if a.size else 0.0


def zero_tol(m, tol=DEFAULT_TOL):
    """Zero threshold for quantities derived from ``m``."""
    return tol * max(1.0, max_abs(m))


def hermitize(m, atol=1e-12):
    """Validate Hermitian symmetry to ``atol`` and return (M + M*) / 2.

    Raises ValueError when the asymmetry exceeds the bound.
    """
    a = as_cmatrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("Hermitian matrix must be square")
    gap = max_abs(a - a.conj().T)
    if gap > atol * max(1.0, max_abs(a)):
        raise ValueError(f"matrix is not Hermitian (asymmetry {gap:.3e})")
    return (a + a.conj().T) / 2.0


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


def _off_norm(a):
    # Frobenius norm of the off-diagonal part, summed directly; the
    # subtraction form sum|A|^2 - sum diag^2 bottoms out near |A| sqrt(eps)
    d = a - np.diag(np.diag(a))
    return float(np.linalg.norm(d))


def _fix_phases(v):
    # Pin each column's largest entry to be real positive so the basis is
    # reproducible; ties broken by first index.
    out = v.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        piv = col[k]
        if piv != 0:
            out[:, j] = col * (np.conj(piv) / abs(piv))
    return out


def hermitian_eig(m, tol=DEFAULT_TOL, max_sweeps=_JACOBI_MAX_SWEEPS):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    m : array_like
        Hermitian matrix (validated and symmetrized on ingest).
    tol : float
        Relative tolerance; eigenvalues with modulus at most
        ``tol * max(1, |m|_inf)`` count as zero.
    max_sweeps : int
        Sweep budget before NoConvergence is raised.

    Returns
    -------
    Signature
    """
    a = hermitize(m)
    k = a.shape[0]
    thr = zero_tol(a, tol)
    target = thr * 1e-3
    v = np.eye(k, dtype=complex)
    if k == 1:
        lam = np.array([a[0, 0].real])
    else:
        converged = False
        for _ in range(max_sweeps):
            if _off_norm(a) <= target:
                converged = True
                break
            for p in range(k - 1):
                for q in range(p + 1, k):
                    apq = a[p, q]
                    r = abs(apq)
                    if r <= target / (10.0 * k * k):
                        continue
                    phase = apq / r
                    alpha = a[p, p].real
                    gamma = a[q, q].real
                    # inner rotation, |theta| <= pi/4; the large-angle
                    # branch swaps the diagonal pair forever instead of
                    # converging
                    tau = (alpha - gamma) / (2.0 * r)
                    sgn = 1.0 if tau >= 0 else -1.0
                    t = sgn / (abs(tau) + np.hypot(tau, 1.0))
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    s = t * c
                    # J = diag(phase, 1) @ [[c, -s], [s, c]] acting on columns p, q
                    jpp, jpq = phase * c, -phase * s
                    jqp, jqq = s, c
                    colp = a[:, p] * jpp + a[:, q] * jqp
                    colq = a[:, p] * jpq + a[:, q] * jqq
                    a[:, p], a[:, q] = colp, colq
                    rowp = np.conj(jpp) * a[p, :] + np.conj(jqp) * a[q, :]
                    rowq = np.conj(jpq) * a[p, :] + np.conj(jqq) * a[q, :]
                    a[p, :], a[q, :] = rowp, rowq
                    colp = v[:, p] * jpp + v[:, q] * jqp
                    colq = v[:, p] * jpq + v[:, q] * jqq
                    v[:, p], v[:, q] = colp, colq
        if not converged:
            off = _off_norm(a)
            if off > target:
                raise NoConvergence(
                    f"Jacobi off-diagonal norm {off:.3e} above {target:.3e} "
                    f"after {max_sweeps} sweeps"
                )
        lam = np.diag(a).real.copy()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    v = _fix_phases(v[:, order])
    n_pos = int(np.sum(lam > thr))
    n_neg = int(np.sum(lam < -thr))
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

    ``rows`` is (k, dim).  Routed through the Jacobi eigensolver so the
    rank decision uses the same tolerance scheme as everything else.
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
