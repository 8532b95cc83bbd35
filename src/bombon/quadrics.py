"""Algebraic bombons: projective quadrics of mixed Hermitian signature.

A quadric here is the zero set in CP^n of x* A x for a Hermitian matrix
A with at least one positive and one negative eigenvalue.  The mixed
signature is exactly the condition under which the zero set separates
projective space into two open components, called U (positive side) and
V (negative side), and meets every line in nothing, a point, a circle,
or the whole line.

The projective type (p, q)_n records min(n_pos, n_neg) - 1 and
max(n_pos, n_neg) - 1 together with the dimension of the singular
locus; it is a complete invariant for equivalence under projective
transformations combined with the harmless global sign swap A -> -A.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotABombon, NotComplementary, NotOnQuadric,
                     TypeMismatch, ZeroVector)
from .linalg import (DEFAULT_TOL, as_cvector, congruence_to_signs,
                     hermitian_eig, hermitize, max_abs, sym, zero_tol)
from .projective import ProjPoint, Subspace, meet, unit_rep


class SideSign(enum.Enum):
    """Which side of the quadric a point lies on."""

    U = "U"
    V = "V"
    ON = "ON"


@dataclass(frozen=True, order=True)
class BombonType:
    """Projective type (p, q)_n with the singular dimension.

    p <= q by convention (the sign swap A -> -A is quotiented out) and
    the fullness identity p + q + sing_dim == n - 2 always holds.
    """

    p: int
    q: int
    n: int
    sing_dim: int

    @property
    def fullness_defect(self):
        return self.p + self.q + self.sing_dim - (self.n - 2)

    def __str__(self):
        base = f"({self.p},{self.q})_{self.n}"
        if self.sing_dim >= 0:
            return f"{base}[sing={self.sing_dim}]"
        return base


class SpecialKind(enum.Enum):
    ELLIPTIC = "elliptic"
    CONICAL = "conical"
    FLAT = "flat"
    GENERAL_FULL = "general_full"


@dataclass
class CongruenceWitness:
    """Invertible T certifying T* A T = sign * scale * B.

    ``flipped`` records whether the harmless global swap A -> -A was
    needed; the zero sets of B and -B coincide, so the witness still
    carries one quadric onto the other as point sets.
    """

    t: np.ndarray
    scale: float = 1.0
    flipped: bool = False

    def residual(self, a, b):
        sgn = -1.0 if self.flipped else 1.0
        return max_abs(self.t.conj().T @ a @ self.t - sgn * self.scale * b)

    def certifies(self, a, b, rtol=1e-8):
        return self.residual(a, b) <= rtol * max(1.0, max_abs(a))


def quad(a, u, v):
    """The sesquilinear value u* A v."""
    return complex(np.vdot(np.asarray(u, dtype=complex),
                           a @ np.asarray(v, dtype=complex)))


class QuadricBombon:
    """Zero set of a mixed-signature Hermitian form on CP^n.

    Parameters
    ----------
    a : array_like
        Hermitian (n+1) x (n+1) matrix; symmetrized on ingest and
        required to have at least one positive and one negative
        eigenvalue.
    tol : float
        Relative tolerance used for all zero decisions on this quadric.
    """

    def __init__(self, a, tol=DEFAULT_TOL):
        m = hermitize(a)
        scale = max_abs(m)
        if scale < 1e-300:
            raise NotABombon("the zero matrix defines no quadric")
        if not math.isfinite(scale):
            raise ValueError("matrix entry modulus overflows the float range")
        self.a = m
        self.tol = tol
        self.sig = hermitian_eig(m, tol=tol)
        if not np.isfinite(self.sig.eigvals).all():
            raise ValueError("matrix eigenvalue overflows the float range")
        if self.sig.n_pos < 1 or self.sig.n_neg < 1:
            raise NotABombon(
                f"form signature ({self.sig.n_pos},{self.sig.n_neg},"
                f"{self.sig.n_zero}) is not mixed")

    @classmethod
    def from_epsilons(cls, eps, tol=DEFAULT_TOL):
        """Diagonal quadric sum(eps_j |x_j|^2) = 0."""
        e = np.asarray(eps, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("need at least two diagonal coefficients")
        return cls(np.diag(e).astype(complex), tol=tol)

    @property
    def n(self):
        return self.a.shape[0] - 1

    def value(self, x):
        """Real form value at the unit representative of x."""
        v = unit_rep(x.v if isinstance(x, ProjPoint) else as_cvector(x))
        return float(np.real(np.vdot(v, self.a @ v)))

    def evaluate(self, x):
        """(value, side) at a point; ON within tol * max(1, |A|_inf)."""
        val = self.value(x)
        thr = zero_tol(self.a, self.tol)
        if abs(val) <= thr:
            return val, SideSign.ON
        return val, (SideSign.U if val > 0 else SideSign.V)

    def side(self, x):
        return self.evaluate(x)[1]

    def contains(self, x):
        return self.side(x) is SideSign.ON

    def require_on(self, x):
        val, s = self.evaluate(x)
        if s is not SideSign.ON:
            raise NotOnQuadric(f"form value {val:.3e} is nonzero at the point")

    def singular_locus(self):
        """Projectivized kernel of the form; empty for smooth quadrics."""
        return Subspace(self.sig.kernel(), self.n, orthonormal=True)

    def bombon_type(self):
        lo = min(self.sig.n_pos, self.sig.n_neg)
        hi = max(self.sig.n_pos, self.sig.n_neg)
        return BombonType(p=lo - 1, q=hi - 1, n=self.n,
                          sing_dim=self.sig.n_zero - 1)

    def cores(self):
        """(core of U, core of V): spans of the positive and negative
        eigenspaces.  Every point of a core lies strictly on its side."""
        cu = Subspace(self.sig.positive_basis(), self.n, orthonormal=True)
        cv = Subspace(self.sig.negative_basis(), self.n, orthonormal=True)
        return cu, cv

    def canonical_form(self):
        """Type, witness and canonical matrix diag(I, -I, 0).

        The witness satisfies T* A T = sign * canonical with the sign
        recorded in ``flipped`` (true when n_pos > n_neg, in which case
        the congruence diagonalizes -A instead).
        """
        flip = self.sig.n_pos > self.sig.n_neg
        m = -self.a if flip else self.a
        t, signs = congruence_to_signs(m, tol=self.tol)
        canonical = np.diag(signs.astype(complex))
        return self.bombon_type(), CongruenceWitness(t=t, flipped=flip), canonical

    def classify_special(self):
        """Named classes decided purely from the type.

        Elliptic: (0, n-1)_n smooth.  Flat: (0, 0)_n with maximal
        singular locus.  Conical: (0, q)_n, q >= 1, with nonempty
        singular locus.  Everything else is general full.  In CP^1 the
        elliptic and flat descriptions coincide; elliptic wins.
        """
        t = self.bombon_type()
        if t.sing_dim == -1:
            return SpecialKind.ELLIPTIC if t.p == 0 else SpecialKind.GENERAL_FULL
        if t.p == 0 and t.q == 0:
            return SpecialKind.FLAT
        if t.p == 0:
            return SpecialKind.CONICAL
        return SpecialKind.GENERAL_FULL

    def __repr__(self):
        return f"QuadricBombon(n={self.n}, type={self.bombon_type()})"


def equivalence_witness(x, y):
    """Projective equivalence between two quadrics of equal type.

    Returns a CongruenceWitness with T* A T = sign * scale * B, scale
    positive, sign recorded in ``flipped``.  Raises TypeMismatch when
    the BombonTypes differ (the A -> -A swap is already quotiented out
    by the type).  The construction is deterministic.
    """
    if x.n != y.n:
        raise TypeMismatch(f"ambient dimensions differ: {x.n} vs {y.n}")
    if x.bombon_type() != y.bombon_type():
        raise TypeMismatch(f"types differ: {x.bombon_type()} vs {y.bombon_type()}")
    _, wa, _ = x.canonical_form()
    _, wb, _ = y.canonical_form()
    t = wa.t @ np.linalg.inv(wb.t)
    flipped = wa.flipped != wb.flipped
    sgn = -1.0 if flipped else 1.0
    lhs = t.conj().T @ x.a @ t
    denom = float(np.real(np.sum(np.conj(y.a) * y.a)))
    lam = float(np.real(np.sum(np.conj(y.a) * (sgn * lhs)))) / denom
    if lam <= 0:
        lam = 1.0
    return CongruenceWitness(t=t, scale=lam, flipped=flipped)


def join_with_apex(x, gamma, delta):
    """Join of a quadric on the subspace gamma with the apex delta.

    ``x`` lives on CP^k identified with gamma through its orthonormal
    basis columns.  gamma and delta must be complementary; the result is
    the pullback of the form along the projection onto gamma with
    kernel delta, so its singular locus is delta joined with the
    singular locus of x.
    """
    n = gamma.ambient_dim
    if delta.ambient_dim != n:
        raise NotComplementary("gamma and delta live in different spaces")
    if x.n != gamma.projective_dim:
        raise ValueError("quadric dimension does not match gamma")
    if gamma.projective_dim + delta.projective_dim != n - 1:
        raise NotComplementary("projective dimensions must sum to n - 1")
    if meet(gamma, delta).projective_dim != -1:
        raise NotComplementary("gamma and delta intersect")
    m = np.hstack([gamma.basis, delta.basis])
    proj = np.linalg.inv(m)[: gamma.projective_dim + 1, :]
    joined = sym(proj.conj().T @ x.a @ proj)
    return QuadricBombon(joined, tol=x.tol)


def random_smooth_bombon(rng, n, n_pos=None):
    """Unitary conjugate of a random sign matrix; eigenvalues exactly +-1.

    Convenient for tests: well conditioned, mixed by construction.
    """
    from .linalg import random_unitary

    if n_pos is None:
        n_pos = int(rng.integers(1, n + 1))
    if not 1 <= n_pos <= n:
        raise ValueError("n_pos must leave at least one negative sign")
    signs = np.array([1.0] * n_pos + [-1.0] * (n + 1 - n_pos))
    u = random_unitary(rng, n + 1)
    return QuadricBombon(sym(u @ np.diag(signs) @ u.conj().T))


def random_bombon(rng, n, n_pos=None, n_zero=None):
    """Random mixed-signature bombon in CP^n, kernel dimension n_zero.

    Eigenvalue magnitudes are spread log-uniformly in [0.3, 3] so the
    forms are well conditioned away from the kernel.
    """
    from .linalg import random_unitary

    dim = n + 1
    if n_zero is None:
        n_zero = int(rng.integers(0, dim - 1))
    if n_zero > dim - 2:
        raise ValueError("a mixed signature needs two nonzero eigenvalues")
    if n_pos is None:
        n_pos = int(rng.integers(1, dim - n_zero))
    n_neg = dim - n_zero - n_pos
    if n_pos < 1 or n_neg < 1:
        raise ValueError("signature must be mixed")
    mags = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=dim))
    eigs = mags * np.array([1.0] * n_pos + [-1.0] * n_neg + [0.0] * n_zero)
    u = random_unitary(rng, dim)
    return QuadricBombon(sym(u @ np.diag(eigs) @ u.conj().T))


def random_point_on(rng, x, max_tries=10000):
    """A point of the quadric, found on a line through opposite sides.

    Samples point pairs until their sides differ, then takes an
    isotropic direction of the restricted 2x2 form on that line.
    """
    from .projective import sample_point

    for _ in range(max_tries):
        p = sample_point(rng, x.n)
        q = sample_point(rng, x.n)
        vp, sp = x.evaluate(p)
        vq, sq = x.evaluate(q)
        if {sp, sq} != {SideSign.U, SideSign.V}:
            continue
        a, b = p.v, q.v
        m2 = np.array([[quad(x.a, a, a), quad(x.a, a, b)],
                       [quad(x.a, b, a), quad(x.a, b, b)]])
        sig2 = hermitian_eig(sym(m2))
        lam, vecs = sig2.eigvals, sig2.eigbasis
        w = vecs[:, -1] / np.sqrt(lam[-1]) + vecs[:, 0] / np.sqrt(-lam[0])
        pt = ProjPoint(w[0] * a + w[1] * b)
        if x.contains(pt):
            return pt
    raise ZeroVector("failed to find an on-quadric point")
