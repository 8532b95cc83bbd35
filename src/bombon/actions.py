"""Symmetries of smooth quadrics: the circle action and point transport.

Splitting coordinates along the positive and negative eigenspaces gives
projectors P+ and P-.  The action x -> P+ x + e^{i theta} P- x preserves
the form value, fixes exactly the two cores, and sweeps each on-quadric
point around the circular section of the line joining its two core
shadows [P+ x] and [P- x].

Transport between two points of the quadric is a Witt-style
construction: extend each point to a hyperbolic pair, split off the
orthogonal complement (equal signatures by Sylvester), and match the
two adapted frames.  The resulting matrix satisfies T* A T = A and
carries one point to the other, witnessing homogeneity of the smooth
quadric under its pseudo-unitary group.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotOnQuadric, NotSmooth, ZeroVector
from .linalg import (as_cvector, congruence_to_signs, max_abs, nullspace,
                     sym, zero_tol)
from .projective import ProjPoint, proj_close
from .quadrics import quad


@dataclass(frozen=True)
class CoreSplit:
    """Spectral projectors onto the positive and negative eigenspaces."""

    p_pos: np.ndarray
    p_neg: np.ndarray

    @classmethod
    def from_quadric(cls, x):
        if x.sig.n_zero > 0:
            raise NotSmooth("core splitting requires a smooth quadric")
        qp = x.sig.positive_basis()
        qn = x.sig.negative_basis()
        return cls(p_pos=qp @ qp.conj().T, p_neg=qn @ qn.conj().T)


@dataclass
class TransportWitness:
    """Pseudo-unitary matrix with its congruence residual."""

    t: np.ndarray
    residual: float


def s1_action(x, split, theta, v):
    """Apply the circle action at angle theta to homogeneous coords v."""
    w = as_cvector(v)
    return split.p_pos @ w + np.exp(1j * float(theta)) * (split.p_neg @ w)


def bundle_projection(x, split, v):
    """Shadows ([P+ v], [P- v]) of an on-quadric point in the two cores.

    Both components are nonzero precisely because core points never lie
    on the quadric; the orbit of v is the circle cut by the line joining
    the shadows.
    """
    p = v if isinstance(v, ProjPoint) else ProjPoint(v)
    x.require_on(p)
    w = p.unit
    u_part = split.p_pos @ w
    v_part = split.p_neg @ w
    small = zero_tol(x.a, x.tol)
    if np.linalg.norm(u_part) <= small or np.linalg.norm(v_part) <= small:
        raise NotOnQuadric("point projects into a core; it cannot be on "
                           "the quadric")
    return ProjPoint(u_part), ProjPoint(v_part)


def pseudo_unitary_check(t, a, rtol=1e-8):
    """True when T* A T = A within rtol * |A|_inf."""
    m = np.asarray(t, dtype=complex)
    return max_abs(m.conj().T @ a @ m - a) <= rtol * max(1.0, max_abs(a))


def _adapted_frame(x, v):
    # Columns: the point, its hyperbolic partner, then an A-orthogonal
    # complement straightened to diag(+-1).
    a = x.a
    cols = x.sig.eigbasis
    pairings = np.abs([quad(a, v, cols[:, j]) for j in range(cols.shape[1])])
    w = cols[:, int(np.argmax(pairings))]
    beta = quad(a, v, w)
    if abs(beta) <= zero_tol(a, x.tol):
        raise ZeroVector("no hyperbolic partner; form appears degenerate")
    w1 = w / beta
    gamma = np.real(quad(a, w1, w1))
    w2 = w1 - (gamma / 2.0) * v
    constraints = np.vstack([(a @ v).conj(), (a @ w2).conj()])
    comp = nullspace(constraints, tol=x.tol)
    mc = sym(comp.conj().T @ a @ comp)
    tc, signs = congruence_to_signs(mc, tol=x.tol)
    if np.any(signs == 0):
        raise NotSmooth("complement picked up a kernel direction")
    return np.column_stack([v, w2, comp @ tc]), signs


def homogeneity_transport(x, p, q):
    """Pseudo-unitary witness carrying [p] to [q] on a smooth quadric.

    Returns TransportWitness(T, residual) with T* A T = A and
    [T p] = [q].  Identity when the points already agree.
    """
    if x.sig.n_zero > 0:
        raise NotSmooth("transport requires a smooth quadric")
    pp = p if isinstance(p, ProjPoint) else ProjPoint(p)
    qq = q if isinstance(q, ProjPoint) else ProjPoint(q)
    x.require_on(pp)
    x.require_on(qq)
    if proj_close(pp.v, qq.v, 1e-12):
        t = np.eye(x.n + 1, dtype=complex)
        return TransportWitness(t=t, residual=0.0)
    up, sp = _adapted_frame(x, pp.unit)
    uq, sq = _adapted_frame(x, qq.unit)
    if not np.array_equal(sp, sq):
        raise NotSmooth("complement signatures disagree; form appears "
                        "degenerate at tolerance")
    t = uq @ np.linalg.inv(up)
    residual = max_abs(t.conj().T @ x.a @ t - x.a)
    return TransportWitness(t=t, residual=residual)
