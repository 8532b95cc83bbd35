"""Sections of a quadric by lines and linear subspaces, and tangency.

Restricting the Hermitian form to a line gives a 2x2 Hermitian form
whose signature decides the section: definite means the line misses the
quadric, signature (1, 1) cuts a circle, rank one a single point, rank
zero the whole line.  For a circle, two isotropic representatives a, b
and the cross coefficient c = sum_j conj(b_j) (A a)_j parametrize the
section as [s:t] -> (s i) a + (t c) b over the real projective line.

Classification verdicts carry a low-confidence flag when a restricted
eigenvalue falls within a factor of ten of the zero threshold on either
side; such borderline sections are reported rather than silently
resolved.
"""

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ExpectationViolated, NotSmooth, PreconditionError
from .linalg import hermitian_eig, nullspace, sym, zero_tol
from .moebius import GenCircle
from .projective import ProjLine, ProjPoint, Subspace, proj_close
from .quadrics import QuadricBombon, SideSign, SpecialKind, quad


class SectionTag(enum.Enum):
    EMPTY = "empty"
    SINGLE_POINT = "single_point"
    CIRCLE = "circle"
    FULL_LINE = "full_line"


@dataclass
class CircleParam:
    """Parametrization data for a circular line section.

    ``a`` and ``b`` are isotropic coordinate vectors on the line and
    ``c`` is the cross coefficient; the map (s, t) -> (s i) a + (t c) b
    covers the circle as (s, t) runs over the real projective line.
    """

    a: np.ndarray
    b: np.ndarray
    c: complex


@dataclass
class TwoSidesReport:
    """Sampled sides of the two disk components of a circle section."""

    inner: tuple
    outer: tuple

    def _common(self, sides):
        vals = set(sides)
        return vals.pop() if len(vals) == 1 else None

    @property
    def inner_side(self):
        return self._common(self.inner)

    @property
    def outer_side(self):
        return self._common(self.outer)

    @property
    def separates(self):
        i, o = self.inner_side, self.outer_side
        return (i is not None and o is not None and i != o
                and SideSign.ON not in (i, o))


@dataclass
class SectionClass:
    tag: SectionTag
    point: Optional[ProjPoint] = None
    circle: Optional[CircleParam] = None
    low_confidence: bool = False


def restrict_form(x, s):
    """Restricted Hermitian form of a quadric on a subspace or line.

    Subspaces contribute their orthonormal basis; lines contribute the
    two stored representatives as given, which keeps the cross
    coefficient formulas literal.
    """
    if isinstance(s, ProjLine):
        b = s.basis()
    elif isinstance(s, Subspace):
        b = s.basis
    else:
        b = np.asarray(s, dtype=complex)
    return sym(b.conj().T @ x.a @ b)


def _isotropic_pair(x, line, m2, sig2):
    a, b = line.a, line.b
    thr = zero_tol(x.a, x.tol)
    na2 = float(np.linalg.norm(a)) ** 2
    nb2 = float(np.linalg.norm(b)) ** 2
    if (abs(quad(x.a, a, a)) <= thr * na2 and abs(quad(x.a, b, b)) <= thr * nb2):
        return a, b
    lam, q = sig2.eigvals, sig2.eigbasis
    wp = q[:, 1] / np.sqrt(lam[1])
    wn = q[:, 0] / np.sqrt(-lam[0])
    ca = wp + wn
    cb = wp - wn
    amb_a = ca[0] * a + ca[1] * b
    amb_b = cb[0] * a + cb[1] * b
    return amb_a, amb_b


def _sample_circle_sides(x, line, m2, n_angles=16):
    # Map the unit-circle chart back onto the line and probe both disks.
    circ = GenCircle(m2)
    back = circ.to_unit_chart().inverse()
    basis = line.basis()
    sides = []
    for r in (0.5, 2.0):
        got = []
        for k in range(n_angles):
            z = r * np.exp(2j * np.pi * k / n_angles)
            coords = back.m @ np.array([z, 1.0], dtype=complex)
            got.append(x.side(ProjPoint(basis @ coords)))
        sides.append(tuple(got))
    return TwoSidesReport(inner=sides[0], outer=sides[1])


def classify_line_section(x, line, with_sides=True):
    """Classify how a line meets the quadric.

    Returns (SectionClass, TwoSidesReport or None); the report is
    produced only for circle sections.
    """
    m2 = restrict_form(x, line)
    sig2 = hermitian_eig(m2, tol=x.tol)
    thr = sig2.zero_threshold
    # Borderline means an eigenvalue within 10x of the zero cut on either
    # side; exact zeros and clearly nonzero eigenvalues are confident.
    mags = np.abs(sig2.eigvals)
    low = bool(np.any((mags > 0.1 * thr) & (mags <= 10.0 * thr)))
    if sig2.n_zero == 2:
        return SectionClass(SectionTag.FULL_LINE, low_confidence=low), None
    if sig2.n_zero == 1:
        k = sig2.kernel()[:, 0]
        pt = ProjPoint(k[0] * line.a + k[1] * line.b)
        return SectionClass(SectionTag.SINGLE_POINT, point=pt,
                            low_confidence=low), None
    if sig2.n_pos == 2 or sig2.n_neg == 2:
        return SectionClass(SectionTag.EMPTY, low_confidence=low), None
    a, b = _isotropic_pair(x, line, m2, sig2)
    c = quad(x.a, b, a)
    param = CircleParam(a=a, b=b, c=c)
    report = _sample_circle_sides(x, line, m2) if with_sides else None
    return SectionClass(SectionTag.CIRCLE, circle=param, low_confidence=low), report


def circle_points(param, s, t):
    """Point of the circle at real parameters (s, t), not both zero."""
    s = float(s)
    t = float(t)
    if s == 0.0 and t == 0.0:
        raise ValueError("(s, t) must be a real projective parameter")
    return ProjPoint((s * 1j) * param.a + (t * param.c) * param.b)


def tangent_space(x, p, tol=None):
    """Tangent space of the quadric at an on-quadric point.

    The hyperplane {y : p* A y = 0} at smooth points; the whole space at
    singular points.  In CP^1 the hyperplane degenerates to the point
    itself.  Raises NotOnQuadric for points off the quadric.
    """
    tol = x.tol if tol is None else tol
    x.require_on(p)
    v = p.unit if isinstance(p, ProjPoint) else ProjPoint(p).unit
    w = x.a @ v
    if np.max(np.abs(w)) <= zero_tol(x.a, tol):
        return Subspace.full(x.n)
    return Subspace(nullspace(w.conj()[None, :], tol=tol), x.n, orthonormal=True)


def section_with_subspace(x, h):
    """Section of the quadric by a subspace.

    Returns a QuadricBombon in the coordinates of ``h`` when the
    restricted form stays mixed, otherwise the subspace of CP^n where
    the semidefinite restriction vanishes (possibly empty).
    """
    m = restrict_form(x, h)
    sig = hermitian_eig(m, tol=x.tol)
    if sig.n_pos >= 1 and sig.n_neg >= 1:
        return QuadricBombon(m, tol=x.tol)
    return Subspace(h.basis @ sig.kernel(), x.n, orthonormal=True)


def tangent_section_singular_point(x, p, rtol=1e-8):
    """Singular locus of (tangent space at p) cut with the quadric.

    For a smooth non-elliptic quadric this locus is exactly the point p
    itself; the function recovers it and checks the kernel is one
    dimensional and aligned with p to ``rtol``.
    """
    if x.sig.n_zero > 0:
        raise NotSmooth("tangent hypersections need a smooth quadric")
    if x.classify_special() is SpecialKind.ELLIPTIC:
        raise PreconditionError("elliptic quadrics have empty tangent sections "
                                "beyond the point of tangency")
    h = tangent_space(x, p)
    sec = section_with_subspace(x, h)
    if not isinstance(sec, QuadricBombon):
        raise ExpectationViolated("tangent section degenerated to a subspace")
    ker = sec.sig.kernel()
    if ker.shape[1] != 1:
        raise ExpectationViolated(
            f"tangent section kernel has dimension {ker.shape[1]}, expected 1")
    recovered = ProjPoint(h.basis @ ker[:, 0])
    target = p if isinstance(p, ProjPoint) else ProjPoint(p)
    if not proj_close(recovered.v, target.v, rtol):
        raise ExpectationViolated("tangent section singular point is not p")
    return recovered
