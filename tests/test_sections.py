"""Line sections: restriction, the four-way classification, tangency."""

import numpy as np
import pytest

from bombon.errors import NotOnQuadric, NotSmooth, PreconditionError
from bombon.linalg import max_abs, random_unitary
from bombon.projective import (ProjLine, ProjPoint, Subspace, line_through,
                               proj_close, sample_line, sample_point)
from bombon.quadrics import (QuadricBombon, SideSign, random_bombon,
                              random_smooth_bombon)
from bombon.sections import (SectionTag, circle_points, classify_line_section,
                             restrict_form, section_with_subspace,
                             tangent_section_singular_point, tangent_space)

ELLIPTIC = QuadricBombon.from_epsilons([1, 1, -1])


def test_restrict_form_frozen():
    line = ProjLine([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    m2 = restrict_form(ELLIPTIC, line)
    assert np.allclose(m2, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)


def test_circle_section_frozen():
    line = ProjLine([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    sec, rep = classify_line_section(ELLIPTIC, line)
    assert sec.tag is SectionTag.CIRCLE
    assert not sec.low_confidence
    assert sec.circle.c == pytest.approx(-1.0, abs=1e-14)
    assert rep is not None and rep.separates
    assert rep.inner_side != rep.outer_side


def test_circle_points_land_on_quadric():
    line = ProjLine([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    sec, _ = classify_line_section(ELLIPTIC, line)
    for ang in np.linspace(0.0, np.pi, 17):
        pt = circle_points(sec.circle, np.cos(ang), np.sin(ang))
        assert abs(ELLIPTIC.value(pt)) < 1e-12


def test_empty_section():
    line = ProjLine([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    sec, rep = classify_line_section(ELLIPTIC, line)
    assert sec.tag is SectionTag.EMPTY
    assert sec.point is None and sec.circle is None
    assert rep is None


def test_single_point_section():
    x = QuadricBombon.from_epsilons([1, -1, 0])
    line = ProjLine([0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    sec, _ = classify_line_section(x, line)
    assert sec.tag is SectionTag.SINGLE_POINT
    assert proj_close(sec.point.v, np.array([0.0, 0.0, 1.0]))


def test_full_line_section():
    x = QuadricBombon.from_epsilons([1, 1, -1, -1])
    line = ProjLine([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
    sec, _ = classify_line_section(x, line)
    assert sec.tag is SectionTag.FULL_LINE


def test_low_confidence_annulus():
    # restricted eigenvalue sits inside (0.1, 10] times the threshold
    x = QuadricBombon(np.diag([1.0, -1.0, 5e-9]).astype(complex))
    line = ProjLine([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    sec, _ = classify_line_section(x, line)
    assert sec.low_confidence
    x2 = QuadricBombon(np.diag([1.0, -1.0, 5e-5]).astype(complex))
    sec2, _ = classify_line_section(x2, line)
    assert not sec2.low_confidence
    assert sec2.tag is SectionTag.EMPTY


def test_with_sides_toggle():
    line = ProjLine([1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    sec, rep = classify_line_section(ELLIPTIC, line, with_sides=False)
    assert sec.tag is SectionTag.CIRCLE and rep is None


def test_tangent_space_frozen():
    p = ProjPoint([1.0, 0.0, 1.0])
    h = tangent_space(ELLIPTIC, p)
    assert h.projective_dim == 1
    assert h.contains_point(p)
    assert h.contains_point(ProjPoint([0.0, 1.0, 0.0]))
    assert not h.contains_point(ProjPoint([1.0, 0.0, -1.0]))


def test_tangent_space_needs_on_point():
    with pytest.raises(NotOnQuadric):
        tangent_space(ELLIPTIC, ProjPoint([1.0, 0.0, 0.0]))


def test_tangent_space_at_singular_point_is_full():
    x = QuadricBombon.from_epsilons([1, -1, 0])
    h = tangent_space(x, ProjPoint([0.0, 0.0, 1.0]))
    assert h.projective_dim == 2


def test_elliptic_tangent_section_is_point():
    p = ProjPoint([1.0, 0.0, 1.0])
    h = tangent_space(ELLIPTIC, p)
    sec = section_with_subspace(ELLIPTIC, h)
    assert isinstance(sec, Subspace)
    assert sec.projective_dim == 0
    assert sec.contains_point(p)


def test_generic_hypersection_is_quadric():
    x = QuadricBombon.from_epsilons([1, 1, -1, -1])
    h = Subspace(np.eye(4, dtype=complex)[:, :3])
    sec = section_with_subspace(x, h)
    assert isinstance(sec, QuadricBombon)
    assert sec.n == 2


def test_tangent_section_singular_point_recovers():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(3, 6))
        npos = int(rng.integers(2, n))
        x = random_smooth_bombon(rng, n, n_pos=npos)
        p = _point_on(rng, x)
        rec = tangent_section_singular_point(x, p)
        assert proj_close(rec.v, p.v, 1e-8)


def test_tangent_section_singular_point_guards():
    with pytest.raises(PreconditionError):
        tangent_section_singular_point(ELLIPTIC, ProjPoint([1.0, 0.0, 1.0]))
    flat = QuadricBombon.from_epsilons([1, -1, 0])
    with pytest.raises(NotSmooth):
        tangent_section_singular_point(flat, ProjPoint([1.0, 1.0, 0.0]))


def test_classifier_matches_eigenvalue_signs():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        line = sample_line(rng, n)
        sec, _ = classify_line_section(x, line)
        if sec.low_confidence:
            continue
        m2 = restrict_form(x, line)
        det = float(np.real(np.linalg.det(m2)))
        tr = float(np.real(np.trace(m2)))
        if sec.tag is SectionTag.CIRCLE:
            assert det < 0
        elif sec.tag is SectionTag.EMPTY:
            assert det > 0 or (det == 0 and abs(tr) > 0)


def _point_on(rng, x):
    from bombon.quadrics import random_point_on
    return random_point_on(rng, x)


def test_tangent_lines_never_circles():
    rng = np.random.default_rng(61)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        x = random_smooth_bombon(rng, n)
        p = _point_on(rng, x)
        h = tangent_space(x, p)
        for _ in range(20):
            coef = rng.standard_normal(h.basis.shape[1]) \
                + 1j * rng.standard_normal(h.basis.shape[1])
            q = ProjPoint(h.basis @ coef)
            if proj_close(q.v, p.v, 1e-9):
                continue
            sec, _ = classify_line_section(x, line_through(p, q))
            if not sec.low_confidence:
                assert sec.tag is not SectionTag.CIRCLE
        for _ in range(20):
            q = sample_point(rng, n)
            if h.contains_point(q) or proj_close(q.v, p.v, 1e-9):
                continue
            sec, _ = classify_line_section(x, line_through(p, q))
            if not sec.low_confidence:
                assert sec.tag is SectionTag.CIRCLE


def _side_codes(sides):
    assert all(isinstance(s, SideSign) for s in sides)
    return "".join("0" if s is SideSign.ON else s.value for s in sides)


def test_two_sides_probe_pinned():
    # Guard for any rewrite of the probe: the 16 labels of each ring
    # (radius 0.5 inner, radius 2 outer, in the circle's unit chart) are
    # pinned, including low-confidence circles whose inner ring lies near
    # the zero cut ("0" is ON).
    rng = np.random.default_rng(79)
    got = []
    while len(got) < 8:
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        line = sample_line(rng, n)
        sec, rep = classify_line_section(x, line, with_sides=True)
        if sec.tag is SectionTag.CIRCLE:
            got.append((_side_codes(rep.inner), _side_codes(rep.outer)))
    assert got == [("V" * 16, "U" * 16)] * 8

    u = random_unitary(np.random.default_rng(7), 3)
    line = ProjLine(u[:, 0] + 0.3 * u[:, 1] + 0.6 * u[:, 2], u[:, 2])
    # Each ring is a level set of the form: its values are 0.96x the cut
    # at eps = 1.28e-9 and 1.125x at 1.5e-9, far beyond rounding either
    # way; a ring at radius 0.45 would read 1.02x, all V, at 1.28e-9.
    pinned = {1.28e-9: "0" * 16, 1.5e-9: "V" * 16}
    for eps, inner in pinned.items():
        x = QuadricBombon(u @ np.diag([1.0, 1.0, -eps]) @ u.conj().T)
        sec, rep = classify_line_section(x, line, with_sides=True)
        assert sec.tag is SectionTag.CIRCLE and sec.low_confidence
        assert (_side_codes(rep.inner), _side_codes(rep.outer)) \
            == (inner, "U" * 16)
