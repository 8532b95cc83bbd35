"""Convex bodies, disk sections, MVEE and abstract linear spans."""

import numpy as np
import pytest

from bombon.convexity import (AffineComplexLine, DiskTag, abstract_line_points,
                              ball_body, disk_section_test, ellipsoid_body,
                              linear_closure, mvee_complex, polydisk_body)
from bombon.errors import DegenerateSpan, NotOnSphere
from bombon.linalg import max_abs, sym
from bombon.suite import mvee_violation


def test_ball_membership():
    body = ball_body(2)
    assert body.inside(np.array([0.5, 0.0], dtype=complex))
    assert body.inside(np.array([0.0, 1.0], dtype=complex))
    assert not body.inside(np.array([0.8, 0.8], dtype=complex))
    batch = body.inside(np.array([[0.1, 0.1], [2.0, 0.0]], dtype=complex))
    assert list(batch) == [True, False]


def test_ellipsoid_body_validates():
    with pytest.raises(ValueError):
        ellipsoid_body(np.zeros(2, dtype=complex), np.diag([1.0, -1.0]))
    body = ellipsoid_body(np.zeros(2, dtype=complex), np.diag([1.0, 4.0]))
    assert body.inside(np.array([0.0, 0.5], dtype=complex))
    assert not body.inside(np.array([0.0, 0.6], dtype=complex))


def test_affine_line_normalizes_direction():
    line = AffineComplexLine(np.zeros(2, dtype=complex),
                             np.array([3.0, 0.0], dtype=complex))
    assert np.linalg.norm(line.direction) == pytest.approx(1.0)
    # scalar parameter gives a single row
    assert np.allclose(line.at(2.0), [[2.0, 0.0]])
    assert line.at(np.array([1.0, 2.0])).shape == (2, 2)
    with pytest.raises(ValueError):
        AffineComplexLine(np.zeros(2), np.zeros(2))


def test_disk_section_ellipsoid_frozen():
    body = ellipsoid_body(np.zeros(2, dtype=complex), np.diag([1.0, 4.0]))
    line = AffineComplexLine(np.array([0.0, 0.3], dtype=complex),
                             np.array([1.0, 0.0], dtype=complex))
    v = disk_section_test(body, line, rng=np.random.default_rng(0))
    assert v.tag is DiskTag.DISK
    assert abs(v.center) < 1e-3
    assert v.radius == pytest.approx(0.8, abs=1e-3)


def test_disk_section_empty_and_point():
    body = ball_body(2)
    far = AffineComplexLine(np.array([5.0, 0.0], dtype=complex),
                            np.array([0.0, 1.0], dtype=complex))
    assert disk_section_test(body, far).tag is DiskTag.EMPTY
    tangent = AffineComplexLine(np.array([1.0, 0.0], dtype=complex),
                                np.array([0.0, 1.0], dtype=complex))
    v = disk_section_test(body, tangent, rng=np.random.default_rng(1))
    assert v.tag is DiskTag.POINT


def test_bidisk_lens_detected():
    body = polydisk_body((1.0, 1.0))
    line = AffineComplexLine(np.array([0.5, 0.0], dtype=complex),
                             np.array([1.0, 1.0], dtype=complex))
    v = disk_section_test(body, line, rng=np.random.default_rng(2))
    assert v.tag is DiskTag.NOT_A_DISK
    assert v.deviation > 1e-3


def test_bidisk_centered_line_is_disk():
    # through the center every coordinate bound is a centered disk
    body = polydisk_body((1.0, 1.0))
    line = AffineComplexLine(np.zeros(2, dtype=complex),
                             np.array([1.0, 1.0], dtype=complex))
    v = disk_section_test(body, line, rng=np.random.default_rng(3))
    assert v.tag is DiskTag.DISK
    assert v.radius == pytest.approx(np.sqrt(2.0), rel=1e-3)


def test_mvee_symmetric_frozen():
    pts = np.array([[1.0], [-1.0], [1j], [-1j]], dtype=complex)
    ell = mvee_complex(pts, eps=1e-6)
    assert abs(ell.center[0]) < 1e-9
    assert max_abs(ell.h - np.eye(1)) < 1e-9
    assert ell.iterations <= 2
    assert mvee_complex(pts, eps=0.0).iterations == 1


def test_mvee_contains_and_certifies():
    failure = mvee_violation(np.random.default_rng(107), 8)
    assert failure is None, failure


def test_mvee_affine_equivariance():
    rng = np.random.default_rng(109)
    pts = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    s = np.array([[2.0, 1j], [0.0, 1.0]], dtype=complex)
    b = np.array([1.0, -2j], dtype=complex)
    e1 = mvee_complex(pts, eps=1e-7)
    e2 = mvee_complex(pts @ s.T + b, eps=1e-7)
    assert np.allclose(e2.center, s @ e1.center + b, atol=1e-6)
    assert max_abs(sym(s.conj().T @ e2.h @ s) - e1.h) < 1e-6


@pytest.mark.parametrize("eps", [-1.0, np.nan, np.inf])
def test_mvee_rejects_unreachable_eps(eps):
    # the largest leverage is at least n + 1, so eps < 0 is never met
    pts = np.array([[1.0], [-1.0], [1j], [-1j]], dtype=complex)
    with pytest.raises(ValueError, match="eps"):
        mvee_complex(pts, eps=eps)


def test_mvee_degenerate_span():
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], dtype=complex)
    with pytest.raises(DegenerateSpan):
        mvee_complex(pts)


def test_linear_closure_frozen():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    cl = linear_closure(np.stack([e1, e2]))
    assert cl.dim == 1
    c, r = cl.sphere_center_radius()
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)
    assert r == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    with pytest.raises(NotOnSphere):
        linear_closure(np.array([[0.5, 0.0]], dtype=complex))


def test_abstract_line_points_on_sphere_and_line():
    rng = np.random.default_rng(113)
    for _ in range(20):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = x / np.linalg.norm(x)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = y / np.linalg.norm(y)
        pts = abstract_line_points(x, y, k=12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)
        span = np.column_stack([x, y - x])
        for p in pts:
            coef, *_ = np.linalg.lstsq(span, p, rcond=None)
            assert np.linalg.norm(span @ coef - p) < 1e-9


def test_closure_of_line_points_stays_one_dimensional():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    pts = abstract_line_points(e1, e2, k=8)
    cl = linear_closure(pts)
    assert cl.dim == 1
    assert cl.contains(e1) and cl.contains(e2)
