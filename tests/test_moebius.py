"""Moebius maps, generalized circles, inversion and rotations."""

import numpy as np
import pytest

from bombon.errors import CoincidentPoints, PointOnCircle
from bombon.linalg import as_cvector, max_abs, sym
from bombon.moebius import (GenCircle, MoebiusMap, _fit_hermitian_through,
                            circle_through, conjugate_point,
                            pushforward_circle, rotation)
from bombon.projective import ProjPoint
from bombon.suite import (_off_circle_point, _random_gencircle,
                          involution_violation)

ZERO = ProjPoint([0.0, 1.0])
ONE = ProjPoint([1.0, 1.0])
INF = ProjPoint([1.0, 0.0])
I = ProjPoint([1j, 1.0])


def test_moebius_normalized_and_composes():
    f = MoebiusMap([[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(f.m, np.eye(2))
    g = MoebiusMap([[1.0, 1.0], [0.0, 1.0]])  # z + 1
    assert g.apply_affine(0.5) == pytest.approx(1.5)
    assert g.compose(g).apply_affine(0.0) == pytest.approx(2.0)
    assert g.inverse().compose(g).isclose(MoebiusMap.identity())
    with pytest.raises(ValueError):
        MoebiusMap([[1.0, 1.0], [1.0, 1.0]])


def test_apply_affine_hits_infinity():
    f = MoebiusMap([[0.0, 1.0], [1.0, 0.0]])  # 1/z
    assert f.apply_affine(0.0) == complex(np.inf, 0.0)
    assert f.apply(ZERO).isclose(INF)


def test_unit_circle_membership_and_sides():
    c = GenCircle.unit_circle()
    assert c.contains(ONE)
    assert c.contains(ProjPoint([np.exp(0.3j), 1.0]))
    assert c.side(ZERO) == -1
    assert c.side(INF) == 1
    assert c.side(ONE) == 0


def test_real_line_is_a_circle():
    c = GenCircle.real_line()
    for t in (-2.0, 0.0, 0.7):
        assert c.contains(ProjPoint([t, 1.0]))
    assert c.contains(INF)
    assert c.side(I) != c.side(ProjPoint([-1j, 1.0]))


def test_gencircle_rejects_definite():
    with pytest.raises(ValueError):
        GenCircle(np.eye(2))
    with pytest.raises(ValueError):
        GenCircle(np.diag([1.0, 0.0]))


def test_pushforward_frozen():
    inv = MoebiusMap([[0.0, 1.0], [1.0, 0.0]])  # 1/z
    assert pushforward_circle(inv, GenCircle.unit_circle()).isclose(
        GenCircle.unit_circle())
    assert pushforward_circle(inv, GenCircle.real_line()).isclose(
        GenCircle.real_line())


def test_pushforward_membership_random():
    rng = np.random.default_rng(67)
    for _ in range(60):
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(t)) < 0.1:
            continue
        f = MoebiusMap(t)
        c = GenCircle(sym(t.conj().T @ np.diag([1.0, -1.0]) @ t))
        push = pushforward_circle(f, c)
        z = ProjPoint([np.exp(2j * np.pi * rng.uniform()), 1.0])
        back = c.to_unit_chart().inverse().apply(z.v)
        assert abs(push.value(f.apply(back))) < 1e-9


def test_circle_through_frozen():
    assert circle_through(ZERO, ONE, INF).isclose(GenCircle.real_line())
    got = circle_through(ONE, I, ProjPoint([-1.0, 1.0]))
    assert got.isclose(GenCircle.unit_circle())
    with pytest.raises(CoincidentPoints):
        circle_through(ZERO, ZERO, ONE)


def test_to_unit_chart():
    rng = np.random.default_rng(71)
    for _ in range(40):
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(t)) < 0.1:
            continue
        c = GenCircle(sym(t.conj().T @ np.diag([1.0, -1.0]) @ t))
        chart = c.to_unit_chart()
        assert pushforward_circle(chart, c).isclose(GenCircle.unit_circle())


def test_conjugate_point_frozen():
    c = GenCircle.unit_circle()
    assert conjugate_point(c, ZERO).isclose(INF)
    assert conjugate_point(c, INF).isclose(ZERO)
    half = ProjPoint([0.5, 1.0])
    assert conjugate_point(c, half).isclose(ProjPoint([2.0, 1.0]))
    r = GenCircle.real_line()
    assert conjugate_point(r, I).isclose(ProjPoint([-1j, 1.0]))
    with pytest.raises(PointOnCircle):
        conjugate_point(c, ONE)


def test_conjugate_point_involution():
    failure = involution_violation(np.random.default_rng(73), 50)
    assert failure is None, failure


def test_rotation_multiplier_frozen():
    c = GenCircle.unit_circle()
    theta = 0.9
    f = rotation(c, ZERO, theta)
    got = f.apply_affine(1.0)
    assert got == pytest.approx(np.exp(1j * theta), abs=1e-12)
    # the center and its conjugate stay put
    assert f.apply(ZERO).isclose(ZERO)
    assert f.apply(INF).isclose(INF)
    # general positions: the map fixes u and its conjugate, its
    # derivative 1 / (m10 z0 + m11)^2 at z0 = u0 / u1 is e^{i theta}, and
    # the circle's witness zeros lie on it
    rng = np.random.default_rng(83)
    for _ in range(40):
        c = _random_gencircle(rng)
        u = _off_circle_point(rng, c)
        theta = rng.uniform(-np.pi, np.pi)
        f = rotation(c, u, theta)
        for p in (u, conjugate_point(c, u)):
            assert f.apply(p).isclose(p, 1e-12)
        z0 = u.v[0] / u.v[1]
        slope = 1.0 / (f.m[1, 0] * z0 + f.m[1, 1]) ** 2
        assert abs(slope - np.exp(1j * theta)) <= 1e-8
        assert all(c.contains(z) for z in c.witness_zeros())


def test_rotation_preserves_circle():
    rng = np.random.default_rng(79)
    c = GenCircle.unit_circle()
    f = rotation(c, ZERO, 2.2)
    for _ in range(20):
        z = ProjPoint([np.exp(2j * np.pi * rng.uniform()), 1.0])
        assert abs(c.value(f.apply(z))) < 1e-12


def test_rotation_rejects_center_on_circle():
    with pytest.raises(PointOnCircle):
        rotation(GenCircle.unit_circle(), ONE, 1.0)


def test_rotation_group_law():
    c = GenCircle.real_line()
    f = rotation(c, I, 0.6)
    g = rotation(c, I, 1.1)
    h = rotation(c, I, 1.7)
    for z in (ZERO, ONE, ProjPoint([2.0, 1.0])):
        assert f.apply(g.apply(z).v).isclose(h.apply(z), 1e-9)


def test_rotation_conjugate_center_reverses():
    c = GenCircle.unit_circle()
    u = ProjPoint([0.3 + 0.1j, 1.0])
    v = conjugate_point(c, u)
    f = rotation(c, u, 0.8)
    g = rotation(c, v, -0.8)
    for z in (ONE, I, ProjPoint([0.2, 1.0])):
        assert f.apply(z).isclose(g.apply(z), 1e-9)


def _fit_per_point(points):
    # Reference: the per-point loop the one-step fit replaced.
    rows = []
    for p in points:
        v = p.v if isinstance(p, ProjPoint) else as_cvector(p)
        v = v / np.linalg.norm(v)
        x, y = v[0], v[1]
        xy = np.conj(x) * y
        rows.append([abs(x) ** 2, 2.0 * xy.real, -2.0 * xy.imag, abs(y) ** 2])
    a = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(a)
    coef = vt[-1]
    resid = float(s[-1]) if a.shape[0] >= 4 else 0.0
    m = np.array([[coef[0], coef[1] + 1j * coef[2]],
                  [coef[1] - 1j * coef[2], coef[3]]], dtype=complex)
    return m, resid


def _zero_sets(rng, count):
    # Zero sets as the oracle verifier traces them: circles of random
    # quadric oracles, on raw (non-unit) homogeneous rows, plus noisy
    # points near a random circle given as ProjPoints.
    from bombon.oracles import _trace_zeros, cp1_grid, oracle_from_quadric
    from bombon.projective import sample_line
    from bombon.quadrics import random_bombon

    grid = cp1_grid(128)
    sets = []
    while len(sets) < count:
        n = int(rng.integers(1, 6))
        oracle = oracle_from_quadric(random_bombon(rng, n))
        basis = sample_line(rng, n).basis()
        lab = oracle.labels(grid @ basis.T)
        if not (np.any(lab == 1) and np.any(lab == -1)):
            continue
        ends = np.column_stack([grid[np.argmax(lab == 1)],
                                grid[np.argmax(lab == -1)]])
        zeros, = _trace_zeros(oracle.on_lines(basis[None]), basis[None],
                              ends[None])
        if zeros is not None:
            sets.append(zeros)
        t = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        back = np.linalg.inv(t)
        w = np.exp(2j * np.pi * rng.random(12)) * (1 + 1e-3 * rng.random(12))
        hom = np.column_stack([w, np.ones_like(w)]) @ back.T
        sets.append([ProjPoint(h * rng.uniform(1e-3, 1e3)) for h in hom])
    return sets


def test_fit_matches_per_point_loop():
    rng = np.random.default_rng(71)
    for pts in _zero_sets(rng, 60):
        m, resid = _fit_hermitian_through(pts)
        m0, resid0 = _fit_per_point(pts)
        scale = max_abs(m0)
        # the singular vector is fixed up to sign
        assert min(max_abs(m - m0), max_abs(m + m0)) <= 1e-12 * scale
        assert abs(resid - resid0) <= 1e-12 * max(1.0, resid0)


def test_circle_through_matches_per_point_fit():
    rng = np.random.default_rng(73)
    for _ in range(100):
        pts = [ProjPoint(rng.standard_normal(2) + 1j * rng.standard_normal(2))
               for _ in range(3)]
        raw = [p.v for p in pts]
        m0, _ = _fit_per_point(pts)
        if float(np.real(np.linalg.det(m0))) >= 0:
            continue
        want = GenCircle(m0)
        assert circle_through(*pts).isclose(want, 1e-12)
        assert circle_through(*raw).isclose(want, 1e-12)
