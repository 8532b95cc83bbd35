"""Circle action, bundle projection, pseudo-unitary transports."""

import numpy as np
import pytest

from bombon.actions import (CoreSplit, bundle_projection,
                            homogeneity_transport, pseudo_unitary_check,
                            s1_action)
from bombon.errors import NotOnQuadric, NotSmooth
from bombon.linalg import max_abs
from bombon.projective import ProjPoint, proj_close
from bombon.quadrics import (QuadricBombon, random_point_on,
                             random_smooth_bombon)
from bombon.sections import classify_line_section
from bombon.suite import (fixed_point_violation, orbit_violation,
                          transport_tag_change)


def test_core_split_frozen():
    x = QuadricBombon.from_epsilons([1, -1])
    split = CoreSplit.from_quadric(x)
    assert np.allclose(split.p_pos, np.diag([1.0, 0.0]))
    assert np.allclose(split.p_neg, np.diag([0.0, 1.0]))
    v = np.array([1.0, 1.0], dtype=complex)
    moved = s1_action(split, np.pi / 2, v)
    assert np.allclose(moved, [1.0, 1j], atol=1e-15)


def test_core_split_needs_smooth():
    with pytest.raises(NotSmooth):
        CoreSplit.from_quadric(QuadricBombon.from_epsilons([1, -1, 0]))


def test_bundle_projection_frozen():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    split = CoreSplit.from_quadric(x)
    pu, pv = bundle_projection(x, split, ProjPoint([1.0, 0.0, 1.0]))
    assert proj_close(pu.v, np.array([1.0, 0.0, 0.0]))
    assert proj_close(pv.v, np.array([0.0, 0.0, 1.0]))


def test_bundle_projection_needs_on_point():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    split = CoreSplit.from_quadric(x)
    with pytest.raises(NotOnQuadric):
        bundle_projection(x, split, ProjPoint([1.0, 0.0, 0.0]))


def test_orbit_stays_on_quadric_and_line():
    failure = orbit_violation(np.random.default_rng(83), 40)
    assert failure is None, failure


def test_action_fixes_cores_only():
    failure = fixed_point_violation(np.random.default_rng(89), 10)
    assert failure is None, failure


def test_pseudo_unitary_check():
    a = np.diag([1.0, -1.0]).astype(complex)
    assert pseudo_unitary_check(np.diag([np.exp(0.3j), np.exp(-1.1j)]), a)
    assert not pseudo_unitary_check(np.diag([2.0, 1.0]).astype(complex), a)


def test_transport_frozen_pair():
    x = QuadricBombon.from_epsilons([1, -1])
    p = ProjPoint([1.0, 1.0])
    q = ProjPoint([1.0, 1j])
    wit = homogeneity_transport(x, p, q)
    assert wit.residual < 1e-12
    assert pseudo_unitary_check(wit.t, x.a)
    assert proj_close(wit.t @ p.v, q.v, 1e-10)


def test_transport_identity_shortcut():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    p = ProjPoint([1.0, 0.0, 1.0])
    wit = homogeneity_transport(x, p, ProjPoint([2.0, 0.0, 2.0]))
    assert max_abs(wit.t - np.eye(3)) == 0.0


def test_transport_random_pairs():
    rng = np.random.default_rng(97)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        x = random_smooth_bombon(rng, n)
        p = random_point_on(rng, x)
        q = random_point_on(rng, x)
        wit = homogeneity_transport(x, p, q)
        assert wit.residual <= 1e-8 * max_abs(x.a)
        assert proj_close(wit.t @ p.v, q.v, 1e-8)


def test_transport_requires_smooth_and_on():
    sing = QuadricBombon.from_epsilons([1, -1, 0])
    p = ProjPoint([1.0, 1.0, 0.0])
    with pytest.raises(NotSmooth):
        homogeneity_transport(sing, p, p)
    x = QuadricBombon.from_epsilons([1, 1, -1])
    with pytest.raises(NotOnQuadric):
        homogeneity_transport(x, ProjPoint([1.0, 0.0, 0.0]),
                              ProjPoint([1.0, 0.0, 1.0]))


def test_transport_preserves_section_tags():
    # judged with the two-sides probe on, the classifier's default
    failure, _ = transport_tag_change(np.random.default_rng(101), 5,
                                      classify_line_section)
    assert failure is None, failure
