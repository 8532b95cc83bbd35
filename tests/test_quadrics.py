"""Quadric bombons: construction, types, canonical forms, joins."""

import numpy as np
import pytest

from bombon.errors import NotABombon, NotComplementary, TypeMismatch
from bombon.linalg import max_abs, sym
from bombon.projective import ProjPoint, Subspace
from bombon.quadrics import (QuadricBombon, SideSign, SpecialKind,
                             equivalence_witness, join_with_apex, quad,
                             random_bombon, random_point_on,
                             random_smooth_bombon)
from bombon.suite import _conditioned, fullness_violation


def test_rejects_definite_and_zero():
    with pytest.raises(NotABombon):
        QuadricBombon(np.eye(3))
    with pytest.raises(NotABombon):
        QuadricBombon(np.diag([1.0, 2.0, 0.0]))
    with pytest.raises(NotABombon):
        QuadricBombon(np.zeros((3, 3)))
    with pytest.raises(NotABombon):
        QuadricBombon(-np.eye(2))


def test_quad_is_sesquilinear():
    a = np.array([[1.0, 1j], [-1j, 2.0]])
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert quad(a, u, v) == 1j
    assert quad(a, v, u) == -1j


def test_elliptic_example():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    t = x.bombon_type()
    assert (t.p, t.q, t.n, t.sing_dim) == (0, 1, 2, -1)
    assert str(t) == "(0,1)_2"
    assert x.classify_special() is SpecialKind.ELLIPTIC
    cu, cv = x.cores()
    assert cu.projective_dim == 1 and cv.projective_dim == 0


def test_special_kinds():
    assert QuadricBombon.from_epsilons([1, -1]).classify_special() \
        is SpecialKind.ELLIPTIC  # CP^1: elliptic wins over flat
    assert QuadricBombon.from_epsilons([1, -1, 0]).classify_special() \
        is SpecialKind.FLAT
    assert QuadricBombon.from_epsilons([1, -1, -1, 0]).classify_special() \
        is SpecialKind.CONICAL
    assert QuadricBombon.from_epsilons([1, 1, -1, -1]).classify_special() \
        is SpecialKind.GENERAL_FULL


def test_evaluate_sides():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    _, s = x.evaluate(ProjPoint([1.0, 0.0, 0.0]))
    assert s is SideSign.U
    _, s = x.evaluate(ProjPoint([0.0, 0.0, 1.0]))
    assert s is SideSign.V
    assert x.contains(ProjPoint([1.0, 0.0, 1.0]))
    assert x.value(ProjPoint([3j, 0.0, 3j])) == pytest.approx(0.0, abs=1e-15)


def test_fullness_identity():
    # also checks each type's own fullness_defect is 0
    assert fullness_violation(np.random.default_rng(31), 200) is None


def test_canonical_form_frozen():
    x = QuadricBombon.from_epsilons([2, -3])
    t, wit, canon = x.canonical_form()
    assert np.array_equal(canon, np.diag([1.0, -1.0]).astype(complex))
    assert not wit.flipped
    assert np.allclose(np.abs(wit.t),
                       np.diag([1 / np.sqrt(2), 1 / np.sqrt(3)]), atol=1e-12)
    assert wit.certifies(x.a, canon)


def test_canonical_flip():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    t, wit, canon = x.canonical_form()
    # more positives than negatives: the sign swap is recorded
    assert wit.flipped
    assert np.array_equal(np.diag(canon).real, [1.0, -1.0, -1.0])
    assert wit.certifies(x.a, canon)


def test_equivalence_witness_roundtrip():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        g = _conditioned(rng, n + 1)
        y = QuadricBombon(sym(g.conj().T @ x.a @ g))
        wit = equivalence_witness(x, y)
        assert wit.residual(x.a, y.a) <= 1e-8 * max(1.0, max_abs(x.a))


def test_equivalence_type_mismatch():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    y = QuadricBombon.from_epsilons([1, -1, 0])
    with pytest.raises(TypeMismatch):
        equivalence_witness(x, y)
    z = QuadricBombon.from_epsilons([1, -1])
    with pytest.raises(TypeMismatch):
        equivalence_witness(x, z)


def test_join_frozen():
    x = QuadricBombon.from_epsilons([1, 1, -1])
    gamma = Subspace(np.eye(4, dtype=complex)[:, :3])
    delta = Subspace(np.eye(4, dtype=complex)[:, 3:])
    j = join_with_apex(x, gamma, delta)
    assert max_abs(j.a - np.diag([1, 1, -1, 0]).astype(complex)) < 1e-12
    assert j.singular_locus().contains_point(ProjPoint([0, 0, 0, 1.0]))
    assert j.classify_special() is SpecialKind.CONICAL


def test_join_requires_complementary():
    x = QuadricBombon.from_epsilons([1, -1])
    gamma = Subspace(np.eye(3, dtype=complex)[:, :2])
    overlap = Subspace(np.eye(3, dtype=complex)[:, 1:])
    with pytest.raises(NotComplementary):
        join_with_apex(x, gamma, overlap)
    short = Subspace.empty(2)
    with pytest.raises(NotComplementary):
        join_with_apex(x, gamma, short)


def test_random_point_on_lands():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        x = random_bombon(rng, n)
        p = random_point_on(rng, x)
        assert x.contains(p)


def test_random_smooth_bombon_counts():
    rng = np.random.default_rng(43)
    for npos in (1, 2, 3):
        x = random_smooth_bombon(rng, 3, n_pos=npos)
        assert x.sig.n_pos == npos
        assert x.sig.n_zero == 0


def test_random_bombon_requested_kernel():
    rng = np.random.default_rng(47)
    x = random_bombon(rng, 4, n_pos=2, n_zero=1)
    assert (x.sig.n_pos, x.sig.n_neg, x.sig.n_zero) == (2, 2, 1)
    assert x.singular_locus().projective_dim == 0
