import numpy as np
import pytest

from bombon.errors import CoincidentPoints, ZeroVector
from bombon.linalg import form_values, real_form
from bombon.projective import (ProjLine, ProjPoint, Subspace, canonicalize,
                               form_value, line_through, meet, perp,
                               proj_close, sample_line, sample_point, span,
                               unit_rep)


def test_canonicalize_frozen():
    got = canonicalize(np.array([1 + 1j, 1 - 1j]))
    assert np.allclose(got, [1.0, -1j], atol=1e-15)
    # already canonical vectors are exact fixed points
    assert np.array_equal(canonicalize(got), got)


def test_canonicalize_scale_invariant():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lam = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
        assert np.allclose(canonicalize(v), canonicalize(lam * v), atol=1e-12)


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        ProjPoint([0.0, 0.0, 0.0])
    with pytest.raises(ZeroVector):
        unit_rep(np.zeros(3, dtype=complex))


def test_form_value_rule():
    a = np.diag([1.0, 1.0, -1.0]).astype(complex)
    # an exact zero of the form reads exactly 0 at any scale, also where
    # the squared entries would under- or overflow
    for s in (1.0, 2.0 ** -600, 2.0 ** 600):
        assert form_value(a, [s, 0.0, s]) == 0.0
    assert form_value(a, ProjPoint([2.0, 0.0, 2.0])) == 0.0
    # Re(v* A v) / (v* v), the rule of the batched oracle kernel, for
    # representatives from tiny to huge
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m + m.conj().T
    for scale in (1e-250, 1.0, 1e250):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        q, lam = real_form(m)
        value, norm2 = form_values(
            v, (q, np.column_stack([lam, np.ones_like(lam)])))
        want = value / norm2
        assert form_value(m, scale * v) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ZeroVector):
        form_value(a, np.zeros(3))


def test_proj_close_ignores_phase_and_scale():
    p = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert proj_close(p, np.exp(0.7j) * 5 * p)
    assert not proj_close(p, p + np.array([0.0, 0.0, 1.0]))


def test_line_through_and_point():
    p = ProjPoint([1.0, 0.0, 0.0])
    q = ProjPoint([0.0, 1.0, 0.0])
    line = line_through(p, q)
    mid = line.point(1.0, 1.0)
    assert proj_close(mid.v, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(CoincidentPoints):
        line_through(p, ProjPoint([2.0, 0.0, 0.0]))


def test_line_basis_columns():
    rng = np.random.default_rng(2)
    for _ in range(50):
        line = sample_line(rng, 3)
        b = line.basis()
        assert b.shape == (4, 2)
        assert np.array_equal(b[:, 0], line.a)
        assert np.array_equal(b[:, 1], line.b)
        assert np.linalg.matrix_rank(b) == 2


def test_subspace_membership():
    s = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]).astype(complex))
    assert s.projective_dim == 1
    assert s.contains_point(ProjPoint([2.0, -1j, 0.0]))
    assert not s.contains_point(ProjPoint([0.0, 0.0, 1.0]))
    full = Subspace.full(2)
    assert full.contains_subspace(s)
    assert Subspace.empty(2).projective_dim == -1


def test_meet_frozen():
    # two planes in CP^3 meet in a line
    s = Subspace(np.eye(4, dtype=complex)[:, :3])
    t = Subspace(np.eye(4, dtype=complex)[:, 1:])
    m = meet(s, t)
    assert m.projective_dim == 1
    assert m.contains_point(ProjPoint([0.0, 1.0, 0.0, 0.0]))
    assert m.contains_point(ProjPoint([0.0, 0.0, 1.0, 0.0]))


def test_span_and_perp():
    pts = [ProjPoint([1.0, 0.0, 0.0]), ProjPoint([1.0, 1.0, 0.0])]
    s = span(pts, 2)
    assert s.projective_dim == 1
    p = perp(s)
    assert p.projective_dim == 0
    assert p.contains_point(ProjPoint([0.0, 0.0, 1.0]))


def test_meet_generic_dimension():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        k1 = int(rng.integers(1, n + 2))
        k2 = int(rng.integers(1, n + 2))
        s = Subspace(rng.standard_normal((n + 1, k1))
                     + 1j * rng.standard_normal((n + 1, k1)))
        t = Subspace(rng.standard_normal((n + 1, k2))
                     + 1j * rng.standard_normal((n + 1, k2)))
        got = meet(s, t).basis.shape[1]
        assert got == max(0, k1 + k2 - (n + 1))


def test_sampling_deterministic():
    a = sample_point(np.random.default_rng(9), 3)
    b = sample_point(np.random.default_rng(9), 3)
    assert np.array_equal(a.v, b.v)
    la = sample_line(np.random.default_rng(9), 3)
    lb = sample_line(np.random.default_rng(9), 3)
    assert np.array_equal(la.a, lb.a) and np.array_equal(la.b, lb.b)


def test_projline_rejects_coincident():
    with pytest.raises(CoincidentPoints):
        ProjLine([1.0, 0.0], [2.0, 0.0])
