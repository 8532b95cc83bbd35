"""Eigensolver, congruence and tolerance plumbing."""

import io
import json

import mpmath
import numpy as np
import pytest

from bombon import cli
from bombon.errors import NoConvergence
from bombon.linalg import (DEFAULT_TOL, as_cvector, congruence_to_signs,
                           form_values, hermitian_eig, hermitize, max_abs,
                           nullspace, orthonormal_columns, random_hermitian,
                           random_unitary, real_form, sq_norms, sym,
                           zero_tol)


def test_zero_tol_floor():
    assert zero_tol(np.zeros((2, 2))) == DEFAULT_TOL
    assert zero_tol(np.diag([5.0, 1.0])) == 5.0 * DEFAULT_TOL
    # small matrices do not shrink the threshold below the absolute floor
    assert zero_tol(np.diag([1e-6, 0.0])) == DEFAULT_TOL


def test_hermitize_rejects_asymmetry():
    with pytest.raises(ValueError):
        hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))
    m = hermitize(np.array([[1.0, 1j], [-1j, 2.0]]))
    assert max_abs(m - m.conj().T) == 0.0


def test_hermitize_validation_order():
    # 2-d first, then finite entries, then square, then symmetry.
    for bad, msg in ((np.ones(3), "2-d"),
                     (np.array([[1.0, np.nan, 0.0]]), "finite"),
                     (np.array([[1.0, 0.0], [0.0, complex(0, np.inf)]]),
                      "finite"),
                     (np.ones((2, 3)), "square"),
                     (np.array([[1.0, 2.0], [0.0, 1.0]]), "not Hermitian")):
        with pytest.raises(ValueError, match=msg):
            hermitize(bad)
    # an entry with finite parts is finite even when its modulus overflows
    z = 1.3e308 + 1.3e308j
    with np.errstate(over="ignore", invalid="ignore"):
        assert hermitize(np.array([[0, z], [np.conj(z), 0]])).shape == (2, 2)


def test_hermitize_huge_entries_halve_first():
    # Above half the float range (a + a*) / 2 would overflow; the result
    # is still the exact Hermitian part, without floating-point warnings.
    with np.errstate(all="raise"):
        for big in (9e307, 1.3e308, np.finfo(float).max):
            a = np.array([[big, 0.5 * big + 1e300j], [0.5 * big - 1e300j,
                                                       -big]])
            assert np.array_equal(hermitize(a), a)
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitize(np.array([[big, big], [-big, 0.0]]))
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitize(np.array([[big, 0.0], [0.0, 1j * big]]))
    # halving first is exact, so ordinary inputs get bitwise (a + a*) / 2
    rng = np.random.default_rng(5)
    for k in (2, 5, 24):
        for scale in (1e-300, 1.0, 1e307):
            a = scale * (rng.normal(size=(k, k))
                         + 1j * rng.normal(size=(k, k)))
            a = a + a.conj().T + 1e-14 * a
            assert np.array_equal(hermitize(a), (a + a.conj().T) / 2.0)


def test_as_cvector_accepts_noncontiguous():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    v = as_cvector(m[:, 1])
    assert np.array_equal(v, np.array([1, 4, 7], dtype=complex))
    with pytest.raises(ValueError):
        as_cvector(np.array([1.0, np.nan]))


def test_eig_frozen_2x2():
    sig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sig.eigvals, [-1.0, 1.0], atol=1e-12)
    assert (sig.n_pos, sig.n_neg, sig.n_zero) == (1, 1, 0)

    sig = hermitian_eig(np.array([[0.0, -1j], [1j, 0.0]]))
    assert np.allclose(sig.eigvals, [-1.0, 1.0], atol=1e-12)

    sig = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(sig.eigvals, [1.0, 3.0], atol=1e-12)


def test_eig_reconstructs_and_is_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(150):
        k = int(rng.integers(1, 8))
        a = random_hermitian(rng, k)
        sig = hermitian_eig(a)
        v = sig.eigbasis
        assert max_abs(v.conj().T @ v - np.eye(k)) < 1e-12
        recon = v @ np.diag(sig.eigvals) @ v.conj().T
        assert max_abs(recon - a) < 1e-11 * max(1.0, max_abs(a))
        assert np.all(np.diff(sig.eigvals) >= 0)


def test_eig_deterministic_phases():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 5)
    s1 = hermitian_eig(a)
    s2 = hermitian_eig(a.copy())
    assert np.array_equal(s1.eigbasis, s2.eigbasis)
    assert np.array_equal(s1.eigvals, s2.eigvals)


def loop_fix_phases(v):
    # Column-by-column phase pinning, the reference for the vectorized one.
    out = v.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        piv = col[int(np.argmax(np.abs(col)))]
        if piv != 0:
            out[:, j] = col * (np.conj(piv) / abs(piv))
    return out


def test_eig_phase_pinning_matches_column_loop():
    rng = np.random.default_rng(44)
    mats = [random_hermitian(rng, k, scale=10.0 ** rng.uniform(-3, 3))
            for k in range(1, 25) for _ in range(8)]
    mats += [np.diag([1.0, -1.0, 1.0, 0.0]).astype(complex),
             np.kron(np.eye(3), np.array([[0, 1j], [-1j, 0]])),
             np.ones((4, 4), dtype=complex), np.zeros((3, 3), dtype=complex)]
    for m in mats:
        sig = hermitian_eig(m)
        lam, v = np.linalg.eigh(hermitize(m))
        assert sig.eigvals.tobytes() == lam.tobytes()
        assert sig.eigbasis.tobytes() == loop_fix_phases(v).tobytes()
    assert hermitian_eig(np.zeros((0, 0))).eigbasis.shape == (0, 0)


def test_eig_repeated_and_zero_eigenvalues():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 5)
    d = np.array([2.0, 2.0, 0.0, 0.0, -3.0])
    a = sym(u @ np.diag(d) @ u.conj().T)
    sig = hermitian_eig(a)
    assert (sig.n_pos, sig.n_neg, sig.n_zero) == (2, 1, 2)
    k = sig.kernel()
    assert k.shape == (5, 2)
    assert max_abs(a @ k) < 1e-10


def test_eig_solver_failure_raises_no_convergence(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rng = np.random.default_rng(17)
    with pytest.raises(NoConvergence):
        hermitian_eig(random_hermitian(rng, 6))

    # the CLI reports it as a failed computation, not as bad input
    quadric = {"n": 1, "A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"quadric": quadric})))
    assert cli.main(["type"]) == cli._EXIT_FAILED
    assert "error" in json.loads(capsys.readouterr().out)


def test_signature_scale_tolerance():
    # eigenvalue below tol * max(1, |A|) counts as zero
    a = np.diag([1.0, 1e-12]).astype(complex)
    sig = hermitian_eig(a)
    assert (sig.n_pos, sig.n_neg, sig.n_zero) == (1, 0, 1)
    sig = hermitian_eig(a, tol=1e-14)
    assert (sig.n_pos, sig.n_neg, sig.n_zero) == (2, 0, 0)


def test_congruence_to_signs_frozen():
    t, signs = congruence_to_signs(np.diag([2.0, -3.0]).astype(complex))
    assert np.array_equal(signs, [1, -1])
    assert np.allclose(np.abs(t), np.diag([1 / np.sqrt(2), 1 / np.sqrt(3)]),
                       atol=1e-12)


def test_congruence_to_signs_random():
    rng = np.random.default_rng(23)
    for _ in range(60):
        k = int(rng.integers(1, 7))
        a = random_hermitian(rng, k)
        t, signs = congruence_to_signs(a)
        got = t.conj().T @ a @ t
        assert max_abs(got - np.diag(signs)) < 1e-9 * max(1.0, max_abs(a))
        assert list(signs) == sorted(signs, reverse=True)


def test_orthonormal_columns_drops_dependent():
    cols = np.array([[1.0, 2.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [0.0, 0.0, 0.0]], dtype=complex)
    q = orthonormal_columns(cols)
    assert q.shape == (3, 2)
    assert max_abs(q.conj().T @ q - np.eye(2)) < 1e-14


def test_nullspace_frozen():
    ns = nullspace(np.array([[1.0, 1.0, 0.0]], dtype=complex))
    assert ns.shape == (3, 2)
    assert max_abs(np.array([[1.0, 1.0, 0.0]]) @ ns) < 1e-9
    assert nullspace(np.zeros((0, 4))).shape == (4, 4)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(29)
    for k in (1, 3, 6):
        u = random_unitary(rng, k)
        assert max_abs(u.conj().T @ u - np.eye(k)) < 1e-12


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _check_form_values(a, rows):
    ref = np.real(np.einsum("...j,jk,...k->...", rows.conj(), a, rows))
    norms2 = np.real(np.einsum("...j,...j->...", rows.conj(), rows))
    scale = np.linalg.norm(a, 2) * norms2
    got = form_values(rows, real_form(a))
    assert got.shape == rows.shape[:-1]
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    assert np.all(np.abs(sq_norms(rows) - norms2) <= 1e-12 * norms2)


def test_real_form_is_symmetric_and_real():
    rng = np.random.default_rng(41)
    for k in range(1, 8):
        r = real_form(random_hermitian(rng, k))
        assert r.shape == (2 * k, 2 * k) and r.dtype == np.float64
        assert np.array_equal(r, r.T)


def test_form_values_match_einsum():
    rng = np.random.default_rng(43)
    for k in range(2, 8):
        a = random_hermitian(rng, k, scale=float(rng.uniform(0.1, 10.0)))
        for lead in ((37,), (4, 5, 5)):
            _check_form_values(a, _cgauss(rng, *lead, k))


def test_form_values_noncontiguous_rows():
    rng = np.random.default_rng(47)
    for k in range(2, 8):
        a = random_hermitian(rng, k)
        _check_form_values(a, _cgauss(rng, k, 23).T)
        _check_form_values(a, _cgauss(rng, 23, 2 * k)[:, ::2])
        _check_form_values(a, _cgauss(rng, 4, 5, 5, k)[:, ::2, ::-1])


# --- high-precision reference ----------------------------------------------
# A seeded corpus of hard spectra, checked against mpmath's Hermitian
# eigensolver at 40 digits: graded D M D with D in 10^[-6, 0]; eigenvalues
# clustered at +-1 within 1e-8 plus exact zeros; one eigenvalue at half or
# twice the zero threshold.


def _spectral(u, d):
    return sym(u @ np.diag(d) @ u.conj().T)


def _graded(rng, k):
    d = 10.0 ** rng.uniform(-6.0, 0.0, k)
    return sym(d[:, None] * random_hermitian(rng, k) * d[None, :])


def _clustered(rng, k):
    n_zero = max(1, k // 4)
    ones = rng.choice([-1.0, 1.0], k - n_zero)
    ones = ones + 1e-8 * rng.uniform(-1.0, 1.0, k - n_zero)
    d = np.concatenate([ones, np.zeros(n_zero)])
    return _spectral(random_unitary(rng, k), d)


def _near_cut(rng, k, factor):
    u = random_unitary(rng, k)
    d = rng.uniform(1.0, 3.0, k) * rng.choice([-1.0, 1.0], k)
    d[0] = 0.0
    d[0] = rng.choice([-1.0, 1.0]) * factor * zero_tol(_spectral(u, d))
    return _spectral(u, d)


def _reference_eigvals(a):
    with mpmath.workdps(40):
        e = mpmath.eighe(mpmath.matrix(a.tolist()), eigvals_only=True)
        return np.array([float(x) for x in e])


def test_eig_matches_high_precision_reference():
    rng = np.random.default_rng(53)
    eps = np.finfo(float).eps
    for k in (2, 4, 12, 24):
        corpus = [_graded(rng, k), _graded(rng, k),
                  _clustered(rng, k), _clustered(rng, k),
                  _near_cut(rng, k, 0.5), _near_cut(rng, k, 2.0)]
        for a in corpus:
            ref = _reference_eigvals(a)
            sig = hermitian_eig(a)
            bound = 16 * k * eps * float(np.max(np.abs(ref)))
            assert np.all(np.abs(sig.eigvals - ref) <= bound)
            thr = sig.zero_threshold
            assert (sig.n_pos, sig.n_neg) == (int(np.sum(ref > thr)),
                                              int(np.sum(ref < -thr)))
