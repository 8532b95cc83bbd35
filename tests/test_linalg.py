"""Eigensolver, congruence and tolerance plumbing."""

import ast
import io
import json
import pathlib
import warnings

import mpmath
import numpy as np
import pytest

from bombon import cli
from bombon.errors import NoConvergence
from bombon.linalg import (DEFAULT_TOL, _gauge, as_cvector,
                           congruence_to_signs, form_values, hermitian_eig,
                           hermitize, max_abs, nullspace, orthonormal_columns,
                           random_hermitian, random_unitary, real_form,
                           real_map, sym, zero_tol)
from bombon.projective import _form_value, _unit


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


def _value_norm_form(a):
    q, lam = real_form(a)
    return q, np.column_stack([lam, np.ones_like(lam)])


def _check_form_values(a, rows):
    ref = np.real(np.einsum("...j,jk,...k->...", rows.conj(), a, rows))
    norms2 = np.real(np.einsum("...j,...j->...", rows.conj(), rows))
    scale = np.linalg.norm(a, 2) * norms2
    got = form_values(rows, real_form(a))
    assert got.shape == rows.shape[:-1]
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
    # weights [lam, 1]: the value and the squared norm in one product
    vn = form_values(rows, _value_norm_form(a))
    assert vn.shape == rows.shape[:-1] + (2,)
    assert np.all(np.abs(vn[..., 0] - ref) <= 1e-12 * scale)
    assert np.all(np.abs(vn[..., 1] - norms2) <= 1e-12 * norms2)


def test_real_form_is_symmetric_and_real():
    # The factored form q diag(lam) q^T is real and symmetric by
    # construction; q is orthogonal and the product is the real form of
    # the Hermitian matrix, kron(Re a, I) + kron(Im a, J).
    rng = np.random.default_rng(41)
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    for k in range(1, 8):
        a = random_hermitian(rng, k)
        q, lam = real_form(a)
        assert q.shape == (2 * k, 2 * k) and q.dtype == np.float64
        assert lam.shape == (2 * k,) and lam.dtype == np.float64
        assert max_abs(q.T @ q - np.eye(2 * k)) <= 1e-12
        r = np.kron(a.real, np.eye(2)) + np.kron(a.imag, j2)
        assert max_abs((q * lam) @ q.T - r) <= 1e-12 * np.linalg.norm(a, 2)


def test_real_map_is_the_complex_product():
    rng = np.random.default_rng(49)
    for r, k in ((2, 2), (2, 5), (3, 4)):
        b = _cgauss(rng, 6, r, k)
        rows = _cgauss(rng, 6, 11, r)
        got = (rows.view(np.float64) @ real_map(b)).view(complex)
        want = rows @ b
        assert got.shape == want.shape == (6, 11, k)
        assert np.all(np.abs(got - want)
                      <= 1e-14 * np.abs(rows) @ np.abs(b))
    assert real_map(b[0]).shape == (2 * r, 2 * k)


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


def _singular(rng, k):
    # exactly singular: a Hermitian (k-1) x (k-1) block bordered by a
    # zero row and column, moved to a random index; returns the form and
    # that index, whose unit vector spans the exact kernel
    a = np.zeros((k, k), dtype=complex)
    a[1:, 1:] = random_hermitian(rng, k - 1)
    perm = rng.permutation(k)
    return a[np.ix_(perm, perm)], int(np.argmin(perm))


def _reference_values(a, rows):
    with mpmath.workdps(40):
        am = mpmath.matrix(a.tolist())
        out = []
        for p in rows:
            pm = mpmath.matrix(p.tolist())
            out.append(float(mpmath.re((pm.H * am * pm)[0])))
        return np.array(out)


def test_form_values_match_high_precision_reference():
    # |got - exact| <= c eps |A|_2 |p|^2 for graded, clustered and exactly
    # singular forms scaled from 1e-150 to 1e150, on contiguous and
    # strided rows; kernel rows of the singular forms read at most that
    rng = np.random.default_rng(59)
    eps = np.finfo(float).eps
    for k in (2, 3, 6, 12):
        sing, zero = _singular(rng, k)
        for base in (_graded(rng, k), _clustered(rng, k), sing):
            rows = _cgauss(rng, 6, 2 * k)[:, ::2]
            rows[0] = 0.0
            rows[0, zero] = rng.standard_normal() + 1j
            for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
                a = base * scale
                got = form_values(rows, real_form(a))
                ref = _reference_values(a, rows)
                norms2 = np.sum(np.abs(rows) ** 2, axis=1)
                bound = 16 * k * eps * np.linalg.norm(a, 2) * norms2
                assert np.all(np.abs(got - ref) <= bound)


def test_gauge_scales_each_slice_exactly():
    # Each column of a stack, or the whole array, scaled by 2^e to
    # largest entry (by |Re| or |Im|) in [1, 2), undone bit for bit by
    # 2^-e; zero and non-finite columns keep e = 0 and their entries.
    rng = np.random.default_rng(53)
    b = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    b *= 10.0 ** rng.uniform(-300.0, 300.0, (3, 1, 2))
    b[1, :, 0] = 0.0
    b[2, 1, 1] = np.nan
    b[0, :, 1] = [1e308 + 1e308j, 0.5, 0.0, -1e308]
    got, e = _gauge(b, axis=1)
    assert e.shape == (3, 1, 2) and e.dtype.kind == "i"
    assert e[1, 0, 0] == 0 and e[2, 0, 1] == 0
    big = np.maximum(np.abs(got.real), np.abs(got.imag)).max(axis=1)
    live = np.isfinite(big) & (big > 0.0)
    assert np.all((big[live] >= 1.0) & (big[live] < 2.0))
    undone = np.ldexp(got.real, -e) + 1j * np.ldexp(got.imag, -e)
    assert np.array_equal(undone, b, equal_nan=True)
    # with no axis, e is one int for the whole array
    x, ex = _gauge(np.array([0.0, -3e-200, 1e-201]))
    assert type(ex) is int and x[1] == np.ldexp(-3e-200, ex)
    assert x.dtype == complex and -2.0 < x[1].real <= -1.0
    assert _gauge(np.zeros(3))[1] == 0
    tiny = np.finfo(float).smallest_subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, want in (
                # |Re| and |Im| are finite where the modulus overflows
                ([[1.5e308 + 1.5e308j, -1.0], [0.0, 0.5j]], -1023),
                # subnormal only: 2^e itself would overflow
                ([3 * tiny, -5j * tiny, 0.0], 1072),
                ([[0.0, -0.0], [0.0, 0.0]], 0)):
            a = np.array(a, dtype=complex)
            x, ex = _gauge(a)
            assert ex == want and x.shape == a.shape and x is not a
            big = np.maximum(np.abs(x.real), np.abs(x.imag)).max()
            assert 1.0 <= big < 2.0 or not a.any()
            undone = np.ldexp(x.real, -ex) + 1j * np.ldexp(x.imag, -ex)
            assert np.array_equal(undone, a)


def _two_part_gauge(a, axis):
    # the gauge's axis form before it read a float view: the largest |Re|
    # or |Im| of each slice, and the real and imaginary parts scaled
    # apart
    big = np.maximum(np.abs(a.real), np.abs(a.imag)).max(
        axis=axis, keepdims=True, initial=0.0)
    e = np.where(np.isfinite(big) & (big > 0.0), 1 - np.frexp(big)[1], 0)
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, e), np.ldexp(a.imag, e)
    return out, e


def test_gauge_float_view_keeps_the_two_part_bytes():
    # The axis form reads the array as floats, one abs, one max and one
    # ldexp, and gives the bytes and exponents of the two-part form, on
    # slices that are zero, subnormal, near 2^1023, infinite or NaN, and
    # on a strided view.
    rng = np.random.default_rng(89)
    tiny = np.finfo(float).smallest_subnormal
    b = rng.standard_normal((9, 4, 3)) + 1j * rng.standard_normal((9, 4, 3))
    b *= 10.0 ** rng.uniform(-300.0, 300.0, (9, 1, 3))
    b[0] = 0.0
    b[1] = b[1] / np.abs(b[1]).max() * 1e-310
    b[2, :, 0] = [3 * tiny, -5j * tiny, 0.0, tiny + 2j * tiny]
    b[3] = b[3] / np.abs(b[3]).max() * 1.7e308
    b[4, 1, 1] = np.inf
    b[5, 2, 2] = complex(0.0, -np.inf)
    b[6, 0, 0] = np.nan
    b[7, 3, 1] = complex(np.nan, 1.0)
    b[8, :, 2] = [1.5e308 + 1.5e308j, -0.0, 0.5, -1e308]
    with np.errstate(all="ignore"):
        for a in (b, b[:, ::2, 1:]):
            for axis in (1, (1, 2), (-2, -1)):
                got, e = _gauge(a, axis=axis)
                want, we = _two_part_gauge(a, axis)
                assert got.tobytes() == want.tobytes()
                assert e.shape == we.shape and e.tobytes() == we.tobytes()


def _modulus_scale(w):
    # the reference rule: a power of two from the largest entry modulus,
    # which overflows where |Re| or |Im| do not
    return w * np.ldexp(1.0, 1 - np.frexp(np.abs(w).max())[1])


def test_gauged_cores_keep_the_bits_of_the_modulus_rule():
    # On entries whose moduli and products stay in the normal range, the
    # gauge and the modulus rule differ by at most one power of two, which
    # the unit representative, the form value and Gram-Schmidt divide out
    # exactly: each core returns the bits of the rule it replaced.  Gram-
    # Schmidt itself is unchanged, so the old result is that of columns
    # the old rule scaled, which are in range and go through unscaled.
    rng = np.random.default_rng(61)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        s = 10.0 ** rng.uniform(-300.0, 300.0)
        v = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) * s
        with np.errstate(all="ignore"):
            n = np.linalg.norm(v)
        w = v if 2.0 ** -511 <= n < np.inf else _modulus_scale(v)
        assert _unit(v).tobytes() == (w / np.linalg.norm(w)).tobytes()
        a = random_hermitian(rng, k)
        u = _modulus_scale(v)
        want = float(np.vdot(u, a @ u).real / np.vdot(u, u).real)
        assert _form_value(a, v) == want
        cols = (rng.standard_normal((k, 2)) + 1j * rng.standard_normal(
            (k, 2))) * s
        with np.errstate(all="ignore"):
            big = np.linalg.norm(cols, axis=0).max()
        plain = cols if 2.0 ** -511 <= big < np.inf else _modulus_scale(cols)
        assert orthonormal_columns(cols).tobytes() == \
            orthonormal_columns(plain).tobytes()


def test_only_linalg_scales_by_powers_of_two():
    # The gauge is the package's one scaling rule: no module but linalg
    # calls frexp or ldexp, under any name they are reached by.
    calls = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name in ("frexp", "ldexp"):
                    calls.append((path.name, node.lineno, name))
            elif isinstance(node, ast.ImportFrom):
                calls += [(path.name, node.lineno, a.name) for a in node.names
                          if a.name in ("frexp", "ldexp")]
    outside = [call for call in calls if call[0] != "linalg.py"]
    assert calls and not outside, outside


def test_modules_use_every_name_they_import():
    # No linter runs on the package: an import left behind by a refactor
    # is caught here.  __init__ imports names only to export them.
    unused = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.partition(".")[0]
                         for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [(path.name, node.lineno, name) for name in names
                       if name not in used]
    assert not unused, unused


def test_private_helpers_are_read():
    # A private helper left behind by a refactor is caught here: each
    # private top-level function of a module is read in that module or
    # imported by another, and each private method name is read somewhere
    # in the package.  Dunder methods are called by Python itself.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(cli.__file__).parent.glob("*.py")}
    nodes = [n for tree in trees.values() for n in ast.walk(tree)]
    imported = {a.name for n in nodes if isinstance(n, ast.ImportFrom)
                for a in n.names}
    attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}

    def private(defs):
        return [d for d in defs if isinstance(d, ast.FunctionDef)
                and d.name.startswith("_") and not d.name.endswith("__")]

    dead = []
    for name, tree in sorted(trees.items()):
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        dead += [(name, d.name) for d in private(tree.body)
                 if d.name not in read | imported]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                dead += [(name, f"{cls.name}.{d.name}")
                         for d in private(cls.body) if d.name not in attrs]
    assert not dead, dead
