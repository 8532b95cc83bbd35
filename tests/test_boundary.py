"""Validate once, at the public boundary.

Public entry points coerce and check outside input, then call a private
core that trusts arrays the library built.  These tests hold the two
halves together: every public entry point still rejects NaN, inf and
zero input with its typed error and message, each core gives bit for
bit what its public path gives, and neither the section classifier nor
the axiom verifier re-validates anything it built itself.
"""

import io
import json
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import bombon
from bombon import jsonio, linalg, oracles
from bombon.cli import main
from bombon.convexity import (AffineComplexLine, ball_body, disk_section_test,
                              ellipsoid_body, polydisk_body)
from bombon.errors import CoincidentPoints, NotABombon, ZeroVector
from bombon.linalg import (_hermitian_eig, circle_frame, hermitian_eig,
                           hermitize, random_unitary, sym, zero_tol)
from bombon.moebius import GenCircle, MoebiusMap, conjugate_point, rotation
from bombon.oracles import (RunConfig, bidisk_oracle, oracle_from_quadric,
                            verify_axioms)
from bombon.projective import (ProjLine, ProjPoint, Subspace, _canonical,
                               _form_value, canonicalize, form_value,
                               line_through, proj_close, sample_line, span,
                               unit_rep)
from bombon.quadrics import QuadricBombon, SideSign, random_bombon
from bombon.sections import (SectionTag, classify_line_section, restrict_form,
                             side_rings)

NAN, INF = float("nan"), float("inf")
GOOD = np.array([1.0, 0.5j, -0.25])
OTHER = np.array([0.0, 1.0, 0.5])
BAD_VECTORS = {"nan": [1.0, NAN, 0.0], "inf": [INF, 1.0, 0.0],
               "zero": [0.0, 0.0, 0.0]}
BAD_MATRICES = {"nan": np.diag([1.0, NAN, -1.0]),
                "inf": np.diag([INF, 1.0, -1.0]),
                "zero": np.zeros((3, 3))}
ELL3 = QuadricBombon(np.diag([1.0, 1.0, -1.0]))

NOT_FINITE = (ValueError, "coordinates must be finite")
MATRIX_NOT_FINITE = (ValueError, "matrix entries must be finite")
NO_UNIT = (ZeroVector, "zero vector has no unit representative")
NO_CANONICAL = (ZeroVector, "cannot canonicalize a zero vector")
NO_VALUE = (ZeroVector, "zero vector has no form value")


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, complex)]


# entry point -> (call on a bad vector v, error for zero input); NaN and
# inf input give NOT_FINITE everywhere
VECTOR_ENTRIES = {
    "ProjPoint": (ProjPoint, NO_CANONICAL),
    "canonicalize": (canonicalize, NO_CANONICAL),
    "ProjLine.a": (lambda v: ProjLine(v, OTHER), NO_UNIT),
    "ProjLine.b": (lambda v: ProjLine(GOOD, v), NO_UNIT),
    "line_through.p": (lambda v: line_through(v, OTHER), NO_UNIT),
    "line_through.q": (lambda v: line_through(ProjPoint(GOOD), v), NO_UNIT),
    "ProjPoint.isclose": (lambda v: ProjPoint(GOOD).isclose(v), NO_UNIT),
    "proj_close.u": (lambda v: proj_close(v, GOOD), NO_UNIT),
    "proj_close.v": (lambda v: proj_close(GOOD, v), NO_UNIT),
    "form_value": (lambda v: form_value(ELL3.a, v), NO_VALUE),
    "QuadricBombon.value": (ELL3.value, NO_VALUE),
    "QuadricBombon.evaluate": (ELL3.evaluate, NO_VALUE),
    "QuadricBombon.side": (ELL3.side, NO_VALUE),
    "QuadricBombon.contains": (ELL3.contains, NO_VALUE),
    "QuadricBombon.require_on": (ELL3.require_on, NO_VALUE),
    "decode_point": (lambda v: jsonio.decode_point(_pairs(v)), NO_CANONICAL),
    "decode_line.a": (lambda v: jsonio.decode_line(
        {"a": _pairs(v), "b": _pairs(OTHER)}), NO_UNIT),
    "decode_line.b": (lambda v: jsonio.decode_line(
        {"a": _pairs(GOOD), "b": _pairs(v)}), NO_UNIT),
}

# entry point -> (call on a bad matrix m, error for the zero matrix or
# None when the zero matrix is valid input)
MATRIX_ENTRIES = {
    "QuadricBombon": (QuadricBombon,
                      (NotABombon, "the zero matrix defines no quadric")),
    "hermitian_eig": (hermitian_eig, None),
    "decode_quadric": (lambda m: jsonio.decode_quadric(
        {"A": [_pairs(r) for r in m]}),
        (NotABombon, "the zero matrix defines no quadric")),
    "decode_body": (lambda m: jsonio.decode_body(
        {"type": "ellipsoid", "H": [_pairs(r) for r in m]}),
        (ValueError, "ellipsoid form must be positive definite")),
}
# the ellipsoid decoder takes a Hermitian part before it checks, and inf
# entries make numpy warn there first
QUIET = {"decode_body"}


@pytest.mark.parametrize("kind", sorted(BAD_VECTORS))
@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
def test_vector_entry_points_reject_bad_input(entry, kind):
    call, zero_error = VECTOR_ENTRIES[entry]
    err, msg = zero_error if kind == "zero" else NOT_FINITE
    with pytest.raises(err) as exc:
        call(np.array(BAD_VECTORS[kind], dtype=complex))
    assert str(exc.value) == msg


@pytest.mark.parametrize("kind", sorted(BAD_MATRICES))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRIES))
def test_matrix_entry_points_reject_bad_input(entry, kind):
    call, zero_error = MATRIX_ENTRIES[entry]
    if kind == "zero" and zero_error is None:
        assert hermitian_eig(BAD_MATRICES[kind]).n_zero == 3
        return
    err, msg = zero_error if kind == "zero" else MATRIX_NOT_FINITE
    quiet = "ignore" if entry in QUIET else "raise"
    with pytest.raises(err) as exc, np.errstate(invalid=quiet):
        call(BAD_MATRICES[kind])
    assert str(exc.value) == msg


@pytest.mark.parametrize("kind", ["nan", "inf"])
def test_span_rejects_nonfinite(kind):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        span([np.array(BAD_VECTORS[kind], dtype=complex), GOOD])
    # a zero vector adds nothing to a span
    assert span([np.zeros(3), GOOD]).projective_dim == 0


def test_overflowing_products_keep_their_errors():
    # arrays the library builds from finite input can still overflow; the
    # cores raise what the public checks raised
    x = QuadricBombon(np.diag([1e200, 1e200, -1e200]))
    line = ProjLine([1e100, 0.0, 0.0], [0.0, 1e100, 1e100])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            classify_line_section(x, line)
        for s, t in ((NAN, 1.0), (INF, 0.0), (1e300, 1e300)):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                ProjLine([1e10, 0.0, 1.0], [0.0, 1e10, 1.0]).point(s, t)
    with pytest.raises(ZeroVector, match="cannot canonicalize a zero"):
        ProjLine(GOOD, OTHER).point(0.0, 0.0)


# --- cores against their public paths -----------------------------------


def _reference_form_value(a, v):
    # the public rule as it read with numpy's frexp and ldexp
    big = float(np.abs(v).max())
    v = v * np.ldexp(1.0, 1 - np.frexp(big)[1])
    return float(np.vdot(v, a @ v).real / np.vdot(v, v).real)


SCALES = (1.0, 2.0 ** 600, 2.0 ** -600, 1e150, 1e-150)


def _circle_lines(seed, count):
    # (quadric, line) pairs with circle sections on CP^1..CP^5, kernels
    # of every size
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = len(out) % 5 + 1
        x = random_bombon(rng, n)
        line = sample_line(rng, n)
        sec, _ = classify_line_section(x, line, with_sides=False)
        if sec.tag is SectionTag.CIRCLE:
            out.append((x, line))
    return rng, out


def test_side_core_matches_public_side_and_probe():
    rng, lines = _circle_lines(17, 40)
    for x, line in lines:
        assert x._cut == zero_tol(x.a, x.tol)
        sec, rep = classify_line_section(x, line, with_sides=True)
        frame = circle_frame(_hermitian_eig(restrict_form(x, line), x.tol))
        rings = side_rings(line.basis(), frame)
        for labels, ring in zip((rep.inner, rep.outer), rings):
            assert tuple(x.side(row) for row in ring) == labels
            factors = rng.uniform(-300, 300, size=ring.shape[0])
            for row, label, f in zip(ring, labels, factors):
                for s in SCALES + (10.0 ** f * np.exp(1j * f),):
                    r = s * row
                    val, side = x.evaluate(r)
                    assert (val, side) == x._evaluate(r)
                    assert x.side(r) is side
                    assert x.contains(r) is (side is SideSign.ON)
                    assert form_value(x.a, r) == _form_value(x.a, r) == val
                    assert val == _reference_form_value(x.a, r)
                    if not sec.low_confidence:
                        assert side is label


def test_eigen_core_matches_hermitian_eig():
    rng = np.random.default_rng(23)
    for k in range(2, 7):
        for scale in (1.0, 1e150, 1e-150, 2.0 ** 600, 2.0 ** -500):
            g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for m in (sym(g * scale), sym(np.diag(g.real.diagonal()))):
                assert np.array_equal(hermitize(m), m)
                pub = hermitian_eig(m, tol=1e-9)
                core = _hermitian_eig(m, 1e-9)
                assert pub.eigvals.tobytes() == core.eigvals.tobytes()
                assert pub.eigbasis.tobytes() == core.eigbasis.tobytes()
                assert (pub.n_pos, pub.n_neg, pub.n_zero, pub.zero_threshold) \
                    == (core.n_pos, core.n_neg, core.n_zero,
                        core.zero_threshold)


def test_canonical_form_matches_public_congruence():
    # the quadric reuses its own signature, or the one of -A, instead of
    # congruence_to_signs on its matrix
    rng = np.random.default_rng(5)
    forms = [np.diag([1.0, 1.0, -1.0]), np.diag([1.0, -1.0, -1.0, 0.0])]
    forms += [random_bombon(rng, n).a for n in range(1, 6) for _ in range(3)]
    # real forms, where -A and hermitize(-A) differ in signed zeros
    forms += [g + g.T for g in rng.standard_normal((300, 3, 3))
              if np.ptp(np.sign(np.linalg.eigvalsh(g + g.T))) == 2]
    for a in forms:
        x = QuadricBombon(a)
        _, wit, canon = x.canonical_form()
        t, signs = linalg.congruence_to_signs(-x.a if wit.flipped else x.a,
                                              tol=x.tol)
        assert wit.t.tobytes() == t.tobytes()
        assert np.array_equal(np.diag(canon).real, signs)


def test_private_constructors_match_public():
    # scales whose squared norms stay normal floats, as unit_rep needs
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        for s in (1.0, 2.0 ** 400, 2.0 ** -400, 1e150, 1e-150):
            v = s * (rng.standard_normal(n + 1)
                     + 1j * rng.standard_normal(n + 1))
            w = s * (rng.standard_normal(n + 1)
                     + 1j * rng.standard_normal(n + 1))
            assert ProjPoint._of(v.copy()).v.tobytes() \
                == ProjPoint(v).v.tobytes() == canonicalize(v).tobytes()
            assert _canonical(v.copy()).tobytes() == canonicalize(v).tobytes()
            pub, core = ProjLine(v, w), ProjLine._of(v, w)
            assert pub.a.tobytes() == core.a.tobytes()
            assert pub.b.tobytes() == core.b.tobytes()
            assert line_through(ProjPoint(v), ProjPoint(w)).a.tobytes() \
                == ProjPoint(v).v.tobytes()
            for make in (ProjLine, ProjLine._of):
                with pytest.raises(CoincidentPoints):
                    make(v, (2.0 - 1j) * v)
                with pytest.raises(ValueError, match="different spaces"):
                    make(v, np.append(w, 1.0))


# --- no re-validation inside the classifier or the verifier --------------


def _count_calls(monkeypatch, names):
    # a dict that counts the calls of each named linalg function through
    # every module binding of it
    calls = {}
    for name in names:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        bound = 0
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "bombon":
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counted)
                    bound += 1
        assert bound >= 2, name
    return calls


def test_classifier_does_not_revalidate(monkeypatch):
    # Every module binding of hermitize, as_cvector and zero_tol counts its
    # calls; one classify_line_section call with sides on a circle line
    # must make none of them.
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    x = QuadricBombon(u @ np.diag([1.0, 2.0, -1.0, 0.5]) @ u.conj().T)
    line = ProjLine(u[:, 0] + 0.2 * u[:, 1], u[:, 2] + 0.3j * u[:, 3])
    calls = _count_calls(monkeypatch, ("hermitize", "as_cvector", "zero_tol"))
    sec, rep = classify_line_section(x, line, with_sides=True)
    assert sec.tag is SectionTag.CIRCLE and rep.separates
    assert calls == {}
    # the counting wrappers do see a public call
    x.side(GOOD.tolist() + [1.0])
    assert calls == {"as_cvector": 1}


def test_verifier_does_not_revalidate(monkeypatch):
    # A 20-line verify_axioms run on a quadric oracle and on the bidisk,
    # circle fits included, validates none of the arrays it built.
    oracles = (oracle_from_quadric(ELL3), bidisk_oracle())
    calls = _count_calls(monkeypatch, ("hermitize", "as_cmatrix",
                                       "hermitian_eig", "as_cvector"))
    for oracle in oracles:
        rep = verify_axioms(oracle, RunConfig(seed=7, n_lines=20))
        assert rep.tallies["circle"] > 0
    assert calls == {}
    linalg.hermitian_eig(np.eye(2))
    assert calls == {"hermitian_eig": 1, "hermitize": 1}


def test_verifier_builds_each_line_form_once(monkeypatch):
    # One labeller per chunk of 32 lines builds their line forms, and the
    # stages of each line read its slice, the zero trace included: a
    # 60-line verify_axioms run, two chunks with two-sided lines in each,
    # builds one per chunk, and a two-sided disk_section_test line
    # builds one.  _line_label, _grid_tag and _ray_zeros build none.
    calls, seen = [], {}
    line_form = oracles._line_form

    def counted(a, bases):
        calls.append(len(bases))
        return line_form(a, bases)

    def builds_none(name):
        fn = getattr(oracles, name)

        def wrapped(*args):
            before = len(calls)
            out = fn(*args)
            assert len(calls) == before, name
            seen[name] = seen.get(name, 0) + 1
            return out

        monkeypatch.setattr(oracles, name, wrapped)

    monkeypatch.setattr(oracles, "_line_form", counted)
    for name in ("_line_label", "_grid_tag", "_ray_zeros"):
        builds_none(name)
    x = QuadricBombon(np.diag([1.0, 1.0, -1.0, -1.0]))
    rep = verify_axioms(oracle_from_quadric(x),
                        RunConfig(seed=8, n_lines=60))
    assert rep.tallies["circle"] > 0 and rep.tallies["empty"] > 0
    assert calls == [32, 28]
    assert seen["_grid_tag"] == 60 and seen["_ray_zeros"] == 2
    assert seen["_line_label"] >= rep.tallies["empty"]
    calls.clear()
    verdict = disk_section_test(ellipsoid_body(np.zeros(2), np.eye(2)),
                                AffineComplexLine([0.2, 0.1], [1.0, 0.5j]))
    assert verdict.tag.value == "disk"
    assert calls == [1] and seen["_ray_zeros"] == 3
    calls.clear()
    body = ellipsoid_body(np.zeros(2), np.diag([1.0, 4.0]))
    verdict = disk_section_test(body, AffineComplexLine([0.0, 0.9],
                                                        [1.0, 0.0]))
    assert verdict.tag.value == "empty" and calls == [1]


# --- finite coordinates for subspaces and affine lines --------------------


def _section_cli(capsys, monkeypatch, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(["section"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("kind", ["nan", "inf"])
def test_subspaces_and_affine_lines_reject_nonfinite(kind, capsys,
                                                     monkeypatch):
    bad = np.array(BAD_VECTORS[kind], dtype=complex)
    basis = np.column_stack([bad, OTHER])
    calls = {
        "Subspace": lambda: Subspace(basis),
        "orthonormal_columns": lambda: linalg.orthonormal_columns(basis),
        "decode_subspace": lambda: jsonio.decode_subspace(
            {"basis": [_pairs(bad), _pairs(OTHER)]}),
        "AffineComplexLine.base": lambda: AffineComplexLine(bad, OTHER),
        "AffineComplexLine.direction": lambda: AffineComplexLine(GOOD, bad),
        "decode_affine_line.base": lambda: jsonio.decode_affine_line(
            {"base": _pairs(bad), "direction": _pairs(OTHER)}),
        "decode_affine_line.direction": lambda: jsonio.decode_affine_line(
            {"base": _pairs(GOOD), "direction": _pairs(bad)}),
        "decode_body.ball": lambda: jsonio.decode_body(
            {"type": "ball", "n": 3, "center": _pairs(bad)}),
        "decode_body.ellipsoid": lambda: jsonio.decode_body(
            {"type": "ellipsoid", "H": [_pairs(r) for r in np.eye(3)],
             "center": _pairs(bad)}),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == NOT_FINITE[1], name
    # the CLI answered a NaN basis with an empty section and exit 0
    code, out = _section_cli(capsys, monkeypatch, {
        "quadric": jsonio.encode_quadric(ELL3),
        "subspace": {"basis": [_pairs(bad), _pairs(OTHER)]}})
    assert (code, out) == (2, {"error": NOT_FINITE[1]})
    code, out = _section_cli(capsys, monkeypatch, {
        "quadric": jsonio.encode_quadric(ELL3),
        "subspace": {"basis": [_pairs(GOOD), _pairs(OTHER)]}})
    assert code == 0
    # an orthonormal basis the library built is not scanned again
    assert Subspace(basis, orthonormal=True).basis is basis


@pytest.mark.parametrize("make", [
    lambda v: ball_body(2, center=v),
    lambda v: ellipsoid_body(v, np.eye(2)),
    lambda v: AffineComplexLine(v, [1.0, 0.0]),
    lambda v: AffineComplexLine([0.0, 0.0], v)],
    ids=["ball_body", "ellipsoid_body", "AffineComplexLine.base",
         "AffineComplexLine.direction"])
def test_body_centers_and_affine_lines_are_vectors(make):
    # centers, bases and directions go through as_cvector: a (2, 1) or
    # (2, 2) array is not a coordinate vector, and NaN keeps its message
    for bad in (np.ones((2, 1)), np.ones((2, 2))):
        with pytest.raises(ValueError,
                           match="^expected a 1-d coordinate vector$"):
            make(bad)
    with pytest.raises(ValueError, match=f"^{NOT_FINITE[1]}$"):
        make([NAN, 0.0])
    make([0.5, 0.25j])


def test_ball_center_has_n_entries():
    # a center of another length failed later, on the first batch, with
    # a numpy broadcast error
    for n, center in ((2, [0.0, 0.0, 0.0]), (3, [0.5, 0.25j])):
        with pytest.raises(ValueError, match=f"^ball center must have {n} "
                           f"entries, got {len(center)}$"):
            ball_body(n, center=center)
    assert ball_body(2, center=[0.5, 0.25j]).inside([0.5, 0.0])


def test_ball_radius_is_checked_at_construction():
    # Before this check a negative radius read every line empty, and NaN
    # and inf failed later, on the first batch, with a RuntimeWarning.
    for bad, value in ((-1, "-1.0"), (NAN, "nan"), (INF, "inf")):
        with pytest.raises(ValueError, match="^ball radius must be finite "
                           f"and >= 0, got {value}$"):
            ball_body(2, radius=bad)
    assert ball_body(2, radius=0).inside([0.0, 0.0])
    assert not ball_body(2, radius=0.5).inside([0.5, 0.5])


@pytest.mark.parametrize("make, pair", [
    (polydisk_body, False), (bidisk_oracle, True)],
    ids=["polydisk_body", "bidisk_oracle"])
def test_disk_radii_are_checked_at_construction(make, pair):
    # Radii are a nonempty 1-D list of finite radii >= 0, two of them for
    # the bidisk oracle.  Before this check a negative radius read every
    # line empty (polydisk) or verified with circles (bidisk), NaN failed
    # later on finiteness, an empty list made a 0-dimensional body, and a
    # nested list or a single bidisk radius raised a numpy error.
    for bad, value in (([-1, 1], "-1.0"), ([NAN, 1], "nan"),
                       ([1, INF], "inf")):
        with pytest.raises(ValueError, match="^bidisk radius must be finite "
                           f"and >= 0, got {value}$"):
            make(bad)
    shape = ("^bidisk oracle needs two radii$" if pair else
             "^bidisk radii must be a nonempty 1-D list$")
    for bad in ([], [[1, 1]], "radii", {"r": 1}, [1j, 1]) + (
            ((1.0,), (1.0, 1.0, 1.0)) if pair else ()):
        with pytest.raises(ValueError, match=shape):
            make(bad)
    made = make([1, 0.5])
    assert made.dim == 2
    if not pair:
        assert make([0.5]).dim == 1 and make((1.0, 1.0, 0.5)).dim == 3


def test_affine_line_direction_at_any_scale():
    # The direction is made a unit vector by projective._unit: tiny and
    # huge directions scale without a warning, normal-range directions
    # keep the bits of d / |d|, and one too small to scale is zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = AffineComplexLine([0.0, 0.0], [1e-200, 0.0]).direction
        huge = AffineComplexLine([0.0, 0.0], [1e200, 1e200j]).direction
    assert tiny.tolist() == [1.0, 0.0]
    assert np.allclose(huge, [2.0 ** -0.5, 2.0 ** -0.5 * 1j], rtol=1e-15)
    rng = np.random.default_rng(59)
    for _ in range(20):
        d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) \
            * 10.0 ** rng.uniform(-100.0, 100.0)
        got = AffineComplexLine(np.zeros(3), d).direction
        assert got.tobytes() == (d / np.linalg.norm(d)).tobytes()
    for d in ([0.0, 0.0], [1e-301, 0.0]):
        with pytest.raises(ValueError,
                           match="^line direction must be nonzero$"):
            AffineComplexLine([0.0, 0.0], d)


def test_mvee_nonfinite_point_exits_2(capsys, monkeypatch):
    # the span check read a NaN point as degenerate
    for bad in ([NAN, 0.0], [0.0, INF]):
        pts = [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]],
               _pairs(bad)]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(pts)))
        code = main(["mvee"])
        assert (code, json.loads(capsys.readouterr().out)) == (
            2, {"error": NOT_FINITE[1]})


# --- orthonormal columns and unit representatives at any scale -------------


def _gram_schmidt(a, rtol=linalg.DEFAULT_TOL):
    # orthonormal_columns without its scaling and finiteness check
    thresh = rtol * float(np.linalg.norm(a, axis=0).max())
    basis = []
    for j in range(a.shape[1]):
        w = a[:, j].copy()
        for _ in range(2):
            for b in basis:
                w = w - b * np.vdot(b, w)
        nw = np.linalg.norm(w)
        if nw > thresh:
            basis.append(w / nw)
    return np.column_stack(basis) if basis else np.zeros((a.shape[0], 0))


def test_orthonormal_columns_at_any_scale():
    # Columns at 2^+-700 give the bits of the unscaled columns, 1e+-200
    # keeps the dimension, and columns whose squares neither under- nor
    # overflow keep the bits of plain Gram-Schmidt.
    rng = np.random.default_rng(43)
    for n in range(1, 6):
        for k in range(1, n + 2):
            b = rng.standard_normal((n + 1, k)) \
                + 1j * rng.standard_normal((n + 1, k))
            if k > 1:
                # a dependent column, which is dropped
                b[:, -1] = b[:, 0] * (0.5 - 2j)
            want = Subspace(b)
            assert want.basis.tobytes() == _gram_schmidt(b).tobytes()
            for s in 10.0 ** rng.uniform(-150.0, 150.0, 4):
                got = linalg.orthonormal_columns(s * b)
                assert got.tobytes() == _gram_schmidt(s * b).tobytes()
            with np.errstate(all="raise"):
                for s in (2.0 ** -700, 2.0 ** 700):
                    assert Subspace(s * b).basis.tobytes() == \
                        want.basis.tobytes()
                for s in (1e-200, 1e200):
                    assert Subspace(s * b).projective_dim == \
                        want.projective_dim
    with np.errstate(all="raise"):
        for s in (1e-200, 1e200):
            assert Subspace(s * np.eye(3)[:, :2]).projective_dim == 1
    assert Subspace(np.zeros((3, 2))).projective_dim == -1


# --- unit representatives at any scale ------------------------------------


def test_unit_rep_scales_tiny_and_huge_vectors():
    # largest entry in [1, 2), so a power-of-two scale and its undoing
    # are exact: the unit representative of 2^k v is that of v
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v = v / np.abs(v).max() * 1.5
        w = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        unit = unit_rep(v)
        # normal-range representatives keep their bits
        assert unit.tobytes() == (v / np.linalg.norm(v)).tobytes()
        for k in (-990, -600, -520, 520, 600, 1000):
            s = 2.0 ** k
            assert unit_rep(s * v).tobytes() == unit.tobytes()
            assert proj_close(s * v, s * v)
            assert proj_close(s * v, v) and not proj_close(s * v, w)
            line = ProjLine(s * v, s * w)
            assert line.a.tobytes() == (s * v).tobytes()
            with pytest.raises(CoincidentPoints):
                ProjLine(s * v, (2.0 - 1j) * s * v)
    assert ProjLine(np.array([1.0, 2.0, 0.5]) * 2.0 ** -600,
                    np.array([0.0, 1.0, 0.0]) * 2.0 ** -600).n == 2
    with pytest.raises(ZeroVector, match="no unit representative"):
        unit_rep([1e-301, 0.0, 0.0])



# |1.5e308 (1 + i)| overflows although the entry is finite.  Scaled by
# their modulus, vectors with such an entry read NaN as a unit
# representative, a form value and an affine direction, rank 0 as
# columns, and a point apart from [1 + i, 0], so a line was built through
# it twice.
HUGE = 1.5e308 + 1.5e308j
HUGE_V = np.array([HUGE, 1.0])
FLIP = np.diag([1.0, -1.0])


def _check_unit_rep():
    unit = unit_rep(HUGE_V)
    assert unit.tobytes() == unit_rep(HUGE_V * 2.0 ** -1023).tobytes()
    assert np.allclose(unit, [(1 + 1j) / np.sqrt(2.0), 0.0], rtol=0.0,
                       atol=1e-15)


def _check_form_value():
    w = np.array([HUGE, 1e308])
    value = form_value(FLIP, w)
    assert value == form_value(FLIP, w * 2.0 ** -600)
    assert abs(value - 3.5 / 5.5) < 1e-15
    assert form_value(FLIP, HUGE_V) == 1.0


def _check_quadric_value():
    assert QuadricBombon(FLIP).value(HUGE_V) == 1.0


def _check_orthonormal_columns():
    # the second column is under the rank cut relative to the first
    assert linalg.orthonormal_columns([[HUGE, 0.0], [1.0, 1.0]]).shape \
        == (2, 1)
    q = linalg.orthonormal_columns([[HUGE, 0.0], [1e308, 1e308]])
    assert q.shape == (2, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2), rtol=0.0, atol=1e-15)


def _check_affine_line():
    got = AffineComplexLine([0.0, 0.0], HUGE_V).direction
    assert got.tobytes() == unit_rep(HUGE_V * 2.0 ** -1023).tobytes()


def _check_proj_close():
    assert proj_close(HUGE_V, [1 + 1j, 0.0])


def _check_line_through():
    with pytest.raises(CoincidentPoints):
        line_through(HUGE_V, [1 + 1j, 0.0])


def _check_quadric_oracle():
    # a row whose squares overflow is labelled again gauged; scaled by
    # its infinite modulus it read 0, on the quadric
    oracle = oracle_from_quadric(QuadricBombon(FLIP))
    assert oracle.labels([HUGE_V, HUGE_V[::-1]]).tolist() == [1, -1]


def _check_gen_circle():
    # Unscaled, the first two determinants overflow and the third
    # underflows to -0.0, which reads as not mixed.  The last two have
    # subnormal entries, which the Hermitian part must keep.
    for m in (1e160 * FLIP, [[1e308, HUGE], [HUGE.conjugate(), -1e308]],
              1e-200 * FLIP, 5e-324 * FLIP,
              [[3e-322, 1e-323 + 2e-323j], [1e-323 - 2e-323j, -5e-324]]):
        assert GenCircle(m).m.tobytes() == np.asarray(m, complex).tobytes()
    for m in (1e160 * np.eye(2), 1e-200 * np.eye(2),
              [[1e308, HUGE / 15.0], [HUGE.conjugate() / 15.0, 1e308]]):
        with pytest.raises(ValueError, match="det < 0 required"):
            GenCircle(m)
    # Read on the caller's form, 1e-12 FLIP held every point, at 1e-200
    # every side read 0, and two circles with a huge entry were close.
    for s in (1e160, 1e-12, 1e-200, 5e-324):
        c = GenCircle(s * FLIP)
        assert c.side([0.5, 1.0]) == -1 and c.side([2.0, 1.0]) == 1
        assert c.contains([1.0, 1.0])
        assert c.isclose(GenCircle(FLIP))
        assert conjugate_point(c, [0.5, 1.0]).isclose([1.0, 0.5])
        rotation(c, [0.5, 1.0], 0.7)
    assert not GenCircle([[1e308, HUGE], [HUGE.conjugate(), -1e308]]).isclose(
        GenCircle([[1e308, -HUGE], [-HUGE.conjugate(), -1e308]]))
    # the product with the unscaled vector overflowed; the point is the
    # one of the vector scaled by 2^-1023, with a subnormal entry
    c = GenCircle(np.diag([1.5, -1.0]))
    got = conjugate_point(c, [1.5e308, 1.0])
    assert got.v.tobytes() == conjugate_point(
        c, [1.5e308 * 2.0 ** -1023, 2.0 ** -1023]).v.tobytes()
    assert abs(got.v[0] * 1.5e308 * 1.5 - 1.0) < 1e-12 and got.v[1] == 1.0


def _check_moebius_map():
    # unscaled, the determinant underflowed to "singular" below 2^-600
    # and overflowed to a NaN matrix above 2^600
    m = np.array([[1.0, 2.0 + 1.0j], [0.5, -3.0]])
    want = MoebiusMap(m).m.tobytes()
    for k in (-1000, -600, 600, 1000):
        assert MoebiusMap(2.0 ** k * m).m.tobytes() == want
    # the image of a huge vector overflowed in the product; below the
    # ProjPoint floor a vector is still zero
    f = MoebiusMap(np.diag([1.5, 1.0]))
    got = f.apply([1.5e308, 1.0])
    assert got.v.tobytes() == f.apply(
        [1.5e308 * 2.0 ** -1023, 2.0 ** -1023]).v.tobytes()
    assert got.v[0] == 1.0 and abs(got.v[1] * 1.5e308 * 1.5 - 1.0) < 1e-12
    for v in ([1e-301, 0.0], [0.0, 0.0]):
        with pytest.raises(ZeroVector, match="cannot canonicalize"):
            f.apply(v)


@pytest.mark.parametrize("check", [
    _check_unit_rep, _check_form_value, _check_quadric_value,
    _check_orthonormal_columns, _check_affine_line, _check_proj_close,
    _check_line_through, _check_quadric_oracle, _check_gen_circle,
    _check_moebius_map],
    ids=lambda f: f.__name__[len("_check_"):])
def test_overflowing_moduli_get_the_right_answer(check):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check()


def test_public_names_are_exported_once():
    # every name of ``bombon.__all__`` is an attribute of the package, and
    # none is listed twice
    names = bombon.__all__
    assert [n for n in names if not hasattr(bombon, n)] == []
    assert sorted(n for n, k in Counter(names).items() if k > 1) == []
