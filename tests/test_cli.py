import io
import json

import numpy as np
import pytest

from bombon.cli import _build_parser, main
from bombon.jsonio import decode_matrix
from bombon.linalg import DEFAULT_TOL
from bombon.moebius import MoebiusMap

ELL3 = {"n": 2, "A": [[[1, 0], [0, 0], [0, 0]],
                      [[0, 0], [1, 0], [0, 0]],
                      [[0, 0], [0, 0], [-1, 0]]]}


def run(capsys, argv, payload=None, monkeypatch=None):
    if payload is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, monkeypatch, argv, payload):
    code, out = run(capsys, argv, payload, monkeypatch)
    return code, json.loads(out)


def test_classify_circle(capsys, monkeypatch):
    payload = {"quadric": ELL3,
               "line": {"a": [[1, 0], [0, 0], [0, 0]],
                        "b": [[0, 0], [0, 0], [1, 0]]}}
    code, obj = run_json(capsys, monkeypatch, ["classify"], payload)
    assert code == 0
    assert obj["tag"] == "circle"
    assert obj["low_confidence"] is False
    assert obj["sides"]["separates"] is True


def test_tangent_at_exact_zero_with_tol_0(capsys, monkeypatch):
    # the form is exactly 0 at (1, 0, 1), so even --tol 0 accepts it
    payload = {"quadric": ELL3, "point": [[1, 0], [0, 0], [1, 0]]}
    code, obj = run_json(capsys, monkeypatch, ["tangent", "--tol", "0"],
                         payload)
    assert code == 0
    assert len(obj["subspace"]["basis"]) == 2
    # the tangent section of the elliptic quadric is the point itself,
    # not a quadric signed by rounding residue
    section = obj["section"]
    assert section["kind"] == "subspace"
    (point,) = section["subspace"]["basis"]
    v = np.array([complex(*z) for z in point])
    assert np.allclose(v / v[0], [1, 0, 1], atol=1e-12)


def test_type_and_canonical(capsys, monkeypatch):
    code, obj = run_json(capsys, monkeypatch, ["type"], {"quadric": ELL3})
    assert code == 0
    assert obj["label"] == "(0,1)_2"
    assert obj["special"] == "elliptic"

    code, obj = run_json(capsys, monkeypatch, ["canonical"],
                         {"quadric": ELL3})
    assert code == 0
    assert obj["residual"] <= 1e-12
    # two plus signs, one minus: the canonical (0,1) shape is reached
    # through a sign flip
    assert obj["flipped"] is True


def test_equiv_both_answers(capsys, monkeypatch):
    same = {"first": {"n": 1, "A": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
            "second": {"n": 1, "A": [[[2, 0], [0, 0]], [[0, 0], [-3, 0]]]}}
    code, obj = run_json(capsys, monkeypatch, ["equiv"], same)
    assert code == 0
    assert obj["equivalent"] is True
    assert obj["residual"] <= 1e-8

    import numpy as np
    d1 = np.diag([1.0, 1.0, 1.0, -1.0]).tolist()
    d2 = np.diag([1.0, 1.0, -1.0, -1.0]).tolist()
    enc = lambda m: [[[float(v), 0.0] for v in row] for row in m]
    diff = {"first": {"n": 3, "A": enc(d1)}, "second": {"n": 3, "A": enc(d2)}}
    code, obj = run_json(capsys, monkeypatch, ["equiv"], diff)
    assert code == 0
    assert obj["equivalent"] is False


def test_rotate_and_mvee(capsys, monkeypatch):
    payload = {"circle": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
               "u": [[0, 0], [1, 0]],
               "theta": 0.5}
    code, obj = run_json(capsys, monkeypatch, ["rotate"], payload)
    assert code == 0
    f = MoebiusMap(decode_matrix(obj["m"]))
    assert abs(f.apply_affine(1.0) - np.exp(0.5j)) <= 1e-12

    pts = {"points": [[[1, 0]], [[-1, 0]], [[0, 1]], [[0, -1]]]}
    code, obj = run_json(capsys, monkeypatch, ["mvee"], pts)
    assert code == 0
    assert abs(obj["center"][0][0]) <= 1e-9
    assert abs(obj["H"][0][0][0] - 1.0) <= 1e-9
    assert obj["gap"] <= 1e-6


def test_disksect(capsys, monkeypatch):
    payload = {"body": {"type": "ellipsoid", "H": [[1, 0], [0, 4]]},
               "line": {"base": [[0, 0], [0.3, 0]],
                        "direction": [[1, 0], [0, 0]]}}
    code, obj = run_json(capsys, monkeypatch, ["disksect"], payload)
    assert code == 0
    assert obj["tag"] == "disk"
    assert obj["radius"] == pytest.approx(0.8, abs=1e-3)


def test_verify_exit_codes(capsys, monkeypatch):
    code, obj = run_json(capsys, monkeypatch,
                         ["verify", "--lines", "40"], {"quadric": ELL3})
    assert code == 0
    assert obj["verdict"] == "ConsistentWithBombon"

    bad = {"oracle": {"type": "bidisk", "radii": [1.0, 1.0]}}
    code, obj = run_json(capsys, monkeypatch,
                         ["verify", "--lines", "120"], bad)
    assert code == 1
    assert obj["verdict"] == "Violations"


def test_suite_clean_and_corrupt(capsys):
    code, out = run(capsys, ["suite", "--lines", "10",
                             "--names", "fullness_identity,s1_group_law"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    code, out = run(capsys, ["suite", "--lines", "10",
                             "--corrupt", "classifier",
                             "--names", "section_classifier_vs_grid"])
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_bad_input_exits_2(capsys, monkeypatch, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, out = run(capsys, ["type", "--input", str(bad_json)])
    assert code == 2
    assert "error" in json.loads(out)

    # definite form is not a quadric of the right kind
    definite = {"quadric": {"n": 1, "A": [[[1, 0], [0, 0]],
                                          [[0, 0], [1, 0]]]}}
    code, out = run(capsys, ["type"], definite, monkeypatch)
    assert code == 2

    code, out = run(capsys, ["classify"], {"quadric": ELL3}, monkeypatch)
    assert code == 2


# payload fields that replace the shared ones, keyed by the error they
# must give; each used to get a confident answer with exit 0
OUT_OF_RANGE_FIELDS = {
    "ball radius must be finite and >= 0, got nan":
        {"body": {"type": "ball", "radius": float("nan")}},
    "ball radius must be finite and >= 0, got -1.0":
        {"body": {"type": "ball", "radius": -1}},
    "ball radius must be finite and >= 0, got inf":
        {"body": {"type": "ball", "radius": float("inf")}},
    "bidisk radius must be finite and >= 0, got -1.0":
        {"body": {"type": "bidisk", "radii": [-1, 1]}},
    '"thetas" must be a JSON array': {"thetas": "12"},
    "bidisk radius must be finite and >= 0, got nan":
        {"oracle": {"type": "bidisk", "radii": [float("nan"), 1]}},
}


@pytest.mark.parametrize("argv, error", [
    (["verify", "--lines", "-5"], "n_lines must be >= 0, got -5"),
    (["suite", "--lines", "-1"], "n_lines must be >= 0, got -1"),
    (["mvee", "--eps", "-1"], "eps must be finite and >= 0, got -1.0"),
    (["mvee", "--eps", "nan"], "eps must be finite and >= 0, got nan"),
    (["disksect", "--disk-tol", "-1"],
     "tol must be finite and >= 0, got -1.0"),
    (["disksect", "--disk-tol", "nan"],
     "tol must be finite and >= 0, got nan"),
    (["type", "--tol", "-1"], "tol must be finite and >= 0, got -1.0"),
    (["classify", "--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["orbit", "--samples", "0"], "--samples must be >= 1, got 0"),
    (["orbit", "--samples", "-3"], "--samples must be >= 1, got -3"),
    (["orbit"], '"thetas" must be a nonempty list'),
    (["disksect"], "ball radius must be finite and >= 0, got nan"),
    (["disksect"], "ball radius must be finite and >= 0, got -1.0"),
    (["disksect"], "ball radius must be finite and >= 0, got inf"),
    (["disksect"], "bidisk radius must be finite and >= 0, got -1.0"),
    (["orbit"], '"thetas" must be a JSON array'),
    (["verify"], "bidisk radius must be finite and >= 0, got nan")])
def test_out_of_range_option_exits_2(capsys, monkeypatch, argv, error):
    # "line" is the test_disksect line; the tol check fires before the
    # classify handler reads it
    payload = {"quadric": ELL3, "points": [[[1, 0]], [[-1, 0]]],
               "point": [[1, 0], [0, 0], [1, 0]], "thetas": [],
               "body": {"type": "ellipsoid", "H": [[1, 0], [0, 4]]},
               "line": {"base": [[0, 0], [0.3, 0]],
                        "direction": [[1, 0], [0, 0]]}}
    payload.update(OUT_OF_RANGE_FIELDS.get(error, {}))
    code, obj = run_json(capsys, monkeypatch, argv, payload)
    assert code == 2
    assert obj == {"error": error}


def test_input_file_and_text_format(capsys, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"quadric": ELL3}))
    code, out = run(capsys, ["type", "--input", str(path),
                             "--format", "text"])
    assert code == 0
    assert 'label: "(0,1)_2"' in out
    assert "{" not in out.splitlines()[0]


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_cached_parser_does_not_keep_options(capsys, monkeypatch):
    # the 1e-6 eigenvalue is zero at --tol 1e-3 and nonzero by default
    tiny = {"quadric": {"n": 2, "A": [[[1, 0], [0, 0], [0, 0]],
                                      [[0, 0], [-1, 0], [0, 0]],
                                      [[0, 0], [0, 0], [1e-6, 0]]]}}
    code, obj = run_json(capsys, monkeypatch, ["type", "--tol", "1e-3"],
                         tiny)
    assert code == 0 and obj["signature"]["n_zero"] == 1
    assert _build_parser().parse_args(["type"]).tol == DEFAULT_TOL
    code, obj = run_json(capsys, monkeypatch, ["type"], tiny)
    assert code == 0 and obj["signature"]["n_zero"] == 0


def test_cached_parser_survives_usage_error(capsys, monkeypatch):
    _build_parser.cache_clear()
    fresh = run(capsys, ["type"], {"quadric": ELL3}, monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["type", "--tol", "not-a-number"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, ["type"], {"quadric": ELL3}, monkeypatch) == fresh
    assert fresh[0] == 0


# The flags of each subcommand, as docs/formats.md lists them: each
# takes exactly the flags its handler reads.
QUADRIC_FLAGS = {"--tol", "--format", "--input"}
FLAGS = {
    **dict.fromkeys(("classify", "section", "type", "canonical", "equiv",
                     "join", "tangent", "cores", "transport"), QUADRIC_FLAGS),
    "orbit": QUADRIC_FLAGS | {"--samples"},
    "rotate": {"--format", "--input"},
    "mvee": {"--format", "--input", "--eps"},
    "disksect": {"--seed", "--format", "--input", "--disk-tol"},
    "verify": QUADRIC_FLAGS | {"--seed", "--lines"},
    "suite": {"--seed", "--format", "--lines", "--corrupt", "--names"},
}
# (subcommand, flag) pairs no handler reads, each with a value to pass
DROPPED = ([(cmd, "--seed", "3") for cmd in FLAGS
            if cmd not in ("verify", "suite", "disksect")]
           + [("rotate", "--tol", "-5"), ("mvee", "--tol", "1e-3"),
              ("disksect", "--tol", "1e-3"), ("suite", "--tol", "nan"),
              ("suite", "--input", "/nonexistent")])


def test_each_subcommand_takes_only_its_flags():
    subs = _build_parser()._subparsers._group_actions[0].choices
    assert set(subs) == set(FLAGS)
    for name, sp in subs.items():
        got = {s for a in sp._actions for s in a.option_strings}
        assert got - {"-h", "--help"} == FLAGS[name], name
    assert sum(map(len, FLAGS.values())) == 50
    assert len(DROPPED) == 17


@pytest.mark.parametrize("cmd, flag, value", DROPPED)
def test_dropped_flag_is_a_usage_error(capsys, cmd, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([cmd, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# --- malformed input: exit 2 with a JSON error, never a traceback --------


def quadric_text(a_text):
    return '{"quadric": {"A": %s}}' % a_text


ROW2 = "[[0, 0], [-1, 0]]"
BAD_INPUTS = {
    "malformed": '{"quadric": {"A": [[[1, 0]',
    "empty_stdin": "",
    "not_an_object": "[1, 2]",
    "nan_literal": quadric_text("[[[NaN, 0], [0, 0]], %s]" % ROW2),
    "infinity_literal": quadric_text("[[[1, 0], [0, Infinity]], %s]" % ROW2),
    "neg_infinity": quadric_text("[[[-Infinity, 0], [0, 0]], %s]" % ROW2),
    "bool_entry": quadric_text("[[[true, 0], [0, 0]], %s]" % ROW2),
    "bool_bare": quadric_text("[[false, [0, 0]], %s]" % ROW2),
    "string_entry": quadric_text('[[["1.5", 0], [0, 0]], %s]' % ROW2),
    "string_bare": quadric_text('[["1.5", [0, 0]], %s]' % ROW2),
    "three_element_pair": quadric_text("[[[1, 0, 0], [0, 0]], %s]" % ROW2),
    "ragged_rows": quadric_text("[[[1, 0], [0, 0]], [[0, 0]]]"),
    "non_square": quadric_text("[[[1, 0], [0, 0], [0, 0]], "
                               "[[0, 0], [-1, 0], [0, 0]]]"),
    "empty_matrix": quadric_text("[]"),
    "empty_rows": quadric_text("[[], []]"),
    "one_by_one": quadric_text("[[[1, 0]]]"),
    "one_by_one_zero": quadric_text("[[[0, 0]]]"),
    "non_hermitian": quadric_text("[[[1, 0], [5, 0]], %s]" % ROW2),
    "int_overflows_float": quadric_text("[[[1%s, 0], [0, 0]], %s]"
                                        % ("0" * 400, ROW2)),
    "matrix_not_array": quadric_text('"[[1, 0]]"'),
    "n_mismatch": '{"quadric": {"n": 5, "A": [[[1, 0], [0, 0]], %s]}}'
                  % ROW2,
}


BAD_INPUT_ERRORS = {
    "malformed": "cannot read input: Expecting ',' delimiter: "
                 "line 1 column 27 (char 26)",
    "empty_stdin": "cannot read input: Expecting value: "
                   "line 1 column 1 (char 0)",
    "not_an_object": 'input must carry a "quadric" object',
    "nan_literal": "matrix entries must be finite",
    "infinity_literal": "matrix entries must be finite",
    "neg_infinity": "matrix entries must be finite",
    "bool_entry": "not a complex scalar: [True, 0]",
    "bool_bare": "not a complex scalar: False",
    "string_entry": "not a complex scalar: ['1.5', 0]",
    "string_bare": "not a complex scalar: '1.5'",
    "three_element_pair": "not a complex scalar: [1, 0, 0]",
    "ragged_rows": "matrix rows have unequal lengths",
    "non_square": "matrix is 2x3, not square",
    "empty_matrix": "a matrix is a nonempty array of rows",
    "empty_rows": "a vector is a nonempty array of complex scalars",
    "one_by_one": "form signature (1,0,0) is not mixed",
    "one_by_one_zero": "the zero matrix defines no quadric",
    "non_hermitian": "matrix is not Hermitian (asymmetry 5.000e+00)",
    "int_overflows_float": "integer too large for a float",
    "matrix_not_array": "a matrix is a nonempty array of rows",
    "n_mismatch": 'matrix size 2 does not match "n": 5',
}


@pytest.mark.parametrize("command", ["type", "canonical"])
@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_malformed_input_exits_2_with_json_error(capsys, monkeypatch,
                                                 command, name):
    monkeypatch.setattr("sys.stdin", io.StringIO(BAD_INPUTS[name]))
    code = main([command])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out) == {"error": BAD_INPUT_ERRORS[name]}


BAD_VECTORS = {"nan": "[[1, 0], [NaN, 0], [1, 0]]",
               "inf": "[[1, 0], [0, Infinity], [1, 0]]",
               "zero": "[[0, 0], [0, 0], [0, 0]]"}
GOOD_VECTOR = "[[1, 0], [0, 0], [1, 0]]"


@pytest.mark.parametrize("kind", sorted(BAD_VECTORS))
@pytest.mark.parametrize("command, fields, zero_error", [
    ("classify", '"line": {"a": %s, "b": [[0, 0], [1, 0], [0, 0]]}',
     "zero vector has no unit representative"),
    ("classify", '"line": {"a": [[0, 0], [1, 0], [0, 0]], "b": %s}',
     "zero vector has no unit representative"),
    ("tangent", '"point": %s', "cannot canonicalize a zero vector"),
    ("orbit", '"point": %s', "cannot canonicalize a zero vector"),
    ("transport", '"from": %%s, "to": %s' % GOOD_VECTOR,
     "cannot canonicalize a zero vector"),
    ("transport", '"from": %s, "to": %%s' % GOOD_VECTOR,
     "cannot canonicalize a zero vector")])
def test_bad_point_or_line_exits_2_with_json_error(capsys, monkeypatch,
                                                   command, fields,
                                                   zero_error, kind):
    text = '{"quadric": %s, %s}' % (json.dumps(ELL3),
                                    fields % BAD_VECTORS[kind])
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main([command])
    assert code == 2
    error = zero_error if kind == "zero" else "coordinates must be finite"
    assert json.loads(capsys.readouterr().out) == {"error": error}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("big", [1e308, 1.3e308, 1.7e308])
def test_huge_finite_entries_answer_without_overflow(capsys, monkeypatch,
                                                     big):
    # (a + a*) / 2 overflows above half the float range; the answer must
    # be the one for diag(1, -1).
    quad = {"n": 1, "A": [[[big, 0], [0, 0]], [[0, 0], [-big, 0]]]}
    code, obj = run_json(capsys, monkeypatch, ["type"], {"quadric": quad})
    assert code == 0
    assert (obj["label"], obj["special"]) == ("(0,0)_1", "elliptic")
    code, obj = run_json(capsys, monkeypatch, ["canonical"],
                         {"quadric": quad})
    assert code == 0
    assert obj["canonical"] == [[[1.0, 0.0], [0.0, 0.0]],
                                [[0.0, 0.0], [-1.0, 0.0]]]
    assert obj["residual"] <= 1e-12
    t = obj["t"]
    assert t[0][0][0] == pytest.approx(big ** -0.5, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["type", "canonical"])
@pytest.mark.parametrize("off, error", [
    # |1.3e308 + 1.3e308i| overflows
    ([1.3e308, 1.3e308], "matrix entry modulus overflows the float range"),
    # finite entries, eigenvalues about +-1.84e308
    ([1.3e308, 0], "matrix eigenvalue overflows the float range")])
def test_float_range_overflow_exits_2(capsys, monkeypatch, command, off,
                                      error):
    big = 1.3e308
    conj = [off[0], -off[1]]
    quad = {"n": 1, "A": [[[big, 0], off], [conj, [-big, 0]]]}
    code, obj = run_json(capsys, monkeypatch, [command], {"quadric": quad})
    assert code == 2
    assert obj == {"error": error}
