import io
import json

import pytest

from bombon.cli import _build_parser, main
from bombon.linalg import DEFAULT_TOL

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
    assert len(obj["m"]) == 2

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


@pytest.mark.parametrize("command", ["type", "canonical"])
@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_malformed_input_exits_2_with_json_error(capsys, monkeypatch,
                                                 command, name):
    monkeypatch.setattr("sys.stdin", io.StringIO(BAD_INPUTS[name]))
    code = main([command])
    out = capsys.readouterr().out
    assert code == 2
    assert set(json.loads(out)) == {"error"}


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
