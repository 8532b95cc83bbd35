import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import bombon.suite
from bombon.jsonio import canonical_dumps
from bombon.oracles import RunConfig, grid_line_tags
from bombon.quadrics import QuadricBombon
from bombon.sections import SectionTag, classify_line_section
from bombon.suite import (REGISTRY, _first_dispute, classifier_vs_grid,
                          theorem_suite, transport_tag_change)


def small(seed=7, n_lines=10):
    return RunConfig(seed=seed, n_lines=n_lines)


def digest(report):
    return hashlib.sha256(canonical_dumps(report).encode()).hexdigest()


# sha256 of the seed-7, 10-line reports as this numpy/LAPACK build prints
# them; another build may round the reported figures differently
PINNED = {
    None: "fbee8ef3bbe17a0386d1239c2d387ad34ac9f408c5246a3d0612f63bd7076758",
    "classifier":
        "73f6fd5723ab4827bd88488c9e7aac402ae30c29bc2b5e6c736388d95c1df0ab",
}


def test_full_registry_passes_at_small_scale():
    report, code = theorem_suite(small())
    assert code == 0
    assert report["verdict"] == "pass"
    assert report["failures"] == 0
    assert report["fault"] == "none"
    assert len(report["properties"]) == len(REGISTRY)
    assert all(p["passed"] for p in report["properties"])


def test_report_is_deterministic():
    a, _ = theorem_suite(small())
    b, _ = theorem_suite(small())
    assert canonical_dumps(a) == canonical_dumps(b)
    assert digest(a) == PINNED[None]
    c, _ = theorem_suite(small(seed=8))
    assert canonical_dumps(a) != canonical_dumps(c)


def test_subset_run_replays_full_run_randomness():
    # each property draws from a seed child indexed by registry position,
    # so running one property alone gives the same detail string
    full, _ = theorem_suite(small())
    name = "circle_parametrization_lands"
    solo, code = theorem_suite(small(), names=(name,))
    assert code == 0
    want = next(p for p in full["properties"] if p["name"] == name)
    got = next(p for p in solo["properties"] if p["name"] == name)
    assert got["detail"] == want["detail"]


def test_corrupt_classifier_is_caught():
    # the shared loops must judge with the classifier they are given
    names = ("section_classifier_vs_grid", "circle_parametrization_lands",
             "tangent_hyperplane_audit", "transport_preserves_sections")
    report, code = theorem_suite(small(), corrupt="classifier", names=names)
    assert code == 1
    assert report["verdict"] == "fail"
    assert report["fault"] == "classifier"
    assert report["failures"] == len(names)
    bad = [p["name"] for p in report["properties"] if not p["passed"]]
    assert bad == list(names)


def test_corrupt_report_is_pinned():
    report, _ = theorem_suite(small(), corrupt="classifier")
    assert digest(report) == PINNED["classifier"]


def test_unknown_property_name_rejected():
    with pytest.raises(ValueError):
        theorem_suite(small(), names=("no_such_property",))


def test_first_dispute_is_the_first_in_draw_order():
    a = QuadricBombon.from_epsilons([1, 1, -1]).a
    circle = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    good = (a, circle, SectionTag.CIRCLE)
    assert _first_dispute([]) is None
    assert _first_dispute([good, good]) is None
    judged = [good, (a, circle, SectionTag.EMPTY), good,
              (a, circle, SectionTag.SINGLE_POINT)]
    assert _first_dispute(judged) == (
        "classifier said empty, grid oracle said circle")


def test_first_dispute_rejects_a_nan_basis():
    # one batch judges every line, so a bad basis raises even after a
    # disputed line
    a = QuadricBombon.from_epsilons([1, 1, -1]).a
    circle = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    nan = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="^coordinates must be finite$"):
        _first_dispute([(a, circle, SectionTag.EMPTY),
                        (a, nan, SectionTag.CIRCLE)])


def _scripted(tags):
    # a classify that gives its n-th call the confident tag tags[n], or
    # the real classifier's verdict where that is None
    tags = iter(tags)

    def classify(x, line):
        tag = next(tags)
        if tag is None:
            return classify_line_section(x, line)
        return SimpleNamespace(tag=tag, low_confidence=False), None
    return classify


def test_transport_reports_an_earlier_dispute_ahead_of_a_changed_tag():
    # each line is classified, then its image; the second line's tag
    # changes under transport, and the grid oracle disputes the first
    # line only when it is called a full line
    full, circle, empty = (SectionTag.FULL_LINE, SectionTag.CIRCLE,
                           SectionTag.EMPTY)
    failure, checked = transport_tag_change(
        np.random.default_rng(7), 1, _scripted([full, full, circle, empty]))
    assert failure.startswith("classifier said full_line, grid oracle said ")
    assert checked == 2
    failure, checked = transport_tag_change(
        np.random.default_rng(7), 1, _scripted([None, None, circle, empty]))
    assert (failure, checked) == ("transport changed circle to empty", 2)


def test_grid_comparisons_judge_in_one_call(monkeypatch):
    # batch judging must not fall back to one call per line
    calls = []

    def counted(forms, bases):
        calls.append(len(forms))
        return grid_line_tags(forms, bases)
    monkeypatch.setattr(bombon.suite, "grid_line_tags", counted)
    for run, count in ((classifier_vs_grid, 40), (transport_tag_change, 4)):
        calls.clear()
        failure, _ = run(np.random.default_rng(7), count,
                         classify_line_section)
        assert failure is None
        assert len(calls) == 1 and calls[0] > 1, calls
