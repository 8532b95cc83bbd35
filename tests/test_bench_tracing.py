"""The benchmark tracer must keep finding the layers it wraps.

``bench/tracing.py`` patches functions and methods of ``bombon`` by
name; a rename in the library would break the benchmark run, not the
library tests, unless this test resolves every target.
"""

import importlib.util
import inspect
import pathlib
import sys

import bombon  # loads every bombon module the tracer patches
import bombon.cli  # noqa: F401

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _snapshot():
    # every module attribute and class attribute of the bombon package
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "bombon" and not name.startswith("bombon."):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if inspect.isclass(val) and val.__module__ == name:
                for attr, member in vars(val).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_patches_resolve_and_restore():
    tracing = _load_tracing()
    before = _snapshot()
    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    try:
        patched = {(getattr(obj, "__name__", obj), attr)
                   for obj, attr, _ in tracer._patches}
        for obj, attr, original in tracer._patches:
            now = (vars(obj)[attr] if inspect.isclass(obj)
                   else getattr(obj, attr))
            assert now is not original, (obj, attr)
    finally:
        tracer.restore()
    for target in (("bombon.linalg", "congruence_to_signs"),
                   ("GenCircle", "to_unit_chart"),
                   ("QuadricBombon", "side"),
                   ("bombon.sections", "classify_line_section"),
                   ("bombon.convexity", "disk_section_test")):
        assert target in patched, target
    # bench/workloads.py sizes its disk-section lines by this pitch
    assert isinstance(bombon.convexity._GRID, int)
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
