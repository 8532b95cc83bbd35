"""Span tracer for the bombon benchmark.

Spans are recorded from the benchmark's side of each layer boundary:
the tracer wraps public functions and methods of the ``bombon`` modules
while a traced pass runs and restores the originals afterwards.  Free
functions are rebound in every ``bombon.*`` module that imported them;
methods are replaced on their class, so class names (and the
``isinstance`` checks on them) are never rebound.

Each span keeps its name, start, end, parent span and op id in memory.
A span's self time is its duration minus the durations of its direct
children.  Names that depend on the outcome of a call (the verdict of
``classify_line_section``, the size bucket of ``hermitian_eig``) are
settled when the call returns.
"""

import collections
import functools
import sys
import time

EIG_BUCKETS = (("k2", 2), ("k3_8", 8), ("k9_16", 16), ("k17_32", 32))
SECTION_TAGS = ("empty", "single_point", "full_line", "circle_nosides",
                "circle_sides")
DISK_TAGS = ("disk", "point", "empty", "not_a_disk")
ORACLE_TAGS = ("empty", "single_point", "circle", "full_line",
               "nonconforming")
STAGE2_POINTS = 131072

# Layers reported as <name>.calls and <name>.self_s.
TIMED_LAYERS = (
    [f"linalg.hermitian_eig.{b}" for b, _ in EIG_BUCKETS]
    + ["linalg.nullspace", "linalg.congruence_to_signs",
       "projective.ProjPoint", "projective.line_through",
       "quadrics.QuadricBombon.init", "quadrics.QuadricBombon.side",
       "quadrics.QuadricBombon.canonical_form",
       "quadrics.equivalence_witness"]
    + [f"sections.classify_line_section.{t}" for t in SECTION_TAGS]
    + ["sections.tangent_space", "sections.section_with_subspace",
       "moebius.GenCircle.init", "moebius.GenCircle.to_unit_chart",
       "actions.homogeneity_transport"]
    + [f"convexity.disk_section_test.{t}" for t in DISK_TAGS]
    + [f"oracles.oracle_line_tag.{t}" for t in ORACLE_TAGS]
    + ["oracles.grid_line_tag", "oracles.verify_axioms",
       "jsonio.decode_quadric", "jsonio.canonical_dumps"])

# Metrics that are counts or ratios rather than span totals.
EXTRA_METRICS = (
    ("linalg.hermitian_eig.no_convergence", "count"),
    ("sections.low_confidence_frac", "ratio"),
    ("convexity.oracle_inconsistent", "count"),
    ("convexity.ConvexBodyOracle.inside.calls", "count"),
    ("convexity.ConvexBodyOracle.inside.points", "count"),
    ("convexity.mvee_complex.calls", "count"),
    ("convexity.mvee_complex.self_s", "s"),
    ("convexity.mvee_complex.iterations", "count"),
    ("oracles.OracleSet.labels.calls", "count"),
    ("oracles.OracleSet.labels.points", "count"),
    ("oracles.stage2_frac", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.exit_nonzero", "count"),
)

OVERHEAD_METRICS = (("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"))


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in TIMED_LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += list(EXTRA_METRICS)
    out += list(OVERHEAD_METRICS)
    return out


class Tracer:
    """In-memory span recorder with patch install and restore."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.op_ids = []
        self.stack = []
        self.op_id = -1
        self.counters = collections.Counter()
        self._patches = []

    # --- spans -----------------------------------------------------------

    def open(self):
        idx = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op_id)
        self.names.append(None)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx, name):
        self.ends[idx] = time.perf_counter()
        self.names[idx] = name
        self.stack.pop()

    def span_wrapper(self, fn, namer):
        """Wrap ``fn`` so each call records one span named by ``namer``.

        ``namer(args, kwargs, result, exc)`` returns the span name and
        may bump counters; ``exc`` is the exception the call raised.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx, namer(args, kwargs, None, exc))
                raise
            tracer.close(idx, namer(args, kwargs, out, None))
            return out

        return traced

    def aggregate(self):
        """{name: [calls, self_s, total_s]} over all spans."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = out.setdefault(self.names[i], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.names[i]}\t{self.starts[i] - t0:.9f}\t"
                         f"{self.ends[i] - t0:.9f}\t{self.parents[i]}\t"
                         f"{self.op_ids[i]}\n")

    # --- patching --------------------------------------------------------

    def patch_function(self, module, attr, namer):
        """Rebind a free function in every ``bombon`` module holding it."""
        original = getattr(module, attr)
        wrapped = self.span_wrapper(original, namer)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "bombon" and not modname.startswith("bombon."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr, namer):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.span_wrapper(original, namer))

    def restore(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []


def _fixed(name):
    return lambda args, kwargs, out, exc: name if exc is None else name + ".raised"


def install_layer_spans(tracer):
    """Wrap every layer boundary named in TIMED_LAYERS and EXTRA_METRICS."""
    from bombon import (actions, cli, convexity, errors, jsonio, linalg,
                        moebius, oracles, projective, quadrics, sections)

    counters = tracer.counters

    def eig_name(args, kwargs, out, exc):
        k = len(args[0]) if args else len(kwargs["m"])
        bucket = next((b for b, top in EIG_BUCKETS if k <= top), "k_over_32")
        if isinstance(exc, errors.NoConvergence):
            counters["linalg.hermitian_eig.no_convergence"] += 1
        return f"linalg.hermitian_eig.{bucket}"

    def section_name(args, kwargs, out, exc):
        if exc is not None:
            return "sections.classify_line_section.raised"
        sec, _ = out
        counters["sections.classify_line_section.calls"] += 1
        if sec.low_confidence:
            counters["sections.low_confidence"] += 1
        tag = sec.tag.value
        if tag == "circle":
            sides = kwargs.get("with_sides", args[2] if len(args) > 2 else True)
            tag = "circle_sides" if sides else "circle_nosides"
        return f"sections.classify_line_section.{tag}"

    def disk_name(args, kwargs, out, exc):
        if isinstance(exc, errors.OracleInconsistent):
            counters["convexity.oracle_inconsistent"] += 1
        if exc is not None:
            return "convexity.disk_section_test.raised"
        return f"convexity.disk_section_test.{out.tag.value}"

    def inside_name(args, kwargs, out, exc):
        pts = args[1] if len(args) > 1 else kwargs["pts"]
        shape = getattr(pts, "shape", None) or (len(pts),)
        counters["convexity.ConvexBodyOracle.inside.points"] += (
            1 if len(shape) == 1 else shape[0])
        return "convexity.ConvexBodyOracle.inside"

    def mvee_name(args, kwargs, out, exc):
        if out is not None:
            counters["convexity.mvee_complex.iterations"] += out.iterations
        return "convexity.mvee_complex"

    def labels_name(args, kwargs, out, exc):
        pts = args[1] if len(args) > 1 else kwargs["pts"]
        shape = getattr(pts, "shape", None) or (len(pts),)
        rows = 1 if len(shape) == 1 else shape[0]
        counters["oracles.OracleSet.labels.points"] += rows
        if rows == STAGE2_POINTS:
            counters["oracles.stage2_labels"] += 1
        return "oracles.OracleSet.labels"

    def oracle_tag_name(args, kwargs, out, exc):
        if exc is not None:
            return "oracles.oracle_line_tag.raised"
        return f"oracles.oracle_line_tag.{out[0]}"

    def cli_name(args, kwargs, out, exc):
        if exc is not None or out != 0:
            counters["cli.main.exit_nonzero"] += 1
        return "cli.main"

    tracer.patch_function(linalg, "hermitian_eig", eig_name)
    for mod, attr in ((linalg, "nullspace"), (linalg, "congruence_to_signs"),
                      (projective, "line_through"),
                      (quadrics, "equivalence_witness"),
                      (sections, "tangent_space"),
                      (sections, "section_with_subspace"),
                      (actions, "homogeneity_transport"),
                      (oracles, "grid_line_tag"),
                      (oracles, "verify_axioms"),
                      (jsonio, "decode_quadric"),
                      (jsonio, "canonical_dumps")):
        tracer.patch_function(mod, attr, _fixed(f"{mod.__name__[7:]}.{attr}"))
    tracer.patch_function(sections, "classify_line_section", section_name)
    tracer.patch_function(convexity, "disk_section_test", disk_name)
    tracer.patch_function(convexity, "mvee_complex", mvee_name)
    tracer.patch_function(oracles, "oracle_line_tag", oracle_tag_name)
    tracer.patch_function(cli, "main", cli_name)
    tracer.patch_method(projective.ProjPoint, "__init__",
                        _fixed("projective.ProjPoint"))
    tracer.patch_method(quadrics.QuadricBombon, "__init__",
                        _fixed("quadrics.QuadricBombon.init"))
    tracer.patch_method(quadrics.QuadricBombon, "side",
                        _fixed("quadrics.QuadricBombon.side"))
    tracer.patch_method(quadrics.QuadricBombon, "canonical_form",
                        _fixed("quadrics.QuadricBombon.canonical_form"))
    tracer.patch_method(moebius.GenCircle, "__init__",
                        _fixed("moebius.GenCircle.init"))
    tracer.patch_method(moebius.GenCircle, "to_unit_chart",
                        _fixed("moebius.GenCircle.to_unit_chart"))
    tracer.patch_method(convexity.ConvexBodyOracle, "inside", inside_name)
    tracer.patch_method(oracles.OracleSet, "labels", labels_name)


def layer_values(agg, counters, n_passes):
    """Per-pass per-layer metric values from aggregated spans."""
    def per_pass(v):
        return v / n_passes

    vals = {}
    for layer in TIMED_LAYERS:
        calls, self_s, _ = agg.get(layer, (0, 0.0, 0.0))
        vals[f"{layer}.calls"] = per_pass(calls)
        vals[f"{layer}.self_s"] = per_pass(self_s)
    for name, row_name, field in (
            ("convexity.ConvexBodyOracle.inside.calls",
             "convexity.ConvexBodyOracle.inside", 0),
            ("convexity.mvee_complex.calls", "convexity.mvee_complex", 0),
            ("convexity.mvee_complex.self_s", "convexity.mvee_complex", 1),
            ("oracles.OracleSet.labels.calls", "oracles.OracleSet.labels", 0),
            ("cli.main.calls", "cli.main", 0),
            ("cli.main.self_s", "cli.main", 1)):
        vals[name] = per_pass(agg.get(row_name, (0, 0.0, 0.0))[field])
    for name in ("linalg.hermitian_eig.no_convergence",
                 "convexity.oracle_inconsistent",
                 "convexity.ConvexBodyOracle.inside.points",
                 "convexity.mvee_complex.iterations",
                 "oracles.OracleSet.labels.points",
                 "cli.main.exit_nonzero"):
        vals[name] = per_pass(counters[name])
    n_cls = counters["sections.classify_line_section.calls"]
    vals["sections.low_confidence_frac"] = (
        counters["sections.low_confidence"] / n_cls if n_cls else 0.0)
    n_tag = sum(agg.get(f"oracles.oracle_line_tag.{t}", (0,))[0]
                for t in ORACLE_TAGS)
    vals["oracles.stage2_frac"] = (
        counters["oracles.stage2_labels"] / n_tag if n_tag else 0.0)
    return vals
