"""One benchmark client: builds a workload, runs it, checks its outputs.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads
pinned to 1 and ``src`` first on PYTHONPATH.  Prints diagnostic lines
starting with ``#`` and, last, one JSON object with the raw figures.
With ``--setup-only`` it only imports bombon and builds the inputs,
which is what ``run.py`` times as set-up, and then prints the speed of
the reference kernel.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_PASSES = 3
SETUP_REF_RUNS = 60


def tail_rank(n):
    """1-based rank of the highest percentile with ten samples beyond it
    (never below the median, for pools too small to have one)."""
    return max((n + 1) // 2, n - 10)


def machine_record():
    import numpy as np
    import bombon

    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                             "openblas configuration")
                     if k in blas},
            "bombon": str(Path(bombon.__file__).resolve().parent),
            "thread_pins": {k: os.environ.get(k) for k in sorted(os.environ)
                            if k.endswith("_THREADS")}}


class OutputLog:
    """First output of every op, and how many later outputs differed.

    Outputs are folded in between runs, outside the timed part, so the
    timed loop holds no more than one run's outputs at a time.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.prints = {}
        self.runs = {}
        self.differ = {}

    def add(self, results):
        for i, _, out in results:
            fp = self.wl.fingerprint(i, out)
            if i not in self.first:
                self.first[i], self.prints[i] = out, fp
                self.runs[i] = self.differ[i] = 0
            self.runs[i] += 1
            self.differ[i] += fp != self.prints[i]

    def check(self):
        """(attempted, failed, first error messages) over every op run.

        Each op's first output gets the workload's full check; every
        later output of the op must be identical to it.
        """
        attempted = failed = 0
        errors = []
        for i, out in self.first.items():
            attempted += self.runs[i]
            err = self.wl.check(i, out)
            if err is not None:
                failed += self.runs[i]
            elif self.differ[i]:
                failed += self.differ[i]
                err = (f"op {i}: {self.differ[i]} of {self.runs[i]} outputs "
                       "differ from its first")
            if err is not None and len(errors) < 10:
                errors.append(err)
        return attempted, failed, errors


def run_loop(wl, seconds, trace, log):
    """Closed loop of passes over the whole pool.

    Untraced: passes until ``seconds`` have passed and ``MIN_PASSES``
    are done.  Traced: untraced and traced passes alternate, so the two
    can be compared.
    """
    from tracing import Tracer, install_layer_spans

    tracer = Tracer() if trace else None
    passes = []   # (traced, wall_s, [(op index, seconds)], kernel times)
    gc.collect()
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tr = tracer if traced else None
        if tr is not None:
            install_layer_spans(tr)
        t0 = time.perf_counter()
        try:
            results, refs = wl.run_pass(tr)
        finally:
            wall = time.perf_counter() - t0
            if tr is not None:
                tr.restore()
        passes.append((traced, wall, [(i, dt) for i, dt, _ in results], refs))
        log.add(results)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start >= seconds):
            return passes, tracer


def speed_scale(refs):
    """Factor that takes times measured while the reference kernel took
    ``refs`` to times at the reference speed."""
    return reference.REF_S / statistics.median(refs)


def op_latencies(passes, normalized=True):
    """Op index -> median latency over the untraced passes, each pass's
    times taken to the reference speed by its own kernel runs (or as
    measured on the host, with ``normalized=False``)."""
    by_op = {}
    for traced, _, res, refs in passes:
        if not traced:
            f = speed_scale(refs) if normalized else 1.0
            for i, dt in res:
                by_op.setdefault(i, []).append(dt * f)
    return {i: statistics.median(v) for i, v in by_op.items()}


def summarize(lat, n_passes):
    """End-to-end figures from per-op latencies: ({name: (value, unit,
    samples)}, tail percentile).

    p50 and the tail are taken over the pool of ops, the tail at the
    highest percentile with ten ops beyond it.  ``wall_s`` is one pass
    over the whole pool, summed from its ops' latencies, and the
    throughput is the pool size over that sum.
    """
    lat = sorted(lat)
    n = len(lat)
    rank = tail_rank(n)
    return {
        "wall_s": (sum(lat), "s", n_passes),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", n),
        "op_tail_ms": (lat[rank - 1] * 1e3, "ms", n),
    }, 100.0 * rank / n


def group_lines(wl, passes):
    groups = wl.groups()
    by = {}
    for i, dt in op_latencies(passes).items():
        by.setdefault(groups.get(i, "all"), []).append(dt)
    out = []
    for label in sorted(by):
        vals = by[label]
        out.append(f"#   group {label:<30} ops={len(vals):<5} "
                   f"p50_ms={statistics.median(vals) * 1e3:10.4f} "
                   f"mean_ms={statistics.fmean(vals) * 1e3:10.4f}")
    return out


def layer_report(wl, passes, tracer, seed):
    from tracing import layer_values

    traced = [w * speed_scale(r) for t, w, _, r in passes if t]
    untraced = [w * speed_scale(r) for t, w, _, r in passes if not t]
    scale = statistics.median(speed_scale(r) for t, _, _, r in passes if t)
    agg = {name: [calls, self_s * scale, total * scale]
           for name, (calls, self_s, total) in tracer.aggregate().items()}
    vals = layer_values(agg, tracer.counters, len(traced))
    wall_traced = statistics.median(traced)
    wall_untraced = statistics.median(untraced)
    over = wall_traced - wall_untraced
    vals["trace.overhead_s"] = over
    vals["trace.overhead_frac"] = over / wall_untraced
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{wl.name}-seed{seed}.tsv"
    tracer.write(spans_path)
    lines = [f"# traced passes {len(traced)}, untraced passes {len(untraced)}, "
             f"{len(tracer.starts)} spans written to "
             f"{spans_path.relative_to(ROOT)}",
             f"# tracing overhead: traced wall_s {wall_traced:.4f}"
             f" - untraced wall_s {wall_untraced:.4f}"
             f" = {over:.4f} s ({100 * over / wall_untraced:.1f}%)"
             " (median passes, at the reference speed)",
             "#   span                                        calls/pass"
             "     self_s/pass    total_s/pass   total_us/call"]
    for name in sorted(agg, key=lambda k: -agg[k][1]):
        calls, self_s, total = agg[name]
        k = len(traced)
        lines.append(f"#   {name:<44}{calls / k:>11.1f}{self_s / k:>16.6f}"
                     f"{total / k:>16.6f}{1e6 * total / calls:>16.2f}")
    return vals, lines


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import bombon
    if not Path(bombon.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bombon imported from {bombon.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, workdir, True)
        wl = workloads.build(args.workload, args.seed, str(workdir),
                             tiny=args.tiny)
        stack.callback(wl.close)
        if args.setup_only:
            # the host's speed right after set-up, for run.py to take the
            # set-up time to the reference speed
            t0 = time.perf_counter()
            refs = [reference.sample() for _ in range(SETUP_REF_RUNS)]
            print(json.dumps({"ref_median_s": statistics.median(refs),
                              "ref_wall_s": time.perf_counter() - t0}))
            return 0
        if args.fault:
            workloads.install_fault(args.workload, stack)
        wl.warm_up()
        log = OutputLog(wl)
        passes, tracer = run_loop(wl, args.seconds, args.trace, log)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, errors = log.check()
        lat = op_latencies(passes)
        host = op_latencies(passes, normalized=False)
        speed = statistics.median(statistics.median(r)
                                  for _, _, _, r in passes)
        lines = [f"# machine {json.dumps(machine_record(), sort_keys=True)}"]
        lines += wl.describe()
        lines += [f"# reference kernel: median {speed * 1e3:.4f} ms over the"
                  f" passes, {reference.REF_S * 1e3:.4f} ms at the reference"
                  f" speed (host at {reference.REF_S / speed:.3f}x)",
                  f"# {len(passes)} passes over a pool of {wl.pool_size} "
                  f"{wl.op_unit} ops; per-group median op latency at the "
                  "reference speed (untraced passes):"]
        lines += group_lines(wl, passes)
        layers = None
        if tracer is not None:
            layers, more = layer_report(wl, passes, tracer, args.seed)
            lines += more
        for line in lines:
            print(line)
        for err in errors:
            print(f"# check failed: {err}")
        print(json.dumps({
            "correct": failed == 0 and not errors,
            "attempted": attempted, "failed": failed,
            "passes": sum(1 for traced, _, _, _ in passes if not traced),
            "op_latency_s": [lat[i] for i in sorted(lat)],
            "op_latency_host_s": [host[i] for i in sorted(host)],
            "peak_rss_mb": rss_mb, "per_layer": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
