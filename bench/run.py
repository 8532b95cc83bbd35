#!/usr/bin/env python3
"""bombon benchmark.

    python3 bench/run.py --workload classify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Runs one workload (``classify``, ``verify`` or ``forms``; see
``workloads.py``) with one closed-loop client in its own process, with
BLAS/OpenMP threads pinned to 1, against the ``bombon`` sources in
``src/`` of this checkout.  Set-up time is the median over several fresh
interpreters that import bombon and build the inputs.  Times are
reported at the reference speed (see ``reference.py``): a reference
kernel runs between the ops, and each pass's times are scaled by how
fast it ran then, so that other tenants of a shared host do not move
the figures.  Prints a table of every metric with its unit and sample
count, beside its value as measured on the host, then, as the last
line, one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones from a traced run, which
also reports the tracing overhead.  ``--fault`` swaps Circle and Empty on the workload's
path, which the output checks must catch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify", "verify", "forms")
SETUP_REPEATS = 7
# Client processes per untraced run, one after the other, each given an
# equal share of the run.  An op's latency is the mean of its latency in
# each.  Classify's sub-millisecond ops run up to 25% faster or slower
# in one process than in another on the same host, whatever the seed,
# and the reference kernel does not see it; averaging over processes
# evens that out.
PROCESSES = {"classify": 3}
CHILD_TIMEOUT_S = 150
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in PINS})
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def worker(args, extra=(), seconds=None):
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    cmd += ["--fault"] * args.fault + ["--tiny"] * args.tiny + list(extra)
    return subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def measure_setup(args):
    """Set-up times of fresh interpreters: (at the reference speed, as
    measured on the host).  Each worker runs the reference kernel after
    its set-up; that time is taken off, and its speed scales the rest."""
    sys.path.insert(0, str(HERE))
    from reference import REF_S

    scaled, host = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = worker(args, ("--setup-only",))
        elapsed = time.perf_counter() - t0
        ref = json.loads(proc.stdout.strip().split("\n")[-1])
        setup = elapsed - ref["ref_wall_s"]
        host.append(setup)
        scaled.append(setup * REF_S / ref["ref_median_s"])
    return scaled, host


def run_workload(args):
    from worker import summarize

    load = os.getloadavg()
    setup, setup_host = measure_setup(args)
    procs = 1 if args.trace else PROCESSES.get(args.workload, 1)
    lines, raws = [], []
    for _ in range(procs):
        proc = worker(args, seconds=args.seconds / procs)
        out = proc.stdout.rstrip("\n").split("\n")
        lines += out[:-1]
        raws.append(json.loads(out[-1]))
    n_passes = sum(r["passes"] for r in raws)
    e2e, tail = summarize(mean_latencies(raws, "op_latency_s"), n_passes)
    host, _ = summarize(mean_latencies(raws, "op_latency_host_s"), n_passes)
    host = {k: v[0] for k, v in host.items()}
    e2e["setup_s"] = (statistics.median(setup), "s", len(setup))
    host["setup_s"] = statistics.median(setup_host)
    rss = max(r["peak_rss_mb"] for r in raws)
    e2e["peak_rss_mb"] = (rss, "MB", procs)
    host["peak_rss_mb"] = rss
    raw = {"correct": all(r["correct"] for r in raws),
           "attempted": sum(r["attempted"] for r in raws),
           "failed": sum(r["failed"] for r in raws),
           "per_layer": raws[0]["per_layer"]}
    order = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
             "peak_rss_mb")
    out = [f"# workload {args.workload}  seed {args.seed}  seconds "
           f"{args.seconds}  trace {args.trace}  fault {int(args.fault)}",
           f"# host nproc {os.cpu_count()}  affinity "
           f"{len(os.sched_getaffinity(0))}  loadavg_at_start "
           f"{load[0]:.2f} {load[1]:.2f} {load[2]:.2f}  git {git_sha()}"]
    out += lines
    out.append(f"# {'metric':<14}{'value':>16}{'on host':>16}  {'unit':<6}"
               f"{'n':>8}   (value: at the reference speed)")
    for name in order:
        value, unit, n = e2e[name]
        note = f"  (p{tail:.1f})" if name == "op_tail_ms" else ""
        out.append(f"# {name:<14}{value:>16.6f}{host[name]:>16.6f}  "
                   f"{unit:<6}{n:>8}{note}")
    frac = raw["failed"] / raw["attempted"]
    out.append(f"# {'failed_frac':<14}{frac:>16.6f}  {'ratio':<6}"
               f"{raw['attempted']:>8}")
    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, v, u in layer_rows(raw["per_layer"])}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in order}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return out, result


def mean_latencies(raws, key):
    """Per-op latency: the mean over the client processes."""
    return [statistics.fmean(col) for col in zip(*(r[key] for r in raws))]


def layer_rows(values):
    sys.path.insert(0, str(HERE))
    from tracing import per_layer_metrics

    return [(name, values[name], unit) for name, unit in per_layer_metrics()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", action="store_true",
                    help="swap Circle and Empty on the workload's path")
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for smoke runs")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bombon" / "__init__.py").is_file():
        print(f"no bombon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        try:
            lines, result = run_workload(args)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"worker for {name} failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in
                                    result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
