#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. Smoke: every workload at tiny size, untraced and traced, must be
   correct and print every metric BENCHMARK.json names, with its unit.
2. Fault injection: with Circle and Empty swapped (``--fault``), the
   classify and verify workloads must report failed ops.

Exits 1 if any of this does not hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAULT_WORKLOADS = ("classify", "verify")


def run(workload, trace, fault=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if fault:
        cmd.append("--fault")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = run(wl, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            status = "ok"
            if not res["correct"] or res["failed"]:
                status = f"incorrect ({res['failed']}/{res['attempted']} failed)"
            elif got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                status = f"metric mismatch: missing {missing}, extra {extra}"
            print(f"smoke {wl:<9} trace {trace}: {status}, "
                  f"{len(got)} metrics", flush=True)
            if status != "ok":
                problems.append(f"{wl} trace {trace}: {status}")
    for wl in FAULT_WORKLOADS:
        res = run(wl, 0, fault=True)
        frac = res["failed"] / res["attempted"]
        caught = res["failed"] > 0 and not res["correct"]
        print(f"fault {wl:<9}: failed_frac {frac:.4f} "
              f"({'caught' if caught else 'NOT CAUGHT'})", flush=True)
        if not caught:
            problems.append(f"{wl}: swapped Circle/Empty went unnoticed")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
