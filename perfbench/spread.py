#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads mc-ellipse-adv solve-regions --seeds 1 2 3 4 5

For each workload and metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are made one after
another, never in parallel.  ``--json`` appends every run's result to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return {
        "workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
        "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="append each run's output to this JSON-lines file")
    args = ap.parse_args(argv)

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(spec, wl, seed, args.seconds, args.trace)
            runs.append(r)
            res = r["result"]
            print(f"{wl} seed={seed} wall={r['wall_s']:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"cal_ms={r['detail']['cal_ms']:.3f}", flush=True)
            if args.json:
                with open(args.json, "a") as fh:
                    fh.write(json.dumps(r) + "\n")
        print(f"{wl}: {'metric':<30} {'median':>12} {'iqr/med':>8} {'bound':>6}")
        for m in metric_spec:
            vals = [r["result"]["metrics"][m["name"]]["value"]
                    for r in runs if m["name"] in r["result"]["metrics"]]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound", "")
            print(f"{wl}: {m['name']:<30} {med:>12.6g} {rel:>8.4f} {bound:>6}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
