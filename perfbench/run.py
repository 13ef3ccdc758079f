#!/usr/bin/env python3
"""Benchmark of the plpareto library, measured from outside through its API.

    python3 perfbench/run.py --workload mc-ellipse-adv --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: plpareto is imported from the checkout's
``src``.  Workloads are defined in ``workloads.py``; the metric names and
units are read from ``BENCHMARK.json``; ``context.json`` defines each metric.

``--trace 0`` runs the timed phase and prints the end-to-end metrics.
``--trace 1`` runs a fixed set of ops twice, untraced and then traced (see
``tracer.py``), and prints the per-layer metrics.  The last line of stdout
is the result JSON; the line before it holds diagnostics, among them the
raw wall-clock figures (ops_per_s, op_ms_p50, op_ms_p90) and the
calibration kernel's median time cal_ms.

Op times are reported as multiples of a calibration kernel timed between
ops, because the host's speed drifts by more than the allowed bounds from
run to run; raw wall times stay in the diagnostic line.

Every op is one serial call into the library.  The calibration kernel, input
generation and output checks run between ops, outside the op timer, and are
excluded from ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# p90 is reported from at least this many ops, so that at least ten samples
# lie beyond it; the quality figures are taken over the first MIN_OPS ops
MIN_OPS = 100
SETUP_REPS = 3
# The calibration kernel runs before every op and once after the last, and
# each op's time is divided by the mean of the two kernel times around it.
# That follows bursts of host load as well as drift: with a CPU-bound process
# on the other vCPU for 0.3 s of every second, mc-ellipse-adv's p90 rose 60%
# raw, 43% over the median of the 9 nearest kernels (run before every 2nd op)
# and 12% over the two adjacent kernels.
# The kernel mixes a walk over a list of CAL_SLOTS floats (about 8 MB with
# the float objects) in a fixed pseudo-random order with Fraction arithmetic,
# a keyed sort and dict updates, so that like the library it runs many kinds
# of bytecode over a working set larger than the caches.  On a 2-vCPU host,
# with a CPU-bound process on the other vCPU, ops slowed 1.7-1.9x and the walk
# 1.9x, while a loop of arithmetic on a small dict and list slowed 1.2-1.7x;
# over back-to-back runs the ratio of op time to the walk or the mix moved
# 11-25%, as did the ratio to a fixed op of a frozen copy of the library.
CAL_SLOTS = 1 << 18
CAL_STEPS = 14_000
CAL_POINTS = 1200
_CAL_TABLE = [i * 0.6180339887498949 % 1.0 for i in range(CAL_SLOTS)]
# a run must end within 180 s; the timed phase stops here whatever its length
DEADLINE_S = 150.0
# traced op time / untraced op time, used only to size the traced run
TRACE_COST = 1.2
OUT_DIR = ROOT / ".perfbench_out"


class TooFewOps(Exception):
    """The timed phase ended at the deadline with fewer than MIN_OPS ops."""


def calibration_kernel() -> float:
    """Fixed pure-Python work of about 10 ms; see CAL_SLOTS."""
    table, mask = _CAL_TABLE, CAL_SLOTS - 1
    acc, k = 0.0, 1
    for _ in range(CAL_STEPS):
        k = (k * 1103515245 + 12345) & mask
        x = table[k]
        acc += x * x - 0.5 * x
    frac = Fraction(0)
    for i in range(1, 45):
        frac += Fraction(i, i + 7) * Fraction(3, i + 1)
    pts = sorted(((i * 0.618) % 1.0, (i * 0.414) % 1.0) for i in range(CAL_POINTS))
    pts.sort(key=lambda p: (p[1], p[0]))
    best: dict[float, float] = {}
    for x, y in pts:
        best[round(x, 2)] = max(best.get(round(x, 2), 0.0), y)
    return acc + float(frac) + sum(best.values())


def import_library():
    """Import plpareto from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import plpareto

    if not Path(plpareto.__file__).resolve().is_relative_to(src):
        raise ImportError(f"plpareto was imported from {plpareto.__file__}, not {src}")
    return plpareto


def import_seconds() -> float:
    """Time of ``import plpareto`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import plpareto; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip())


def setup(wl, seed: int, n_inputs: int, reps: int):
    """Import, input generation and warm-up, ``reps`` times.

    Returns (median set-up seconds, the inputs, median of each part).
    """
    total, parts = [], {"import_s": [], "inputs_s": [], "warmup_s": []}
    inputs: list = []
    for _ in range(reps):
        imp = import_seconds()
        t0 = time.perf_counter()
        inputs = [wl.make_input(seed, i) for i in range(n_inputs)]
        t1 = time.perf_counter()
        # one warm-up input for every seed keeps set-up time comparable
        warm = wl.make_input(0, workloads.WARMUP_INDEX)
        wl.check(warm, wl.op(warm))
        calibration_kernel()
        t2 = time.perf_counter()
        total.append(imp + t2 - t0)
        for key, v in zip(parts, (imp, t1 - t0, t2 - t1)):
            parts[key].append(v)
    return statistics.median(total), inputs, {k: statistics.median(v) for k, v in parts.items()}


@dataclass
class Pass:
    """Timings and outcomes of one pass of ops."""

    op_s: list[float] = field(default_factory=list)
    cal_s: list[float] = field(default_factory=list)
    quality: list = field(default_factory=list)  # per op; None if it failed
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    excluded_s: float = 0.0  # calibration, input generation and checks

    @property
    def n(self) -> int:
        return len(self.op_s)


def run_pass(wl, seed: int, inputs: list, keep_going, wrap=nullcontext) -> Pass:
    """Run ops one at a time while ``keep_going(n_done, elapsed_s)`` holds."""
    ps = Pass()
    pc = time.perf_counter
    start = pc()
    i = 0
    while keep_going(i, pc() - start):
        t = pc()
        calibration_kernel()
        ps.cal_s.append(pc() - t)
        if i == len(inputs):
            inputs.append(wl.make_input(seed, i))
        inp = inputs[i]
        ps.excluded_s += pc() - t

        err = None
        t0 = pc()
        try:
            with wrap():
                out = wl.op(inp)
        except Exception as exc:  # a failed op is counted and the run goes on
            err = f"op {i} raised {type(exc).__name__}: {exc}"
        t1 = pc()
        ps.op_s.append(t1 - t0)

        if err is None:
            try:
                err = wl.check(inp, out)
            except Exception as exc:
                err = f"op {i} check raised {type(exc).__name__}: {exc}"
        if err is None:
            ps.quality.append(wl.quality(out))
        else:
            ps.failures.append(err)
            ps.quality.append(None)
        ps.excluded_s += pc() - t1
        i += 1
    t = pc()
    calibration_kernel()
    ps.cal_s.append(pc() - t)
    ps.excluded_s += pc() - t
    ps.wall_s = pc() - start
    return ps


def calibrated(ps: Pass) -> list[float]:
    """Each op's time over the mean of the kernel times before and after it."""
    return [2.0 * s / (a + b) for s, a, b in zip(ps.op_s, ps.cal_s, ps.cal_s[1:])]


def quality_summary(wl, ps: Pass) -> tuple[float, float]:
    ok = [q for q in ps.quality[:MIN_OPS] if q is not None]
    if len(ok) < 2:
        return math.nan, math.nan
    return wl.summary(ok)


def versions() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


def timed_run(wl, seed: int, seconds: float, t_begin: float):
    setup_s, inputs, setup_parts = setup(wl, seed, MIN_OPS, SETUP_REPS)
    gc.collect()
    deadline = t_begin + DEADLINE_S

    def keep_going(i, elapsed):
        return (elapsed < seconds or i < MIN_OPS) and time.perf_counter() < deadline

    ps = run_pass(wl, seed, inputs, keep_going)
    if ps.n < MIN_OPS:
        raise TooFewOps(f"only {ps.n} ops before the deadline; p90 needs {MIN_OPS}")
    ms = [1e3 * s for s in ps.op_s]
    cal = calibrated(ps)
    ops_per_s = ps.n / (ps.wall_s - ps.excluded_s)
    q_mean, q_low = quality_summary(wl, ps)
    metrics = {
        "setup_s": setup_s,
        "op_cal_p50": statistics.median(cal),
        "op_cal_p90": statistics.quantiles(cal, n=10)[8],
        "ops_per_kcal": 1e3 / statistics.fmean(cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - len(ps.failures) / ps.n,
        "quality_mean": q_mean,
        "quality_low": q_low,
    }
    detail = {
        "n_ops": ps.n,
        # raw wall-clock figures; they follow the host's speed, see cal_ms
        "ops_per_s": ops_per_s,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8],
        "cal_ms": 1e3 * statistics.median(ps.cal_s),
        "cal_n": len(ps.cal_s),
        # ops_per_s x mean op time: 1.0 when ops ran one at a time
        "serial_check": ops_per_s * statistics.fmean(ps.op_s),
        wl.quality_names[0]: q_mean,
        wl.quality_names[1]: q_low,
        "setup_parts": setup_parts,
        "failures": ps.failures[:5],
    }
    return ps.n, len(ps.failures), metrics, detail


def traced_run(wl, seed: int, seconds: float):
    n = max(10, round(seconds / (wl.nominal_op_s * (1.0 + TRACE_COST))))
    _, inputs, _ = setup(wl, seed, n, 1)
    gc.collect()
    plain = run_pass(wl, seed, inputs, lambda i, _: i < n)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = run_pass(wl, seed, inputs, lambda i, _: i < n, wrap=tr.op_span)
    finally:
        tr.uninstall()
    failures = plain.failures + traced.failures
    if traced.quality != plain.quality:
        failures.append("traced ops returned other results than untraced ops")
    groups = {
        "bounds+consistency": ("bounds", "consistency"),
        "engine+harness.evaluate": ("engine", "harness.evaluate"),
        "engine": ("engine",),
    }
    metrics, shares, cover = tracing.summarize(tr, n, sum(plain.op_s), groups)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    tr.write(str(spans_path))
    detail = {
        "n_ops": n,
        "cal_ms": 1e3 * statistics.median(plain.cal_s + traced.cal_s),
        "layer_self_share": shares,
        "cover": cover,
        "missing": sorted(tr.missing),
        "spans": str(spans_path.relative_to(ROOT)),
        "failures": failures[:5],
    }
    return 2 * n, len(failures), metrics, detail


def main(argv=None) -> int:
    t_begin = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        lib = import_library()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    wl = workloads.get(args.workload, lib)

    try:
        if args.trace:
            attempted, failed, values, detail = traced_run(wl, args.seed, args.seconds)
            wanted = spec["per_layer"]
        else:
            attempted, failed, values, detail = timed_run(wl, args.seed, args.seconds, t_begin)
            wanted = spec["end_to_end"]
    except TooFewOps as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted if m["name"] in values
    }
    detail.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        not_reported=[m["name"] for m in wanted if m["name"] not in values],
        **versions(),
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
