"""The benchmark's layer tracer still finds every name it wraps or reads.

``perfbench/tracer.py`` wraps plpareto functions by name and reads attributes
of their results.  A name that disappears from the library does not fail a
traced run: its metrics just drop out of the output.  This test loads the
tracer by path, runs one small op under it and checks that nothing is
missing and that every per-layer metric of ``BENCHMARK.json`` is reported.
"""

import importlib.util
import json
import time
from pathlib import Path

from plpareto import Rewards, bound_context, build_polygon, cstar_enumeration

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "_plpareto_bench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name():
    tracing = _load_tracer()
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # the README quick-start region
    rw = Rewards(1.0 / 3.0, 1.0, 20.0)
    region = build_polygon([(4, 4), (16, 16), (11, 16), (4, 9)])
    # resolve the calls through the modules, where the tracer rebinds them
    import plpareto.bounds as bounds
    import plpareto.consistency as consistency

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        with tracer.op_span():
            bounds.bound_context(region, rw, 0.8)
            consistency.cstar_enumeration(region, rw)
        op_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    assert bounds.bound_context is bound_context
    assert consistency.cstar_enumeration is cstar_enumeration
    assert tracer.missing == set()
    # both result hooks fired
    assert tracer.counts["bounds.bps"] > 0
    assert tracer.counts["consistency.cstar"] == 1
    metrics, _, _ = tracing.summarize(tracer, 1, op_s, {})
    assert set(metrics) == per_layer
