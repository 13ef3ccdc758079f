"""Outside-in layer trace of plpareto, installed in the benchmark process only.

The tracer wraps each layer's public functions and rebinds every
``plpareto.*`` module attribute that is the same function object, because
the library's modules import each other's functions by name (for example
``consistency.bound_context`` and ``harness.run_sequence``).  Most wrappers
record a span (name, layer, parent, start, end); the hot leaves only count
calls.  Spans are kept in memory and written out when the run ends.

Span stacks are kept per thread: ``run_experiment`` runs its trial in a pool
thread, where context variables are not copied.  A span that opens on an
empty stack in another thread takes the innermost open span of the thread
that installed the tracer as its parent.  The benchmark runs one op at a
time and the library then has at most one trial in flight, so only one
thread is ever inside the library and the shared span list and counters
need no lock.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

SPAN, COUNT = "span", "count"

# (layer, module, attribute, kind).  Pure ratio arithmetic (ratios.cp*,
# hindsight_*) and constant helpers (rho, no_advice_level) are left
# unwrapped: they are leaves called thousands of times per op, and their
# time shows as self time of the caller.
TARGETS = (
    ("advice", "advice", "box_advice", SPAN),
    ("advice", "advice", "ellipse_advice", SPAN),
    ("advice", "advice", "point_advice", SPAN),
    ("region", "region", "build_polygon", SPAN),
    ("region", "region", "polygonize_ellipse", SPAN),
    ("region", "region", "key_points", SPAN),
    ("region", "region", "x_vertices", SPAN),
    ("region", "region", "contains", SPAN),
    ("region", "region", "envelope", COUNT),
    ("bounds", "bounds", "bound_context", SPAN),
    ("bounds", "bounds", "band_gap", SPAN),
    ("bounds", "bounds", "policy_floor", SPAN),
    ("bounds", "bounds", "u_ceiling", SPAN),
    ("bounds", "bounds", "u_bound", SPAN),
    ("bounds", "bounds", "l_bound", SPAN),
    ("bounds", "bounds", "l_tilde", SPAN),
    ("bounds", "bounds", "l_raw", COUNT),
    ("bounds", "bounds", "u_raw", COUNT),
    ("consistency", "consistency", "cstar_bisection", SPAN),
    ("consistency", "consistency", "cstar_enumeration", SPAN),
    ("consistency", "consistency", "feasible", SPAN),
    ("consistency", "consistency", "consistent_pl", SPAN),
    ("ratios", "ratios", "balance_point", SPAN),
    ("pareto", "pareto", "solve_pareto", SPAN),
    ("pareto", "pareto", "tradeoff_curve", SPAN),
    ("plfunction", "plfunction", "PLFunction.__call__", COUNT),
    ("engine", "engine", "run_sequence", SPAN),
    ("engine", "engine", "ordered_sequence", SPAN),
    ("engine", "engine", "unit_chunks", SPAN),
    ("engine", "engine", "performance_ratio", SPAN),
    ("engine", "engine", "offer", COUNT),
    ("harness", "harness", "run_experiment", SPAN),
    ("harness", "harness", "evaluate", SPAN),
    ("harness", "harness", "sample_demand", SPAN),
)

# the benchmark's own span around each op
OP_SPAN = "bench.op"


def _resolve(module, attr):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Wraps plpareto's layer functions while installed; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, parent, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._home_stack if threading.get_ident() == self._home else []
            self._local.stack = stack
        return stack

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._home_stack and stack is not self._home_stack:
            parent = self._home_stack[-1]
        else:
            parent = -1
        rec = [name, layer, parent, time.perf_counter(), 0.0]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op_span(self):
        """The benchmark's span around one op."""
        rec = self._open(OP_SPAN, "bench")
        try:
            yield
        finally:
            self._close(rec)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str, on_result, on_error):
        def wrapper(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        """Counters read off a span's result or exception, by span name."""
        counts, missing = self.counts, self.missing

        def ctx(c):
            try:
                counts["bounds.bps"] += len(c.u_bps) + len(c.floor_bps)
            except AttributeError:
                missing.add("bounds.bps")

        def cstar(r):
            try:
                counts["consistency.checks"] += r.n_checks
                counts["consistency.cands"] += len(r.candidate_set)
            except AttributeError:
                missing.add("consistency.result")
            counts["consistency.cstar"] += 1

        no_solution = getattr(sys.modules.get("plpareto.errors"), "NoSolution", None)
        if no_solution is None:
            missing.add("ratios.balance_point")

        def balance(exc):
            if no_solution is not None and isinstance(exc, no_solution):
                counts["ratios.balance_fail"] += 1

        on_result = {
            "bounds.bound_context": ctx,
            "consistency.cstar_bisection": cstar,
            "consistency.cstar_enumeration": cstar,
        }
        return on_result, {"ratios.balance_point": balance}

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "plpareto" or n.startswith("plpareto."))
        ]
        on_result, on_error = self._hooks()
        for layer, mod, attr, kind in TARGETS:
            name = f"{mod}.{attr}"
            home = sys.modules.get(f"plpareto.{mod}")
            original = _resolve(home, attr) if home is not None else None
            if original is None:
                self.missing.add(name)
                continue
            if kind == SPAN:
                wrapped = self._span_wrapper(
                    original, name, layer, on_result.get(name), on_error.get(name))
            else:
                wrapped = self._count_wrapper(original, name)
            if "." in attr:  # a method: rebind it on its class
                cls_name, meth = attr.rsplit(".", 1)
                cls = _resolve(home, cls_name)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write spans (one JSON list per line) and the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "missing": sorted(self.missing)}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class SpanStats:
    """Self and inclusive times of a finished trace, in seconds."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        self.spans = spans
        self.self_by_layer: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.incl_by_name: dict[str, float] = defaultdict(float)
        self.calls_by_name: dict[str, int] = defaultdict(int)
        for rec, ch in zip(spans, child):
            dur = rec[4] - rec[3]
            self.self_by_layer[rec[1]] += dur - ch
            self.self_by_name[rec[0]] += dur - ch
            self.incl_by_name[rec[0]] += dur
            self.calls_by_name[rec[0]] += 1

    def covered(self, names) -> float:
        """Time under spans named in ``names`` (or whose layer is in it),
        counting each span only when no ancestor is also in ``names``."""
        names = set(names)

        def hit(rec):
            return rec[0] in names or rec[1] in names

        total = 0.0
        for rec in self.spans:
            if not hit(rec):
                continue
            p = rec[2]
            while p >= 0 and not hit(self.spans[p]):
                p = self.spans[p][2]
            if p < 0:
                total += rec[4] - rec[3]
        return total


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def summarize(tracer: Tracer, n_ops: int, untraced_s: float, groups: dict):
    """Per-layer metrics of a traced pass of ``n_ops`` ops, averaged per op.

    ``untraced_s`` is the summed op time of the same ops run untraced.
    Returns (metrics, each layer's self time as a share of op time, the
    share of op time covered by each named group of layers or spans).  A
    metric whose wrapped functions have disappeared from the library is left
    out of the metrics.
    """
    st = SpanStats(tracer.spans)
    c = tracer.counts
    op_s = st.incl_by_name[OP_SPAN]
    ms = 1e3 / n_ops
    ctx = st.calls_by_name["bounds.bound_context"]
    evals = c["bounds.l_raw"] + c["bounds.u_raw"]
    steps = c["engine.offer"]
    balance = st.calls_by_name["ratios.balance_point"]
    cstars = c["consistency.cstar"]
    cstar_fns = ("consistency.cstar_bisection", "consistency.cstar_enumeration",
                 "consistency.result")
    curve_fns = ("bounds.l_raw", "bounds.u_raw", "bounds.bound_context")
    bps_fns = curve_fns + ("bounds.bps",)
    defs = {
        "advice.ms": (("advice",), lambda: st.self_by_layer["advice"] * ms),
        "region.key_points_per_ctx": (("region.key_points", "bounds.bound_context"),
                                      lambda: _div(st.calls_by_name["region.key_points"], ctx)),
        "region.envelope_calls": (("region.envelope",), lambda: c["region.envelope"] / n_ops),
        "region.ms": (("region",), lambda: st.self_by_layer["region"] * ms),
        "bounds.ctx_calls": (("bounds.bound_context",), lambda: ctx / n_ops),
        "bounds.ctx_ms": (("bounds.bound_context",),
                          lambda: _div(st.incl_by_name["bounds.bound_context"] * 1e3, ctx)),
        "bounds.curve_evals_per_ctx": (curve_fns, lambda: _div(evals, ctx)),
        "bounds.bps_per_ctx": (bps_fns, lambda: _div(c["bounds.bps"], ctx)),
        "bounds.evals_per_bp": (bps_fns, lambda: _div(evals, c["bounds.bps"])),
        "bounds.band_gap_ms": (("bounds.band_gap",), lambda: st.self_by_name["bounds.band_gap"] * ms),
        "consistency.checks_per_cstar": (cstar_fns, lambda: _div(c["consistency.checks"], cstars)),
        "consistency.cands_per_cstar": (cstar_fns, lambda: _div(c["consistency.cands"], cstars)),
        "consistency.ms": (("consistency",), lambda: st.self_by_layer["consistency"] * ms),
        "ratios.balance_calls": (("ratios.balance_point",), lambda: balance / n_ops),
        "ratios.balance_ms": (("ratios.balance_point",),
                              lambda: st.incl_by_name["ratios.balance_point"] * ms),
        "ratios.balance_fail_frac": (("ratios.balance_point",),
                                     lambda: _div(c["ratios.balance_fail"], balance)),
        "pareto.solve_calls": (("pareto.solve_pareto",),
                               lambda: st.calls_by_name["pareto.solve_pareto"] / n_ops),
        "pareto.ms": (("pareto",), lambda: st.self_by_layer["pareto"] * ms),
        "plfunction.evals_per_step": (("plfunction.PLFunction.__call__", "engine.offer"),
                                      lambda: _div(c["plfunction.PLFunction.__call__"], steps)),
        "engine.steps": (("engine.offer",), lambda: steps / n_ops),
        "engine.us_per_step": (("engine",), lambda: _div(st.self_by_layer["engine"] * 1e6, steps)),
        "engine.ms": (("engine",), lambda: st.self_by_layer["engine"] * ms),
        "harness.evaluate_ms": (("harness.evaluate",),
                                lambda: st.self_by_name["harness.evaluate"] * ms),
        "harness.sample_ms": (("harness.sample_demand",),
                              lambda: st.incl_by_name["harness.sample_demand"] * ms),
        "trace.overhead": ((), lambda: _div(op_s, untraced_s)),
        "trace.coverage": ((), lambda: 1.0 - _div(st.self_by_name[OP_SPAN], op_s)),
    }
    gone = set(tracer.missing)
    gone |= {layer for layer, mod, attr, _ in TARGETS if f"{mod}.{attr}" in tracer.missing}
    metrics = {k: fn() for k, (needs, fn) in defs.items() if gone.isdisjoint(needs)}
    shares = {layer: _div(s, op_s) for layer, s in sorted(st.self_by_layer.items())}
    cover = {label: _div(st.covered(names), op_s) for label, names in groups.items()}
    return metrics, shares, cover
