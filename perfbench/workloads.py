"""The benchmark's three seeded workloads.

Each workload turns (seed, op index) into one input, runs one op on it as a
single serial call into plpareto's public API, and checks the op's output.
Inputs depend only on the seed and the op index, so two runs with the same
seed see the same inputs in the same order, and no input repeats inside a
run (a per-input cache in the library would get no hits it would not get
in real use).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# index of the input used to warm up; it is outside the range of op indices,
# so warm-up never pre-computes anything for a measured op
WARMUP_INDEX = 10**9


def op_seed(seed: int, i: int) -> int:
    """Per-op seed derived from the workload seed and the op index."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    """One workload: how to make inputs, run an op, check it and score it.

    ``quality`` maps an op's output to its quality figure and ``summary``
    turns the figures of a run into two ratios (higher is better), reported
    under ``quality_names``.
    ``nominal_op_s`` sizes the traced run; it is a constant so that the
    traced op set depends only on the command line.
    """

    name: str
    make_input: Callable[[int, int], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    quality: Callable[[Any], Any]
    quality_names: tuple[str, str]
    summary: Callable[[list], tuple[float, float]]
    nominal_op_s: float


def _mc_workload(lib, name: str, nominal_op_s: float, perms: range | None = None,
                 **cfg_kw) -> Workload:
    rw = lib.Rewards(1.0 / 3.0, 1.0, 20.0)

    def make_input(seed: int, i: int):
        kw = dict(cfg_kw)
        if perms is not None:
            # the replay count cycles with the op index: op times then spread
            # with the input size, and p90 does not rest on host noise alone
            kw["n_perms"] = perms[i % len(perms)]
        # K=1: the library's own trial pool then never has two trials in flight
        return lib.ExperimentConfig(K=1, seed=op_seed(seed, i), **kw)

    def op(cfg):
        return lib.run_experiment(cfg, rw)

    def check(cfg, rep) -> str | None:
        a, w = rep.avg_cp, rep.worst_cp
        if a is None or w is None:
            return "empty report"
        if not (math.isfinite(a) and math.isfinite(w)):
            return f"non-finite ratios avg={a} worst={w}"
        if not (0.0 <= w <= 1.0 and 0.0 <= a <= 1.0):
            return f"ratios outside [0, 1]: avg={a} worst={w}"
        # 1e-12 absorbs the rounding of the mean when all ratios are equal
        if w > a + 1e-12:
            return f"worst_cp {w} above avg_cp {a}"
        return None

    return Workload(
        name, make_input, op, check,
        lambda rep: (rep.avg_cp, rep.worst_cp), ("avg_cp", "worst_cp"),
        lambda qs: (statistics.fmean(a for a, _ in qs), statistics.fmean(w for _, w in qs)),
        nominal_op_s,
    )


HULL_SIZES = 16


def _lhs_point(seed: int, kind: int, j: int, block: int, dims: int) -> list[float]:
    """Point ``j`` of a Latin hypercube in [0, 1)^dims, drawn afresh for each
    run of ``block`` consecutive points.

    Each block covers every 1/block slice of every coordinate once, so the
    inputs of a run spread over the shape space evenly and the run's timing
    quantiles vary less from seed to seed than with independent draws.
    """
    rng = np.random.default_rng([seed, kind, j // block])
    strata = np.array([rng.permutation(block) for _ in range(dims)])
    jitter = rng.uniform(size=(dims, block))
    k = j % block
    return [float(v) for v in (strata[:, k] + jitter[:, k]) / block]


def _solve_workload(lib) -> Workload:
    rw = lib.Rewards(1.0 / 3.0, 1.0, 20.0)
    rho = lib.rho(rw)

    def make_input(seed: int, i: int):
        # convex hulls of 5-20 uniform points in [0, 30]^2; the point count
        # cycles with the op index, so every run has the same mix of sizes
        n = 5 + i % HULL_SIZES
        u = _lhs_point(seed, 0, i, HULL_SIZES, 2 * (4 + HULL_SIZES))[: 2 * n]
        return lib.build_polygon([(30.0 * u[2 * k], 30.0 * u[2 * k + 1]) for k in range(n)])

    # C* only, on hulls only: solve_pareto after C*, and ellipse polygons, each
    # made a small share of ops fail their checks (see known_failures in
    # context.json), and every op of a workload must pass them
    def op(region):
        return lib.cstar_enumeration(region, rw)

    def check(region, cs) -> str | None:
        if not rho <= cs.c_star <= 1.0:
            return f"C* {cs.c_star} outside [rho={rho}, 1]"
        return None

    def summary(cs: list[float]) -> tuple[float, float]:
        return statistics.fmean(cs), statistics.quantiles(cs, n=10)[0]

    return Workload(
        "solve-regions", make_input, op, check,
        lambda cs: cs.c_star, ("c_star_mean", "c_star_p10"), summary,
        0.12,
    )


NAMES = ("mc-ellipse-adv", "mc-box-stoch", "solve-regions")


def get(name: str, lib) -> Workload:
    """Build the named workload against the imported ``plpareto`` package."""
    if name == "mc-ellipse-adv":
        return _mc_workload(
            lib, name, 0.14, advice_kind="ellipse", segments=64, z=0.9,
            c_rule=0.9, n_samples=10, n_test=100, order="adversarial",
        )
    if name == "mc-box-stoch":
        return _mc_workload(
            lib, name, 0.11, advice_kind="box", z=0.9, c_rule=0.9,
            n_samples=10, n_test=100, order="stochastic", perms=range(4, 21),
        )
    if name == "solve-regions":
        return _solve_workload(lib)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
