"""The error contract of the public API: every callable that ``plpareto``
exports, given NaN, +inf, -inf or -1 in one numeric argument of a valid call,
raises a ``PlparetoError`` or gives one of the answers listed in ``VALID``."""

import math

import numpy as np
import pytest

import plpareto
from plpareto import (
    Arrival,
    DemandModel,
    DemandPoint,
    EngineState,
    ExperimentConfig,
    PLFunction,
    PlparetoError,
    Rewards,
    balance_point,
    band_gap,
    bound_context,
    box_advice,
    build_polygon,
    consistent_pl,
    constant_pl,
    contains,
    cp,
    cp_over_raw,
    cp_under_raw,
    cstar_bisection,
    cstar_enumeration,
    ellipse_advice,
    envelope,
    evaluate,
    feasible,
    g_corridor,
    hindsight_denominator,
    key_points,
    l_bound,
    l_raw,
    l_tilde,
    no_advice_level,
    offer,
    ordered_sequence,
    performance_ratio,
    point_advice,
    policy_floor,
    polygonize_ellipse,
    rho,
    run_experiment,
    run_sequence,
    sample_demand,
    solve_pareto,
    tradeoff_curve,
    u_bound,
    u_ceiling,
    u_raw,
    unit_chunks,
    x_vertices,
)

RW = Rewards(1.0 / 3.0, 1.0, 20.0)
REGION = build_polygon([(4.0, 4.0), (16.0, 16.0), (11.0, 16.0), (4.0, 9.0)])
PL = PLFunction(((0.0, 15.0), (10.0, 5.0), (30.0, 5.0)))
SAMPLES = (12.0, 11.0, 17.0, 13.0, 14.0, 18.0, 10.5, 15.0)
BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1.0}


def _pairs(v):
    return [tuple(v[i : i + 2]) for i in range(0, len(v), 2)]


def _ctx(C):
    return bound_context(REGION, RW, C)


# the running totals of an EngineState after 4 low units (3 accepted, at
# 1/3 each) and 5 high units (all accepted, at 1 each); 12 units remain
TOTALS = "low_seen low_accepted high_seen high_accepted reward"
STATE = (4.0, 3.0, 5.0, 5.0, 6.0)


def _config(z, K, n_test, seed):
    return ExperimentConfig(advice_kind="box", z=z, K=K, n_test=n_test, seed=seed)


# name -> (call on the numbers, the names of the numbers, the numbers of a
# valid call).  A name is an argument, or a field of the argument object
# that the call builds: Rewards, DemandModel, ExperimentConfig, Arrival and
# DemandPoint check their own fields, offer and performance_ratio those of
# EngineState.
CALLS = {
    "Arrival": (lambda size: Arrival("low", size), "size", (3.0,)),
    "DemandModel": (lambda *f: DemandModel("uniform-mixture", *f),
                    "weight main_low main_high mean sd cont_low cont_high",
                    (0.9, 10.0, 20.0, 15.0, 3.0, 0.0, 30.0)),
    "DemandPoint": (DemandPoint, "x y", (12.0, 9.0)),
    "ExperimentConfig": (lambda z, n, K, c, t, seed, perms, seg: ExperimentConfig(
        z=z, n_samples=n, K=K, c_rule=c, n_test=t, seed=seed, n_perms=perms, segments=seg),
        "z n_samples K c_rule n_test seed n_perms segments", (0.9, 10, 5, 1.0, 20, 0, 10, 64)),
    "PLFunction": (lambda *v: PLFunction(tuple(_pairs(v))), "x0 p0 x1 p1", (0.0, 15.0, 10.0, 5.0)),
    "PLFunction.__call__": (PL, "x", (4.0,)),
    "PLFunction.validate": (PL.validate, "m x_bar", (20.0, 16.0)),
    "Rewards": (Rewards, "r_low r_high m", (1.0 / 3.0, 1.0, 20.0)),
    "balance_point": (lambda xu, yu, xo, yo, shift: balance_point((xu, yu), (xo, yo), shift, RW),
                      "x_under y_under x_over y_over shift", (16.0, 16.0, 4.0, 4.0, 0.0)),
    "band_gap": (lambda C: band_gap(_ctx(C)), "C", (0.8,)),
    "bound_context": (_ctx, "C", (0.8,)),
    "box_advice": (lambda *v: box_advice(_pairs(v[:-1]), v[-1]),
                   "x0 y0 x1 y1 x2 y2 x3 y3 coverage", SAMPLES + (0.9,)),
    "build_polygon": (lambda *v: build_polygon(_pairs(v)), "x0 y0 x1 y1 x2 y2 x3 y3", SAMPLES),
    "consistent_pl": (lambda C: consistent_pl(REGION, RW, C), "C", (0.8,)),
    "constant_pl": (constant_pl, "level x_end", (5.0, 30.0)),
    "contains": (lambda x, y, tol: contains(REGION, x, y, tol), "x y tol", (8.0, 8.0, 1e-9)),
    "cp": (lambda p, x, y: cp(p, (x, y), RW), "p x y", (5.0, 12.0, 9.0)),
    "cp_over_raw": (lambda p, x, y: cp_over_raw(p, (x, y), RW), "p x y", (5.0, 12.0, 9.0)),
    "cp_under_raw": (lambda p, x, y: cp_under_raw(p, (x, y), RW), "p x y", (5.0, 12.0, 9.0)),
    "cstar_bisection": (lambda eps: cstar_bisection(REGION, RW, eps), "epsilon", (1e-6,)),
    "cstar_enumeration": (lambda *r: cstar_enumeration(REGION, Rewards(*r)),
                          "r_low r_high m", (1.0 / 3.0, 1.0, 20.0)),
    "ellipse_advice": (lambda *v: ellipse_advice(_pairs(v[:-2]), v[-2], v[-1]),
                       "x0 y0 x1 y1 x2 y2 x3 y3 coverage segments", SAMPLES + (0.9, 16)),
    "envelope": (lambda x: envelope(REGION, x, "lower"), "x", (8.0,)),
    "evaluate": (lambda x0, y0, x1, y1, perms: evaluate(
        PL, [DemandPoint(x0, y0), DemandPoint(x1, y1)], "stochastic", RW,
        np.random.default_rng(0), perms), "x0 y0 x1 y1 n_perms", (12.0, 9.0, 15.0, 6.0, 4)),
    "feasible": (lambda C: feasible(REGION, RW, C), "C", (0.8,)),
    "g_corridor lower": (lambda R, x: g_corridor(RW, R, x, "lower"), "R x", (0.5, 8.0)),
    "g_corridor upper": (lambda R, x: g_corridor(RW, R, x, "upper"), "R x", (0.5, 8.0)),
    "hindsight_denominator": (lambda x, y: hindsight_denominator((x, y), RW), "x y", (12.0, 9.0)),
    "key_points": (lambda m: key_points(REGION, m), "m", (20.0,)),
    "l_bound": (lambda C, x: l_bound(_ctx(C), x), "C x", (0.8, 8.0)),
    "l_raw": (lambda C, t: l_raw(REGION, RW, C, t), "C t", (0.8, 8.0)),
    "l_tilde": (lambda C, x: l_tilde(_ctx(C), x), "C x", (0.8, 8.0)),
    "no_advice_level": (lambda *r: no_advice_level(Rewards(*r)), "r_low r_high m", (1.0 / 3.0, 1.0, 20.0)),
    "offer": (lambda remaining, size: offer(EngineState(remaining), Arrival("low", size), PL, RW),
              "remaining size", (20.0, 3.0)),
    "offer totals": (lambda *t: offer(EngineState(12.0, *t), Arrival("low", 3.0), PL, RW), TOTALS, STATE),
    "ordered_sequence": (ordered_sequence, "x y", (12.0, 9.0)),
    "performance_ratio": (lambda remaining: performance_ratio(EngineState(remaining), RW),
                          "remaining", (20.0,)),
    "performance_ratio totals": (lambda *t: performance_ratio(EngineState(12.0, *t), RW), TOTALS, STATE),
    "point_advice": (lambda *v: point_advice(_pairs(v)), "x0 y0 x1 y1 x2 y2 x3 y3", SAMPLES),
    "policy_floor": (lambda C, x: policy_floor(_ctx(C), x), "C x", (0.8, 8.0)),
    "polygonize_ellipse": (lambda cx, cy, a, b1, b2, c, seg: polygonize_ellipse(
        (cx, cy), [[a, b1], [b2, c]], seg), "cx cy a b1 b2 c segments", (2.0, 5.0, 1.0, 0.0, 0.0, 1.0, 16)),
    "rho": (lambda *r: rho(Rewards(*r)), "r_low r_high m", (1.0 / 3.0, 1.0, 20.0)),
    "run_experiment": (lambda z, K, t, seed: run_experiment(_config(z, K, t, seed), RW),
                       "z K n_test seed", (0.9, 2, 5, 0)),
    "run_sequence": (lambda lo, hi: run_sequence([Arrival("low", lo), Arrival("high", hi)], PL, RW),
                     "low_size high_size", (12.0, 9.0)),
    "sample_demand": (lambda *f: sample_demand(DemandModel("normal-mixture", *f), np.random.default_rng(0)),
                      "weight main_low main_high mean sd cont_low cont_high",
                      (0.9, 10.0, 20.0, 15.0, 3.0, 0.0, 30.0)),
    "solve_pareto": (lambda C: solve_pareto(REGION, RW, C), "C", (0.8,)),
    "tradeoff_curve": (lambda c0, c1: tradeoff_curve(REGION, RW, [c0, c1]), "C0 C1", (0.7, 0.8)),
    "u_bound": (lambda C, x: u_bound(_ctx(C), x), "C x", (0.8, 8.0)),
    "u_ceiling": (lambda C: u_ceiling(_ctx(C)), "C", (0.8,)),
    "u_raw": (lambda C, t: u_raw(REGION, RW, C, t), "C t", (0.8, 8.0)),
    "unit_chunks": (unit_chunks, "x y", (12.0, 9.0)),
    "x_vertices": (lambda m: x_vertices(REGION, m), "m", (20.0,)),
}

# exports that only hold what they are given: the library builds them as
# results, and the calls above feed their inputs
RECORDS = {"BoundContext", "CStarResult", "EngineState", "EvalReport", "KeyPoints",
           "MLRegion", "ParetoSolution"}

# (call, number, bad value) -> (check on the answer, why it is an answer)
VALID = {}


def _valid(name, args, labels, check, why):
    VALID.update({(name, arg, label): (check, why) for arg in args.split() for label in labels.split()})


_valid("g_corridor upper", "x", "inf", lambda v: v == -0.5 * RW.m + RW.m,
       "the upper corridor is frozen beyond x = m")
_valid("g_corridor lower", "x", "inf", lambda v: v == 5.0, "the lower corridor is constant in x")
_valid("PLFunction.__call__", "x", "inf", lambda v: v == 5.0,
       "a PLFunction is constant beyond its last breakpoint")
_valid("PLFunction.__call__", "x", "-inf -1", lambda v: v == 15.0,
       "a PLFunction is constant before its first breakpoint")
_valid("PLFunction", "x0", "-1", lambda pl: pl(-1.0) == 15.0,
       "a PLFunction may start anywhere; a policy is read at x >= 0 only")
_valid("PLFunction", "p0 p1", "-1", lambda pl: pl.validate(20.0),
       "a negative level is a policy that validate reports")
_valid("constant_pl", "level", "-1", lambda pl: pl.validate(20.0),
       "a negative level is a policy that validate reports")
_valid("contains", "x y", "-1", lambda v: v is False, "a point off the quadrant lies outside the region")
_valid("cp_over_raw", "p", "-1", math.isfinite, "the raw formula, for any finite p")
_valid("cp_under_raw", "p", "-1", math.isfinite, "the raw formula, for any finite p")
_valid("performance_ratio", "remaining", "nan inf -inf -1", lambda v: v == 1.0,
       "an empty state has ratio 1, whatever its capacity")
_valid("polygonize_ellipse", "cx", "-1", lambda reg: reg.vertices == ((0.0, 5.0),),
       "the unit circle about (-1, 5) touches the quadrant at one point")
_valid("polygonize_ellipse", "cy", "-1", lambda reg: reg.vertices == ((2.0, 0.0),),
       "the unit circle about (2, -1) touches the quadrant at one point")
_valid("DemandModel", "main_low mean cont_low", "-1", lambda model: model.main_high == 20.0,
       "the model's draws are truncated at zero")
_valid("sample_demand", "main_low mean cont_low", "-1", lambda pt: min(pt.x, pt.y) >= 0.0,
       "the model's draws are truncated at zero")


def test_every_export_has_a_row():
    exported = {name for name in dir(plpareto) if not name.startswith("_")
                and callable(obj := getattr(plpareto, name))
                and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    rows = {name.split(".")[0].split()[0] for name in CALLS}
    assert exported == rows | RECORDS
    assert not rows & RECORDS


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_numbers_raise_or_give_a_listed_answer(name):
    call, names, base = CALLS[name]
    names = names.split()
    assert len(names) == len(base)
    call(*base)
    for i, arg in enumerate(names):
        for label, bad in BAD.items():
            args = base[:i] + (bad,) + base[i + 1 :]
            try:
                got = call(*args)
            except PlparetoError:
                assert (name, arg, label) not in VALID, (arg, label)
                continue
            assert (name, arg, label) in VALID, (arg, label, got)
            check, _ = VALID[(name, arg, label)]
            assert check(got), (arg, label, got)
