import signal

import numpy as np
import pytest

from plpareto import (
    consistent_pl,
    cstar_bisection,
    cstar_enumeration,
    envelope,
    feasible,
    ordered_sequence,
    performance_ratio,
    rho,
    run_sequence,
)
from plpareto.errors import InfeasibleTarget, TargetOutOfRange
from conftest import random_region


def test_rho_always_feasible(rw, sum_region, diff_region):
    r = rho(rw)
    assert feasible(sum_region, rw, r)
    assert feasible(diff_region, rw, r)


def test_sum_region_cstar(rw, sum_region):
    res_b = cstar_bisection(sum_region, rw, epsilon=1e-9)
    res_e = cstar_enumeration(sum_region, rw)
    assert res_e.c_star == pytest.approx(42 / 47, abs=1e-9)
    assert abs(res_b.c_star - res_e.c_star) <= 1e-8
    assert feasible(sum_region, rw, res_e.c_star - 1e-9)
    assert not feasible(sum_region, rw, res_e.c_star + 1e-6)


def test_diff_region_cstar(rw, diff_region):
    res_b = cstar_bisection(diff_region, rw, epsilon=1e-9)
    res_e = cstar_enumeration(diff_region, rw)
    assert res_e.c_star == pytest.approx(10 / 11, abs=1e-9)
    assert abs(res_b.c_star - res_e.c_star) <= 1e-8
    assert not feasible(diff_region, rw, 0.999)


def test_point_advice_cstar_is_one(rw):
    from plpareto import build_polygon

    region = build_polygon([(12.0, 6.0)])
    assert cstar_enumeration(region, rw).c_star == pytest.approx(1.0, abs=1e-9)
    assert feasible(region, rw, 1.0)


def test_bisection_check_budget(rw, sum_region):
    import math

    for eps in (1e-2, 1e-4, 1e-6):
        res = cstar_bisection(sum_region, rw, epsilon=eps)
        assert res.n_checks <= math.ceil(math.log2((1 - rho(rw)) / eps)) + 1


def test_enum_matches_bisection_random(rw):
    rng = np.random.default_rng(23)
    for _ in range(10):
        region = random_region(rng)
        res_e = cstar_enumeration(region, rw)
        res_b = cstar_bisection(region, rw, epsilon=1e-7)
        assert abs(res_e.c_star - res_b.c_star) <= 2e-7


def test_consistent_pl_diff_region(rw, diff_region):
    pl = consistent_pl(diff_region, rw, 0.8)
    for x in np.linspace(0.0, 16.0, 17):
        assert pl(float(x)) == pytest.approx(10.8, abs=1e-6)
    assert pl.validate(rw.m) == []


def test_consistent_pl_infeasible_raises(rw, diff_region):
    with pytest.raises(InfeasibleTarget):
        consistent_pl(diff_region, rw, 0.95)


def test_consistent_pl_meets_target_in_engine(rw, sum_region, diff_region):
    for region in (sum_region, diff_region):
        c_star = cstar_enumeration(region, rw).c_star
        for C in (0.7 * c_star, c_star):
            pl = consistent_pl(region, rw, C)
            assert pl.validate(rw.m) == []
            for x in np.linspace(region.x_lo, region.x_hi, 41):
                for side in ("lower", "upper"):
                    y = envelope(region, float(x), side)
                    state = run_sequence(ordered_sequence(float(x), y), pl, rw)
                    assert performance_ratio(state, rw) >= C - 1e-6


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
def test_bisection_rejects_bad_epsilon(rw, diff_region, eps):
    with pytest.raises(TargetOutOfRange):
        cstar_bisection(diff_region, rw, epsilon=eps)


@pytest.mark.parametrize("eps", [1e-300, 5e-324])
def test_bisection_ends_below_float_resolution(rw, diff_region, eps):
    # the bracket stops shrinking long before its width reaches eps; a loop
    # that waits for it is cut by the alarm after 10 s
    def expired(signum, frame):
        raise TimeoutError("cstar_bisection ran past its wall-time bound")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        res = cstar_bisection(diff_region, rw, epsilon=eps)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert res.n_checks <= 60
    assert res.c_star == pytest.approx(10 / 11, abs=1e-9)


def test_bisection_builds_one_context_per_check(rw, sum_region, diff_region, monkeypatch):
    # the witness comes from the last feasible check, not from a rebuilt
    # context; C = 1.0 is built once
    import plpareto.consistency as consistency
    from plpareto import build_polygon

    calls = []
    real = consistency.bound_context
    monkeypatch.setattr(consistency, "bound_context", lambda *a: calls.append(a) or real(*a))
    for region in (sum_region, diff_region, build_polygon([(10.0, 10.0)])):
        calls.clear()
        res = cstar_bisection(region, rw)
        assert len(calls) == res.n_checks
    assert res.c_star == 1.0 and res.n_checks == 1
