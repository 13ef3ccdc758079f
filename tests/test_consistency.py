import math
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


def _cstar_enumeration_scan(region, rw):
    """Reference: cstar_enumeration with the linear scan that tested the
    descending candidates one at a time, from the top."""
    from plpareto.bounds import FEAS_SLACK, band_gap, bound_context
    from plpareto.consistency import CStarResult, _enum_xs, _merge_candidates, _pair_candidates
    from plpareto.errors import EmptyCandidateSet

    xs = _enum_xs(region, rw)
    cands = _merge_candidates([1.0] + _pair_candidates(region, rw, xs, xs))
    if not cands:
        raise EmptyCandidateSet("no balancing candidates found")
    n_checks = 0

    def best_feasible(cs):
        nonlocal n_checks
        for c in cs:
            n_checks += 1
            gap, witness = band_gap(bound_context(region, rw, c))
            if gap >= -FEAS_SLACK:
                return c, gap, witness
        return None

    for _ in range(6):
        hit = best_feasible(cands)
        if hit is None:
            raise EmptyCandidateSet("no balancing candidate was feasible")
        c0, gap0, witness = hit
        above = [c for c in cands if c > c0 + 1e-12]
        if c0 >= 1.0 - 1e-12 or not above or gap0 <= 1e-9:
            return CStarResult(c0, "enum", witness, tuple(cands), n_checks)
        lo, hi = c0, min(above)
        w = witness
        for _ in range(50):
            if hi - lo <= 1e-11:
                break
            mid = 0.5 * (lo + hi)
            n_checks += 1
            gap, w = band_gap(bound_context(region, rw, mid))
            if gap >= -FEAS_SLACK:
                lo = mid
            else:
                hi = mid
        new_xs = [min(max(w, region.x_lo), region.x_hi)]
        fresh = _pair_candidates(region, rw, new_xs, xs + new_xs)
        fresh += _pair_candidates(region, rw, xs, new_xs)
        merged = _merge_candidates(cands + fresh)
        if len(merged) == len(cands):
            return CStarResult(c0, "enum", witness, tuple(cands), n_checks)
        cands = merged
    hit = best_feasible(cands)
    if hit is None:
        raise EmptyCandidateSet("no balancing candidate was feasible")
    c0, _, witness = hit
    return CStarResult(c0, "enum", witness, tuple(cands), n_checks)


def _enum_regions():
    # random hulls, boxes and 8-20-segment ellipse polygons, seeded
    from plpareto import build_polygon, polygonize_ellipse

    rng = np.random.default_rng(57)
    regions = [random_region(rng) for _ in range(12)]
    for _ in range(8):
        (x0, x1), (y0, y1) = np.sort(rng.uniform(0.0, 30.0, size=(2, 2)))
        regions.append(build_polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]))
    for k in range(16):
        a, c = rng.uniform(0.5, 8.0, size=2)
        b = rng.uniform(-0.9, 0.9) * math.sqrt(a * c)
        centre = tuple(rng.uniform(4.0, 24.0, size=2))
        regions.append(polygonize_ellipse(centre, [[a, b], [b, c]], 8 + k % 13))
    # near-circular 18-gon on which no candidate is feasible (EmptyCandidateSet)
    t = 0.4872 * math.pi
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    shape = rot @ np.diag([5.935, 5.932]) @ rot.T
    regions.append(polygonize_ellipse((13.179, 22.452), shape.tolist(), 18))
    return regions


def test_enum_binary_search_matches_linear_scan(rw, monkeypatch):
    import plpareto.consistency as consistency
    from plpareto.errors import EmptyCandidateSet

    pair_calls = []
    real_pairs = consistency._pair_candidates
    monkeypatch.setattr(consistency, "_pair_candidates",
                        lambda *a: pair_calls.append(1) or real_pairs(*a))
    n_plain = 0
    for region in _enum_regions():
        try:
            ref = _cstar_enumeration_scan(region, rw)
        except EmptyCandidateSet as exc:
            with pytest.raises(EmptyCandidateSet, match=str(exc)):
                cstar_enumeration(region, rw)
            continue
        pair_calls.clear()
        res = cstar_enumeration(region, rw)
        assert (res.c_star, res.witness_x, res.candidate_set) == (
            ref.c_star, ref.witness_x, ref.candidate_set)
        if len(pair_calls) == 1:  # no refinement round ran
            n_plain += 1
            assert res.n_checks <= math.ceil(math.log2(len(res.candidate_set))) + 1
    assert n_plain >= 30


@pytest.mark.parametrize("rounds", ["one", "cap"])
def test_enum_refinement_matches_linear_scan(rw, monkeypatch, rounds):
    # C* is taken out of the first candidate set and a smaller candidate put
    # in, so the refinement rounds run: with "one" the first round balances
    # C* back in; with "cap" every round also offers a new candidate halfway
    # to C*, so the best one is never tight and the six-round cap ends it
    import plpareto.consistency as consistency
    from plpareto import rho

    real_pairs = consistency._pair_candidates
    for region in _enum_regions()[:3]:
        c_star = cstar_enumeration(region, rw).c_star
        offered = []

        def pairs(region_, rw_, xs1, xs2):
            out = real_pairs(region_, rw_, xs1, xs2)
            if xs1 is xs2:
                offered[:] = [0.5 * (rho(rw) + c_star)]
            elif rounds == "one":
                return out
            elif len(xs1) == 1:
                offered.append(0.5 * (offered[-1] + c_star))
            return [c for c in out if abs(c - c_star) > 1e-9] + offered[-1:]

        monkeypatch.setattr(consistency, "_pair_candidates", pairs)
        ref = _cstar_enumeration_scan(region, rw)
        res = cstar_enumeration(region, rw)
        monkeypatch.setattr(consistency, "_pair_candidates", real_pairs)
        assert (res.c_star, res.witness_x, res.candidate_set) == (
            ref.c_star, ref.witness_x, ref.candidate_set)
        if rounds == "one":
            assert res.c_star == c_star
        else:
            assert res.c_star == offered[-1] < c_star and len(offered) == 7
