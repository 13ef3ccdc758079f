import functools
import math
import signal
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plpareto import (
    build_polygon,
    consistent_pl,
    cstar_bisection,
    cstar_enumeration,
    envelope,
    feasible,
    ordered_sequence,
    performance_ratio,
    polygonize_ellipse,
    Rewards,
    rho,
    run_sequence,
)
from plpareto.errors import InfeasibleTarget, TargetOutOfRange
from conftest import oracle_full_grid_cstar, random_region, scalar_balance_point


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


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


def test_consistent_pl_at_cstar_where_the_band_gap_rounds_below_zero():
    """At C* the band closes: its gap is 0 in exact arithmetic and here
    rounds to -7.1e-15.  C* is feasible, so its floor is returned."""
    from plpareto import band_gap, bound_context

    region = build_polygon([(1.0, 24.0), (28.0, 0.0), (20.0, 16.0)])
    rw = Rewards(0.5, 1.0, 20.0)
    c_star = cstar_enumeration(region, rw).c_star
    assert -1e-12 < band_gap(bound_context(region, rw, c_star))[0] < 0.0
    assert consistent_pl(region, rw, c_star).validate(rw.m, region.x_hi) == []


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


def _ellipse(centre, semi_axes, turn, segments):
    # polygonized ellipse with the given semi-axes, rotated by turn * pi
    t = turn * math.pi
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    shape = rot @ np.diag(semi_axes) @ rot.T
    return polygonize_ellipse(centre, shape.tolist(), segments)


# near-circular ellipses whose two smallest candidates lie within 1e-10 of
# each other, C* being the lower one: merging near-duplicate candidates
# loses it, and leaves no feasible candidate
NEAR_CIRCLES = [
    ((13.179, 22.452), (5.935, 5.932), 0.4872, 18),
    ((12.67, 13.17), (1.23, 1.24), 0.501, 14),
]


def _enum_regions():
    # random hulls, boxes and 8-20-segment ellipse polygons, seeded
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
    regions += [_ellipse(*spec) for spec in NEAR_CIRCLES]
    return regions


@pytest.mark.parametrize("drop", ["feasible"])
def test_enum_bisects_between_candidates(rw, monkeypatch, drop):
    # C* is the smallest candidate on these regions; with every feasible
    # candidate taken out, none is feasible, and the bracket between rho and
    # the smallest is bisected, to float resolution like cstar_bisection at
    # epsilon 1e-13: both land up to about 2e-11 above the exact balancing
    # C*, where the band gap is still within FEAS_SLACK of 0.
    import plpareto.consistency as consistency

    real_pairs = consistency._pair_candidates
    for region in _enum_regions()[:3]:
        c_star = cstar_enumeration(region, rw).c_star
        assert c_star < 1.0
        monkeypatch.setattr(consistency, "_pair_candidates", lambda *a: [
            c for c in real_pairs(*a) if c > c_star + 1e-9])
        res = cstar_enumeration(region, rw)
        monkeypatch.setattr(consistency, "_pair_candidates", real_pairs)
        assert res.c_star < min(res.candidate_set)
        assert abs(res.c_star - cstar_bisection(region, rw, epsilon=1e-13).c_star) <= 1e-12
        assert abs(res.c_star - c_star) <= 1e-9
        assert 1 < res.n_checks <= 1 + 60
        assert feasible(region, rw, res.c_star)


coord = st.floats(0.0, 30.0)
point = st.tuples(coord, coord)


def _ellipses(max_segments):
    return st.tuples(
        st.tuples(st.floats(4.0, 24.0), st.floats(4.0, 24.0)),
        st.floats(0.5, 6.0), st.floats(0.5, 6.0), st.floats(0.0, 1.0),
        st.integers(8, max_segments),
    ).map(lambda e: _ellipse(e[0], (e[1], e[2]), e[3], e[4]))


near_circle = st.tuples(
    st.tuples(st.floats(4.0, 24.0), st.floats(4.0, 24.0)),
    st.floats(0.5, 6.0), st.floats(-1e-3, 1e-3), st.floats(0.0, 1.0), st.integers(8, 32),
).map(lambda e: _ellipse(e[0], (e[1], e[1] * (1.0 + e[2])), e[3], e[4]))
box = st.tuples(point, point).map(lambda b: build_polygon([
    (x, y) for x in sorted({b[0][0], b[1][0]}) for y in sorted({b[0][1], b[1][1]})]))


def _regions(ellipse):
    return st.one_of(
        st.lists(point, min_size=3, max_size=20).map(build_polygon),
        box, ellipse, near_circle,
        point.map(lambda p: build_polygon([p])),
        st.tuples(point, point).map(lambda s: build_polygon(list(s))),
    )


regions = _regions(_ellipses(32))


@given(regions)
@settings(max_examples=100, deadline=None)
def test_enum_matches_bisection_property(region):
    rw = Rewards(1.0 / 3.0, 1.0, 20.0)
    res = cstar_enumeration(region, rw)
    assert abs(res.c_star - cstar_bisection(region, rw, epsilon=1e-12).c_star) <= 1e-9


def _scalar_pair_candidates(region, rw, xs):
    """Oracle: the Python pair loop that consistency._pair_candidates ran
    before it balanced all pairs in numpy, kept verbatim but for the pairs it
    walks: those of _pair_candidates, (x, x) for each abscissa not tagged
    both under and over, then each (under, over) pair in row-major order."""
    from plpareto.consistency import _OVER, _UNDER
    from plpareto.errors import NoSolution
    from plpareto.ratios import cp_under_raw

    pairs = [(x, x) for x, tag in xs.items() if tag != _UNDER | _OVER]
    pairs += [(x1, x2) for x1, tag1 in xs.items() if tag1 & _UNDER
              for x2, tag2 in xs.items() if tag2 & _OVER]
    cands: list[float] = []
    for x1, x2 in pairs:
        y1, y2 = envelope(region, x1, "upper"), envelope(region, x2, "lower")
        under = (x1, y1)
        if x2 <= x1:
            if y1 < y2:
                continue
            shift = 0.0
        else:
            if y1 - y2 < x2 - x1:
                continue
            shift = x2 - x1
        try:
            p_b = scalar_balance_point(under, (x2, y2), shift, rw)
        except NoSolution:
            continue
        cands.append(cp_under_raw(p_b, under, rw))
    return cands


REWARD_SETTINGS = [Rewards(1.0 / 3.0, 1.0, 20.0), Rewards(0.2, 1.5, 30.0)]
pair_regions = _regions(_ellipses(64))


@given(pair_regions, st.sampled_from(REWARD_SETTINGS))
@settings(max_examples=150, deadline=None)
def test_pair_candidates_match_scalar_oracle(region, rw):
    from plpareto.consistency import _enum_xs, _pair_candidates

    xs = _enum_xs(region, rw)
    assert _pair_candidates(region, rw, xs) == _scalar_pair_candidates(region, rw, xs)


@given(st.lists(st.tuples(point, point, st.one_of(st.just(0.0), st.floats(0.0, 15.0))),
                min_size=1, max_size=40),
       st.sampled_from(REWARD_SETTINGS))
@settings(max_examples=150, deadline=None)
def test_balance_ratios_match_balance_point(triples, rw):
    # any (under, over, shift), admissible or not: balance_levels gives the
    # scalar oracle's level and under ratio bit for bit, and is unsolved
    # exactly where the oracle raises NoSolution; balance_point, its one-pair
    # form, gives the same level or raises NoSolution there too
    from plpareto.errors import NoSolution
    from plpareto.ratios import balance_levels, balance_point, cp_under_raw

    xu, yu, xo, yo, shift = (np.array(v) for v in zip(*[(*u, *o, s) for u, o, s in triples]))
    levels, ratios, solved = balance_levels(xu, yu, xo, yo, shift, rw)
    for (u, o, s), p, c, ok in zip(triples, levels.tolist(), ratios.tolist(), solved.tolist()):
        try:
            want = scalar_balance_point(u, o, s, rw)
        except NoSolution:
            assert not ok
            with pytest.raises(NoSolution):
                balance_point(u, o, s, rw)
        else:
            assert ok
            assert _bits(p) == _bits(want)
            assert _bits(c) == _bits(cp_under_raw(want, u, rw))
            assert _bits(balance_point(u, o, s, rw)) == _bits(want)


def test_pair_candidates_in_blocks_match_scalar_oracle(rw, monkeypatch):
    # blocks of one under-row, and of a few rows that do not divide the count
    import plpareto.consistency as consistency

    for block in (1, 37):
        monkeypatch.setattr(consistency, "_PAIR_BLOCK", block)
        for region in _enum_regions()[::5]:
            xs = consistency._enum_xs(region, rw)
            assert consistency._pair_candidates(region, rw, xs) == \
                _scalar_pair_candidates(region, rw, xs)


def test_enum_checks_the_smallest_candidate_once(rw):
    # every admissible pair's balancing value bounds C* from above, so C* is
    # the smallest candidate, and one check finds it
    from plpareto.consistency import _enum_xs, _pair_candidates

    for region in _enum_regions():
        res = cstar_enumeration(region, rw)
        assert res.c_star == min(res.candidate_set)
        assert res.n_checks == 1
        assert feasible(region, rw, res.c_star)
        cands = [1.0] + _pair_candidates(region, rw, _enum_xs(region, rw))
        assert list(res.candidate_set) == sorted(
            {min(c, 1.0) for c in cands if 0.0 <= c <= 1.0 + 1e-9}, reverse=True)


@pytest.mark.parametrize("x0", [2.5585587757775073e-287, 1e-300, 1e-17])
def test_enum_on_a_nearly_empty_over_point(rw, x0):
    # the lower envelope starts at (x0, 0): that over point's kink at
    # m - x0 rounds onto m, and balancing it against the upper envelope at
    # x = 0.05 gave a candidate 8.3e-6 below C*, taken as C* in one check
    from plpareto.ratios import balance_point, cp_under_raw

    region = build_polygon([(0.0, 21.0), (1.0, 1.0), (x0, 0.0)])
    res = cstar_enumeration(region, rw)
    assert res.c_star == min(res.candidate_set)
    assert res.n_checks == 1
    assert abs(res.c_star - cstar_bisection(region, rw, epsilon=1e-12).c_star) <= 1e-9
    under = (0.05, envelope(region, 0.05, "upper"))
    p = balance_point(under, (x0, 0.0), 0.0, rw)
    assert p == rw.m and cp_under_raw(p, under, rw) == 1.0


def test_enum_on_near_circles_is_exact(rw):
    # bisection ends up to FEAS_SLACK's worth of band gap above the exact
    # balancing value; the enumerated C* is that value
    for spec in NEAR_CIRCLES:
        region = _ellipse(*spec)
        c_star = cstar_enumeration(region, rw).c_star
        assert 0.0 <= cstar_bisection(region, rw, epsilon=1e-13).c_star - c_star <= 5e-11


def test_policy_at_enumerated_cstar_replays_at_cstar(rw):
    # ordered instances on both envelopes, at every breakpoint abscissa of
    # the policy and the envelopes and on an even grid: the Pareto policy at
    # C* reaches C* on all of them up to rounding
    from plpareto import solve_pareto
    from plpareto.engine import replay_ratios

    for spec in NEAR_CIRCLES:
        region = _ellipse(*spec)
        c_star = cstar_enumeration(region, rw).c_star
        pl = solve_pareto(region, rw, c_star).p_star
        kinks = {x for f in (pl, region.lower, region.upper) for x, _ in f.breakpoints}
        xs = [x for x in kinks if region.x_lo <= x <= region.x_hi]
        xs += np.linspace(region.x_lo, region.x_hi, 2001).tolist()
        sizes = np.array([(x, envelope(region, x, side)) for x in xs
                          for side in ("lower", "upper")]).T
        is_low = np.zeros(sizes.shape, dtype=bool)
        is_low[0] = True
        assert replay_ratios(pl, rw, sizes, is_low).min() >= c_star - 1e-12


def test_enum_on_the_largest_ellipse_is_fast_and_small(rw):
    import time
    import tracemalloc

    from plpareto.region import MAX_SEGMENTS

    def region():
        return polygonize_ellipse((10.0, 10.0), [[2.0, 0.0], [0.0, 2.0]], MAX_SEGMENTS)

    start = time.perf_counter()
    res = cstar_enumeration(region(), rw)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    assert res.n_checks == 1
    # a fresh region object, so its bound geometry is built under the trace too
    fresh = region()
    tracemalloc.start()
    try:
        cstar_enumeration(fresh, rw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


# the reward settings above, one with a small capacity that most regions
# overshoot, and one with nearly equal rewards
FULL_GRID_REWARDS = REWARD_SETTINGS + [Rewards(0.5, 1.0, 10.0), Rewards(0.9, 1.0, 25.0)]


@functools.cache
def _full_grid_corpus():
    # seeded regions of every kind: 64-gon ellipse advice, random hulls,
    # clouds of integer points, 8-100-segment ellipses (some clipped by the
    # quadrant), boxes, segments, points and the near-circles
    from plpareto import DemandModel
    from plpareto.advice import box_advice, ellipse_advice, point_advice
    from plpareto.harness import _sample_points

    rng = np.random.default_rng(7)
    regions = []
    for k in range(200):
        samples = _sample_points(DemandModel(), 10, rng).tolist()
        regions.append(ellipse_advice(samples, 0.9))
        if k % 5 == 0:
            regions += [box_advice(samples, 0.9), point_advice(samples)]
    rng = np.random.default_rng(61)
    regions += [random_region(rng) for _ in range(100)]
    regions += [build_polygon([tuple(p) for p in rng.integers(0, 31, size=(k, 2)).tolist()])
                for k in rng.integers(1, 12, size=80)]
    for _ in range(40):
        regions.append(_ellipse(tuple(rng.uniform(-3.0, 28.0, size=2)), tuple(rng.uniform(0.5, 8.0, size=2)),
                                rng.uniform(0.0, 1.0), int(rng.integers(8, 101))))
    for _ in range(20):
        (x0, x1), (y0, y1) = np.sort(rng.uniform(0.0, 30.0, size=(2, 2)))
        regions.append(build_polygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)]))
        regions.append(build_polygon([tuple(p) for p in rng.uniform(0.0, 30.0, size=(2, 2)).tolist()]))
        regions.append(build_polygon([tuple(rng.uniform(0.0, 30.0, size=2).tolist())]))
    return regions + [_ellipse(*spec) for spec in NEAR_CIRCLES]


def _check_full_grid(region, rw):
    # balancing only the vertex pairs gives the C* of every pair on the full
    # grid, bit for bit, and both find it in one check
    c_star, n_checks = oracle_full_grid_cstar(region, rw)
    res = cstar_enumeration(region, rw)
    assert (_bits(res.c_star), res.n_checks) == (_bits(c_star), n_checks) == (_bits(c_star), 1)


def test_enum_matches_the_full_grid_oracle():
    for rw in FULL_GRID_REWARDS:
        for region in _full_grid_corpus():
            _check_full_grid(region, rw)


@given(regions, st.sampled_from(FULL_GRID_REWARDS))
@settings(max_examples=150, deadline=None)
def test_enum_matches_the_full_grid_oracle_property(region, rw):
    _check_full_grid(region, rw)
