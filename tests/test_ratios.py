import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plpareto import (
    DemandPoint,
    Rewards,
    balance_point,
    cp,
    cp_over_raw,
    cp_under_raw,
    hindsight_denominator,
)
from plpareto.errors import InvalidInput, NoSolution

RW = Rewards(1.0 / 3.0, 1.0, 20.0)

demand = st.floats(0.0, 40.0, allow_nan=False)
level = st.floats(0.0, 20.0, allow_nan=False)


def test_rewards_validation():
    with pytest.raises(ValueError):
        Rewards(1.0, 0.5, 20.0)
    with pytest.raises(ValueError):
        Rewards(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        DemandPoint(-1.0, 0.0)


def test_hindsight_denominator_values():
    assert hindsight_denominator((20.0, 20.0), RW) == pytest.approx(20.0)
    assert hindsight_denominator((16.0, 9.0), RW) == pytest.approx(9 + 11 / 3)
    assert hindsight_denominator((0.0, 0.0), RW) == 0.0


def test_full_protection_baseline():
    # p = 8 on the all-capacity instance: protect 8 for high, serve 12 low
    assert cp(8.0, (20.0, 20.0), RW) == pytest.approx(0.6, abs=1e-12)


def test_empty_instance_ratio_is_one():
    assert cp_over_raw(5.0, (0.0, 0.0), RW) == 1.0
    assert cp_under_raw(5.0, (0.0, 0.0), RW) == 1.0


def test_branch_dispatch_and_mismatch():
    pt = (10.0, 10.0)
    assert cp(10.0, pt, RW) == cp_over_raw(10.0, pt, RW)  # boundary goes over
    assert cp(9.0, pt, RW) == cp_under_raw(9.0, pt, RW)
    with pytest.raises(ValueError):
        cp(25.0, pt, RW)


@pytest.mark.parametrize("p", [-5e-13, 20.0 + 5e-13, -1e-11, 20.0 + 1e-11])
def test_cp_takes_a_level_within_branch_tol_of_the_range(p):
    # LEVEL_TIE = 1e-12 absorbs a level a few ulps of 0 or m off, no more
    if -1e-12 <= p <= 20.0 + 1e-12:
        assert 0.0 < cp(p, (15.0, 10.0), RW) <= 1.0
    else:
        with pytest.raises(InvalidInput):
            cp(p, (15.0, 10.0), RW)


def test_cp_takes_the_over_branch_within_branch_tol_below_min_m_y():
    # min(m, y) = 10; at 10 - 5e-13 the two formulas differ by about 5e-14
    pt, p = (15.0, 10.0), 10.0 - 5e-13
    assert cp_over_raw(p, pt, RW) != cp_under_raw(p, pt, RW)
    assert cp(p, pt, RW) == cp_over_raw(p, pt, RW)
    assert cp(10.0 - 1e-11, pt, RW) == cp_under_raw(10.0 - 1e-11, pt, RW)


@given(demand, demand, level, level)
@settings(max_examples=500, deadline=None)
def test_over_nonincreasing_under_nondecreasing_in_p(x, y, p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    pt = (x, y)
    assert cp_over_raw(lo, pt, RW) >= cp_over_raw(hi, pt, RW) - 1e-12
    assert cp_under_raw(lo, pt, RW) <= cp_under_raw(hi, pt, RW) + 1e-12


@given(demand, demand, level)
@settings(max_examples=500, deadline=None)
def test_ratios_bounded(x, y, p):
    pt = (x, y)
    assert 0.0 <= cp(p, pt, RW) <= 1.0 + 1e-12


def test_balance_diff_region_binding_pair():
    # under at (16,16) against over at (10,10): root 150/11, ratio 10/11
    p = balance_point((16.0, 16.0), (10.0, 10.0), 0.0, RW)
    assert p == pytest.approx(150 / 11, abs=1e-8)
    assert cp_under_raw(p, (16.0, 16.0), RW) == pytest.approx(10 / 11, abs=1e-9)
    assert cp_over_raw(p, (10.0, 10.0), RW) == pytest.approx(10 / 11, abs=1e-9)


def test_balance_self_pair():
    p = balance_point((16.0, 16.0), (16.0, 16.0), 0.0, RW)
    assert p == pytest.approx(16.0, abs=1e-8)
    assert cp_under_raw(p, (16.0, 16.0), RW) == pytest.approx(1.0, abs=1e-9)


def test_balance_empty_interval():
    # over point demands p >= 18 while the under point caps p at 4
    with pytest.raises(NoSolution):
        balance_point((10.0, 4.0), (5.0, 18.0), 0.0, RW)


@pytest.mark.parametrize("above, solved", [(5e-13, True), (1e-10, False)])
def test_balance_interval_empty_only_beyond_level_tie(above, solved):
    # the over point's y, the interval's left end, lies above the under
    # point's, its right end: by a rounding, or by 1e-10, a real gap
    under, over = (3.0, 5.0), (3.0, 5.0 + above)
    if solved:
        assert balance_point(under, over, 0.0, RW) == 5.0
    else:
        with pytest.raises(NoSolution):
            balance_point(under, over, 0.0, RW)


def test_balance_shift():
    p = balance_point((10.0, 16.0), (14.0, 6.0), 4.0, RW)
    assert cp_under_raw(p, (10.0, 16.0), RW) == pytest.approx(
        cp_over_raw(p - 4.0, (14.0, 6.0), RW), abs=1e-8
    )


@pytest.mark.parametrize("shift", [-1.0, float("nan")])
def test_balance_rejects_negative_or_nan_shift(shift):
    with pytest.raises(ValueError):
        balance_point((10.0, 16.0), (14.0, 6.0), shift, RW)


def test_balance_infinite_shift_has_no_solution():
    with pytest.raises(NoSolution):
        balance_point((10.0, 16.0), (14.0, 6.0), float("inf"), RW)


@pytest.mark.parametrize("args", [
    (1 / 3, 1.0, float("inf")), (1 / 3, float("inf"), 20.0), (1 / 3, 1.0, float("nan")),
    (float("nan"), 1.0, 20.0),
])
def test_rewards_reject_non_finite(args):
    with pytest.raises(ValueError):
        Rewards(*args)


@pytest.mark.parametrize("x,y", [(float("nan"), 3.0), (3.0, float("nan")), (float("inf"), 0.0)])
def test_demand_point_rejects_non_finite(x, y):
    with pytest.raises(ValueError):
        DemandPoint(x, y)


def _bisect_balance(under_pt, over_pt, shift, rw):
    """Reference root: the 200-step bisection that balance_point ran before
    its closed form, with the same interval and NoSolution rule."""
    m = rw.m
    lo = max(0.0, min(over_pt[1], m) + shift)
    hi = min(m, under_pt[1])
    if lo > hi + 1e-12:
        raise NoSolution("empty balancing interval")
    lo = min(lo, hi)

    def f(p):
        return cp_under_raw(p, under_pt, rw) - cp_over_raw(p - shift, over_pt, rw)

    flo, fhi = f(lo), f(hi)
    if flo > 1e-9 or fhi < -1e-9:
        raise NoSolution("balancing difference does not change sign")
    if flo >= 0.0:
        return lo
    if fhi <= 0.0:
        return hi
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _balance_pairs(n, seed=31):
    # half continuous, half on a 0.5 grid so that kinks coincide with each
    # other and with the interval ends; coordinates reach 2m, shift is 0 for
    # a third of the draws
    rng = np.random.default_rng(seed)
    for i in range(n):
        x_u, y_u, x_o, y_o = rng.uniform(0.0, 2.0 * RW.m, size=4)
        shift = 0.0 if i % 3 == 0 else float(rng.uniform(0.0, RW.m))
        if i % 2:
            x_u, y_u, x_o, y_o, shift = (round(2.0 * v) / 2.0 for v in (x_u, y_u, x_o, y_o, shift))
        yield (float(x_u), float(y_u)), (float(x_o), float(y_o)), shift


def test_balance_point_matches_bisection_reference():
    m = RW.m
    covered = {"k_u": 0, "m-x_u": 0, "m-x_o+shift": 0, "shift=0": 0, "y>=m": 0, "x>=m": 0}
    n_roots = 0
    for under, over, shift in _balance_pairs(6000):
        try:
            ref = _bisect_balance(under, over, shift, RW)
        except NoSolution:
            with pytest.raises(NoSolution):
                balance_point(under, over, shift, RW)
            continue
        p = balance_point(under, over, shift, RW)
        assert p == pytest.approx(ref, abs=1e-11)
        hi = min(m, under[1])
        lo = min(max(0.0, min(over[1], m) + shift), hi)
        if lo < p < hi:
            n_roots += 1
            assert abs(cp_under_raw(p, under, RW) - cp_over_raw(p - shift, over, RW)) <= 1e-12
            kinks = {"k_u": min(under[1], max(m - under[0], 0.0)), "m-x_u": m - under[0],
                     "m-x_o+shift": m - over[0] + shift}
            for name, t in kinks.items():
                covered[name] += lo < t < hi
            covered["shift=0"] += shift == 0.0
            covered["y>=m"] += under[1] >= m or over[1] >= m
            covered["x>=m"] += under[0] >= m or over[0] >= m
    assert n_roots >= 1000
    assert min(covered.values()) >= 50, covered


@pytest.mark.parametrize("fn", [cp])
def test_ratio_rejects_nan_level(fn):
    with pytest.raises(ValueError):
        fn(float("nan"), (3.0, 4.0), RW)


@pytest.mark.parametrize("pt", [(float("nan"), 4.0), (4.0, float("nan")), (float("inf"), 4.0)])
@pytest.mark.parametrize("fn", [
    cp, cp_over_raw, cp_under_raw,
    lambda p, pt, rw: hindsight_denominator(pt, rw),
])
def test_ratio_rejects_non_finite_tuple_point(fn, pt):
    with pytest.raises(ValueError):
        fn(3.0, pt, RW)


@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fn", [cp_over_raw, cp_under_raw])
def test_raw_ratios_reject_non_finite_level(fn, p):
    # they returned 1.0 or 0.8 for the over ratio and NaN for the under ratio
    with pytest.raises(InvalidInput, match="protection level must be finite"):
        fn(p, (3.0, 4.0), RW)


@pytest.mark.parametrize("pt", [(-1.0, 5.0), (5.0, -1.0), (-2e-9, 0.0), (0.0, -1e-8)])
def test_tuple_point_below_tolerance_is_rejected(pt):
    # hindsight_denominator((-1, 5)) returned 4.67 for a negative demand
    with pytest.raises(InvalidInput, match="demand must be finite and at least"):
        hindsight_denominator(pt, RW)


def test_tuple_point_within_rounding_of_zero_is_accepted():
    # envelope interpolation can round a zero height to about -1e-15
    assert hindsight_denominator((-1e-15, 5.0), RW) == hindsight_denominator((0.0, 5.0), RW)
    assert cp_over_raw(4.0, (3.0, -1e-15), RW) == cp_over_raw(4.0, (3.0, 0.0), RW)


def test_balance_levels_keeps_few_stacks_alive():
    # a 64-gon's C* balances about a thousand pairs in one call; with many
    # (5, n) arrays alive at once, each such call grows the heap and gives it
    # back (about 40 page faults per C*), so the peak is bounded in arrays of n
    import tracemalloc

    from plpareto.ratios import balance_levels

    rng = np.random.default_rng(7)
    n = 1000
    cols = [rng.uniform(0.0, 25.0, n) for _ in range(4)]
    shift = np.maximum(rng.uniform(-5.0, 5.0, n), 0.0)
    balance_levels(*cols, shift, RW)
    tracemalloc.start()
    try:
        balance_levels(*cols, shift, RW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 8 * n
