import pytest
from hypothesis import given, settings, strategies as st

from plpareto import (
    DemandPoint,
    Rewards,
    balance_point,
    cp,
    cp_over,
    cp_over_raw,
    cp_under,
    cp_under_raw,
    hindsight_denominator,
)
from plpareto.errors import BranchMismatch, NoSolution

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
    with pytest.raises(BranchMismatch):
        cp_over(5.0, pt, RW)
    with pytest.raises(BranchMismatch):
        cp_under(12.0, pt, RW)
    with pytest.raises(ValueError):
        cp(25.0, pt, RW)


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


def test_balance_shift():
    p = balance_point((10.0, 16.0), (14.0, 6.0), 4.0, RW)
    assert cp_under_raw(p, (10.0, 16.0), RW) == pytest.approx(
        cp_over_raw(p - 4.0, (14.0, 6.0), RW), abs=1e-8
    )


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
