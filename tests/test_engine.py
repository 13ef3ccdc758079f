import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plpareto import (
    Arrival,
    EngineState,
    PLFunction,
    Rewards,
    constant_pl,
    cp,
    offer,
    ordered_sequence,
    performance_ratio,
    run_sequence,
    unit_chunks,
)
from plpareto.errors import InvalidInput

RW = Rewards(1.0 / 3.0, 1.0, 20.0)

demand = st.floats(0.0, 40.0, allow_nan=False)
level = st.floats(0.0, 20.0, allow_nan=False)


def test_arrival_validation():
    with pytest.raises(ValueError):
        Arrival("mid", 1.0)
    with pytest.raises(ValueError):
        Arrival("low", -1.0)


@pytest.mark.parametrize("x,y", [(float("nan"), 5.0), (-3.0, 5.0), (5.0, float("nan")), (5.0, -3.0)])
def test_ordered_sequence_rejects_nan_and_negative_totals(x, y):
    with pytest.raises(ValueError):
        ordered_sequence(x, y)
    with pytest.raises(ValueError):
        unit_chunks(x, y)


def test_ordered_sequence_reads_a_rounded_zero_as_no_demand():
    assert ordered_sequence(-1e-15, 5.0) == [Arrival("high", 5.0)]
    assert ordered_sequence(5.0, -1e-15) == [Arrival("low", 5.0)]


@pytest.mark.parametrize("x,y", [(-1e-8, 5.0), (5.0, -1e-8)])
def test_ordered_sequence_rejects_a_total_ten_tol_below_zero(x, y):
    # TOL = 1e-9 absorbs an envelope's rounding of 0, not a negative demand
    with pytest.raises(InvalidInput, match="demand must be a number of at least"):
        ordered_sequence(x, y)


def test_fixed_level_full_instance():
    pl = constant_pl(8.0, 20.0)
    state = run_sequence(ordered_sequence(20.0, 20.0), pl, RW)
    assert state.low_accepted == pytest.approx(12.0, abs=1e-12)
    assert state.high_accepted == pytest.approx(8.0, abs=1e-12)
    assert performance_ratio(state, RW) == pytest.approx(0.6, abs=1e-12)


def test_high_demand_always_served_from_remaining():
    pl = constant_pl(20.0, 20.0)  # protect everything: no low service
    state = run_sequence(ordered_sequence(15.0, 7.0), pl, RW)
    assert state.low_accepted == 0.0
    assert state.high_accepted == pytest.approx(7.0)


def test_empty_sequence_ratio_is_one():
    state = run_sequence([], constant_pl(5.0, 20.0), RW)
    assert performance_ratio(state, RW) == 1.0


@given(demand, demand, level)
@settings(max_examples=300, deadline=None)
def test_engine_matches_ratio_formula_on_ordered(x, y, p):
    state = run_sequence(ordered_sequence(x, y), constant_pl(p, 20.0), RW)
    assert performance_ratio(state, RW) == pytest.approx(cp(p, (x, y), RW), abs=1e-9)


def test_unit_chunks_totals_and_fractions():
    chunks = unit_chunks(3.5, 2.0)
    lows = [a.size for a in chunks if a.kind == "low"]
    highs = [a.size for a in chunks if a.kind == "high"]
    assert sum(lows) == pytest.approx(3.5) and lows[-1] == pytest.approx(0.5)
    assert highs == [1.0, 1.0]


def test_ordered_is_worst_among_permutations():
    rng = np.random.default_rng(5)
    pl = PLFunction(((0.0, 12.0), (10.0, 12.0), (20.0, 4.0)))
    for _ in range(200):
        x, y = rng.uniform(0, 30), rng.uniform(0, 30)
        base = performance_ratio(run_sequence(ordered_sequence(x, y), pl, RW), RW)
        chunks = unit_chunks(x, y)
        perm = [chunks[i] for i in rng.permutation(len(chunks))]
        assert performance_ratio(run_sequence(perm, pl, RW), RW) >= base - 1e-9


def test_low_chunk_splitting_invariance():
    rng = np.random.default_rng(6)
    pl = PLFunction(((0.0, 15.0), (20.0, 3.0)))
    for _ in range(100):
        x = float(rng.uniform(0, 30))
        whole = run_sequence([Arrival("low", x)], pl, RW)
        cuts = np.sort(rng.uniform(0, x, size=5))
        parts = np.diff(np.concatenate([[0.0], cuts, [x]]))
        split = run_sequence([Arrival("low", float(s)) for s in parts if s > 0], pl, RW)
        assert split.low_accepted == pytest.approx(whole.low_accepted, abs=1e-9)


@pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
def test_arrival_rejects_non_finite_size(size):
    with pytest.raises(ValueError):
        Arrival("low", size)


@pytest.mark.parametrize("remaining", [float("nan"), float("inf"), -1.0, -1e-300])
@pytest.mark.parametrize("kind", ["low", "high"])
def test_offer_rejects_bad_remaining_capacity(remaining, kind):
    # offer returned NaN for NaN and -1.0 for -1 and left the state broken
    state = EngineState(remaining=remaining)
    with pytest.raises(InvalidInput, match="remaining capacity"):
        offer(state, Arrival(kind, 2.0), constant_pl(8.0, 20.0), RW)
    assert state.low_seen == state.high_seen == state.reward == 0.0
