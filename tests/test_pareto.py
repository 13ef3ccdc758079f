import numpy as np
import pytest

from plpareto import (
    Rewards,
    bound_context,
    build_polygon,
    cstar_bisection,
    cstar_enumeration,
    envelope,
    no_advice_level,
    ordered_sequence,
    performance_ratio,
    polygonize_ellipse,
    rho,
    run_sequence,
    solve_pareto,
    tradeoff_curve,
)
from plpareto.errors import InfeasibleTarget
from conftest import random_region


def test_sum_region_solution(rw, sum_region):
    sol = solve_pareto(sum_region, rw, 0.8)
    assert sol.p_right_at_xbar == pytest.approx(8.0, abs=1e-6)
    assert sol.r_right == pytest.approx(0.6, abs=1e-6)
    assert sol.r_star == pytest.approx(0.6, abs=1e-6)
    assert sol.p_star.validate(rw.m) == []


def test_diff_region_solution(rw, diff_region):
    sol = solve_pareto(diff_region, rw, 0.8)
    assert sol.p_right_at_xbar == pytest.approx(10.8, abs=1e-6)
    assert sol.r_right == pytest.approx(0.575, abs=1e-6)
    assert sol.r_star == pytest.approx(0.575, abs=1e-6)
    assert sol.p_star(0.0) == pytest.approx(10.8, abs=1e-6)
    assert sol.p_star(16.0) == pytest.approx(10.8, abs=1e-6)
    assert sol.p_star(20.0) == pytest.approx(8.5, abs=1e-6)
    assert sol.p_star.validate(rw.m) == []


def test_infeasible_target_raises(rw, diff_region):
    with pytest.raises(InfeasibleTarget):
        solve_pareto(diff_region, rw, 0.95)


def test_low_target_recovers_no_advice_optimum(rw, sum_region):
    sol = solve_pareto(sum_region, rw, rho(rw))
    assert sol.r_star == pytest.approx(rho(rw), abs=1e-9)
    assert sol.p_right_at_xbar == pytest.approx(no_advice_level(rw), abs=1e-9)


def test_r_star_nonincreasing_in_C(rw):
    rng = np.random.default_rng(29)
    for _ in range(8):
        region = random_region(rng)
        c_star = cstar_enumeration(region, rw).c_star
        targets = np.linspace(rho(rw), c_star, 6)
        prev = None
        for C in targets:
            sol = solve_pareto(region, rw, float(C))
            assert sol.r_star <= rho(rw) + 1e-9
            if prev is not None:
                assert sol.r_star <= prev + 1e-9
            prev = sol.r_star


def test_solution_honors_both_targets_in_engine(rw):
    rng = np.random.default_rng(31)
    for _ in range(5):
        region = random_region(rng)
        c_star = cstar_enumeration(region, rw).c_star
        C = 0.9 * c_star
        sol = solve_pareto(region, rw, C)
        assert sol.p_star.validate(rw.m, x_bar=region.x_hi) == []
        # consistency on advice-region instances
        for x in np.linspace(region.x_lo, region.x_hi, 21):
            for side in ("lower", "upper"):
                y = envelope(region, float(x), side)
                state = run_sequence(ordered_sequence(float(x), y), sol.p_star, rw)
                assert performance_ratio(state, rw) >= C - 1e-6
        # robustness on arbitrary corner instances
        for x in np.linspace(0.0, 30.0, 31):
            for y in (0.0, rw.m, 30.0):
                state = run_sequence(ordered_sequence(float(x), y), sol.p_star, rw)
                assert performance_ratio(state, rw) >= sol.r_star - 1e-6


def test_tradeoff_curve_marks_infeasible(rw, diff_region):
    targets = [0.6, 0.8, 10 / 11, 0.95, 0.99]
    curve = tradeoff_curve(diff_region, rw, targets)
    assert [c for c, _ in curve] == targets
    assert curve[0][1] is not None and curve[1][1] is not None
    assert curve[2][1] is not None
    assert curve[3][1] is None and curve[4][1] is None
    r_vals = [s.r_star for _, s in curve if s is not None]
    assert all(a >= b - 1e-9 for a, b in zip(r_vals, r_vals[1:]))


def test_r_star_mismatch_raises_internal_error(rw, diff_region, monkeypatch):
    # r_star is min(r_right, inf_over); a left side whose r_left disagrees
    # with it is a solver fault, reported as a PlparetoError (CLI exit 2)
    import plpareto.pareto as pareto
    from plpareto.errors import InternalError, PlparetoError

    real = pareto._left_part

    def skewed(ctx, p_r):
        bps, r_left, inf_over = real(ctx, p_r)
        return bps, r_left - 0.01, inf_over

    monkeypatch.setattr(pareto, "_left_part", skewed)
    with pytest.raises(InternalError, match="r_star"):
        solve_pareto(diff_region, rw, 0.8)
    assert issubclass(InternalError, PlparetoError)


@pytest.mark.parametrize("skew, raises", [(1e-7, True), (5e-10, False)])
def test_r_star_agreement_allows_rounding_only(rw, diff_region, monkeypatch, skew, raises):
    """r_left = r_right = 0.575 here, so a skewed r_left moves min(r_right,
    r_left) by the skew: 1e-7, well inside 1e-6, is a fault; 5e-10 is the
    rounding the 1e-9 bound absorbs."""
    import plpareto.pareto as pareto
    from plpareto.errors import InternalError

    real = pareto._left_part

    def skewed(ctx, p_r):
        bps, r_left, inf_over = real(ctx, p_r)
        return bps, r_left - skew, inf_over

    monkeypatch.setattr(pareto, "_left_part", skewed)
    if raises:
        with pytest.raises(InternalError, match="r_star"):
            solve_pareto(diff_region, rw, 0.8)
    else:
        assert solve_pareto(diff_region, rw, 0.8).r_star == 0.575


def test_policy_at_cstar_is_flat_where_the_floor_meets_the_ceiling(rw):
    """At C* the floor's plateau equals the ceiling p_r in exact arithmetic;
    here it rounds 3.6e-15 above it.  The policy is the constant p_r that
    exact arithmetic gives, not the floor's 8 breakpoints a few ulps above
    p_r and a drop to it at x_bar."""
    region = polygonize_ellipse([26.0, 5.3], [[28.8, 3.2], [3.2, 7.5]], 6)
    c_star = cstar_enumeration(region, rw).c_star
    sol = solve_pareto(region, rw, c_star)
    p_r = sol.p_right_at_xbar
    assert 0.0 < bound_context(region, rw, c_star).floor(0.0) - p_r < 1e-12
    assert sol.p_star.breakpoints == ((0.0, p_r), (region.x_hi, p_r))


def test_policy_cuts_the_floor_at_its_point_tied_with_p_r(rw):
    """At C* the floor's last point, at x_bar, rounds 3.6e-15 below p_r,
    where exact arithmetic puts it on p_r.  The policy follows the floor and
    ends at (x_bar, p_r), not at a cut an ulp left of x_bar and a flat piece
    one ulp wide after it."""
    region = build_polygon([(8.666677270429787, 24.43896625641191),
                            (29.29931455838997, 3.844366990959638),
                            (15.388313851238205, 25.105093727479343),
                            (10.379952116980393, 29.07338474044362)])
    c_star = cstar_enumeration(region, rw).c_star
    sol = solve_pareto(region, rw, c_star)
    x_bar, p_r = region.x_hi, sol.p_right_at_xbar
    floor = bound_context(region, rw, c_star).floor.breakpoints
    assert floor[-1][0] == x_bar and -1e-12 < floor[-1][1] - p_r < 0.0
    assert sol.p_star.breakpoints == floor[:-1] + ((x_bar, p_r),)


def test_tail_on_the_corridor_edge_descends_at_slope_minus_one():
    """A point region where p_r equals the corridor's upper edge
    m - rho * x_bar = 12.5 in exact arithmetic and rounds 3.6e-15 above it.
    The tail takes the exact-arithmetic branch, slope -1 down to the
    no-advice level, not the line -Rx + m that starts above the corridor."""
    rw = Rewards(0.8, 1.0, 25.0)
    sol = solve_pareto(build_polygon([(15.0, 26.0)]), rw, 0.9)
    p_r, g_lo = sol.p_right_at_xbar, no_advice_level(rw)
    assert 0.0 < p_r - (rw.m - rho(rw) * 15.0) < 1e-12
    assert sol.p_star.breakpoints == (
        (0.0, p_r), (15.0, p_r), (15.0 + (p_r - g_lo), g_lo), (rw.m, g_lo))


# -- guarantee replay on degenerate regions and ellipse polygons --------------
#
# Criterion 5's replay on region families it does not draw: the Pareto policy
# at 0.8, 0.9 and 1.0 times C* keeps every boundary instance of the region at
# ratio >= C and every first-quadrant corner at ratio >= r_star.


def _replay_worst(region, rw, c_star):
    worst_cons = worst_rob = float("inf")
    for frac in (0.8, 0.9, 1.0):
        C = frac * c_star
        sol = solve_pareto(region, rw, C)
        assert sol.p_star.validate(rw.m, region.x_hi) == []
        for x in np.linspace(region.x_lo, region.x_hi, 60):
            for side in ("lower", "upper"):
                y = envelope(region, float(x), side)
                st = run_sequence(ordered_sequence(float(x), y), sol.p_star, rw)
                worst_cons = min(worst_cons, performance_ratio(st, rw) - C)
        for x in np.linspace(0.0, max(rw.m, region.x_hi) + 10.0, 40):
            for y in (0.0, rw.m):
                st = run_sequence(ordered_sequence(float(x), y), sol.p_star, rw)
                worst_rob = min(worst_rob, performance_ratio(st, rw) - sol.r_star)
    return worst_cons, worst_rob


def _regions(kind, rng):
    if kind == "point":
        return [build_polygon([tuple(rng.uniform(0.0, 30.0, 2))]) for _ in range(20)]
    if kind == "segment":
        segs = [build_polygon([tuple(p) for p in rng.uniform(0.0, 30.0, (2, 2))])
                for _ in range(18)]
        x = float(rng.uniform(0.0, 30.0))
        segs.append(build_polygon([(x, 2.0), (x, 26.0)]))  # vertical
        segs.append(build_polygon([(3.0, 12.0), (27.0, 12.0)]))  # horizontal
        return segs
    out = []
    for _ in range(12):
        c = rng.uniform(5.0, 25.0, 2)
        a, b = rng.uniform(1.0, 6.0, 2)
        th = float(rng.uniform(0.0, np.pi))
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        out.append(polygonize_ellipse(tuple(c), (rot @ np.diag([a, b]) @ rot.T).tolist(), 64))
    return out


@pytest.mark.parametrize("kind", ["point", "segment", "ellipse64"])
def test_pareto_guarantees_replay(rw, kind):
    rng = np.random.default_rng(5306)
    worst_cons = worst_rob = float("inf")
    for region in _regions(kind, rng):
        # bisection's C* is the feasible end of its bracket, as the harness uses it
        c_star = cstar_bisection(region, rw).c_star
        cons, rob = _replay_worst(region, rw, c_star)
        worst_cons, worst_rob = min(worst_cons, cons), min(worst_rob, rob)
    assert worst_cons >= -1e-6 and worst_rob >= -1e-6, (worst_cons, worst_rob)
