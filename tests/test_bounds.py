import bisect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plpareto.bounds as bounds
from plpareto import (
    PLFunction,
    Rewards,
    band_gap,
    bound_context,
    box_advice,
    build_polygon,
    cp_over_raw,
    cp_under_raw,
    cstar_bisection,
    cstar_enumeration,
    envelope,
    g_corridor,
    hindsight_denominator,
    l_bound,
    l_raw,
    l_tilde,
    no_advice_level,
    policy_floor,
    polygonize_ellipse,
    rho,
    solve_pareto,
    u_bound,
    u_ceiling,
    u_raw,
    x_vertices,
)
from plpareto.bounds import _cone_floor, _running_max_bps
from plpareto.errors import OutOfDomain, TargetOutOfRange
from plpareto.region import TOL, dedup_sorted
from conftest import oracle_published_curves, random_region
from test_bound_loops import _corpus


def test_rho_and_no_advice_level(rw):
    assert rho(rw) == pytest.approx(0.6, abs=1e-12)
    assert no_advice_level(rw) == pytest.approx(8.0, abs=1e-12)


def test_g_corridor_values(rw):
    assert g_corridor(rw, 0.6, 16.0, "lower") == pytest.approx(8.0, abs=1e-12)
    assert g_corridor(rw, 0.6, 16.0, "upper") == pytest.approx(10.4, abs=1e-12)
    # frozen beyond x = m
    assert g_corridor(rw, 0.6, 30.0, "upper") == g_corridor(rw, 0.6, 20.0, "upper")
    assert g_corridor(rw, 0.3, 0.0, "lower") == 0.0
    with pytest.raises(TargetOutOfRange):
        g_corridor(rw, 0.7, 10.0, "lower")
    with pytest.raises(TargetOutOfRange):
        g_corridor(rw, 0.0, 10.0, "lower")


def test_g_corridor_accepts_rho_that_rounds_above_its_formula():
    """With r_low/r_high = 2/3, rho is exactly 3/4, but 1/(2 - 2/3) rounds to
    0.7499999999999999; the caller's exact 0.75 is still a valid target."""
    rw = Rewards(2.0, 3.0, 20.0)
    assert rho(rw) < 0.75
    assert g_corridor(rw, 0.75, 10.0, "upper") == 12.5


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_g_corridor_rejects_a_target_just_above_rho(rw, side):
    """rho + 1e-7 is no rounding of rho: no policy reaches it.  The 2/3
    rewards' rho, which rounds below 3/4, still takes 0.75."""
    with pytest.raises(TargetOutOfRange):
        g_corridor(rw, rho(rw) + 1e-7, 10.0, side)
    g_corridor(rw, rho(rw), 10.0, side)
    assert g_corridor(Rewards(2.0, 3.0, 20.0), 0.75, 10.0, side) >= 5.0


def test_x_lo_u_where_u_leaves_m_at_a_rounded_root():
    """u is m on [0.92, 5.66] and leaves it at a switch root, where it rounds
    to m - 3.6e-15.  x_lo_u is that root, not 2.65, the last breakpoint where
    u is exactly m."""
    region = build_polygon([(0.9241641165302905, 26.843946092483908),
                            (17.738345556882354, 8.829856835907846),
                            (27.68177059268743, 26.079946340357083),
                            (10.924152788715686, 29.19530443898682)])
    rw, C = Rewards(0.8, 1.0, 25.0), 0.8937624823583491
    ctx = bound_context(region, rw, C)
    x = ctx.x_lo_u
    assert rw.m - 1e-12 < ctx.u(x) < rw.m
    assert u_raw(region, rw, C, x - 1e-4) == rw.m
    assert u_raw(region, rw, C, x + 1e-4) < rw.m


def test_x_minus1_ignores_a_slope_minus_one_that_rounds_steeper(rw):
    """On the segment from (13, 14) to (14, 13) at C = 1, pw falls at slope
    -1 exactly, computed as -1.0000000000000018.  l never falls faster than
    slope -1, so x_minus1 is x_bar."""
    region = build_polygon([(13.0, 14.0), (14.0, 13.0)])
    ctx = bound_context(region, rw, 1.0)
    assert ctx.pw.breakpoints == ((13.0, 14.0), (14.0, 12.999999999999998))
    assert ctx.x_minus1 == 14.0


def test_x_minus1_ignores_a_drop_within_slope_tol_over_a_narrower_segment():
    """pw falls 8e-10 over 5e-10 at x = 5: slope -1.6, but both the width
    and the drop are within SLOPE_TOL, which validate reads as no step, so
    l never falls faster than slope -1 and x_minus1 is x_bar."""
    pw = PLFunction(((0.0, 10.0), (5.0, 8.0), (5.0 + 5e-10, 8.0 - 8e-10), (10.0, 3.0)))
    assert bounds._lower_thresholds(pw, 0.0, 10.0) == (10.0, 10.0)


def test_cone_floor_adds_no_piece_for_a_rounding_excess():
    """The cone leaves (1, 4), 1e-13 above the curve at x = 1, and the curve
    falls at slope -0.5 from there.  Within LEVEL_TIE the two are one level,
    so the floor follows the curve from x = 1 on, with no cone piece 2e-13
    wide before it."""
    mbps = [(0.0, 5.0), (1.0, 4.0 - 1e-13), (2.0, 3.5)]
    assert _cone_floor(mbps) == [(0.0, 5.0), (1.0, 4.0), (2.0, 3.5)]


def _bisect_u(region, rw, C, t, iters=200):
    """Independent oracle: largest p with over-ratio >= C at the lower point."""
    y = envelope(region, t, "lower")
    if cp_over_raw(rw.m, (t, y), rw) >= C:
        return rw.m
    lo, hi = 0.0, rw.m
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cp_over_raw(mid, (t, y), rw) >= C:
            lo = mid
        else:
            hi = mid
    return lo


def _bisect_l(region, rw, C, t, iters=200):
    """Independent oracle: smallest p with under-ratio >= C at the upper point."""
    y = envelope(region, t, "upper")
    if cp_under_raw(0.0, (t, y), rw) >= C:
        return 0.0
    lo, hi = 0.0, rw.m
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cp_under_raw(mid, (t, y), rw) >= C:
            hi = mid
        else:
            lo = mid
    return hi


def test_raw_bounds_match_bisection_oracle(rw):
    rng = np.random.default_rng(3)
    for _ in range(25):
        region = random_region(rng)
        C = float(rng.uniform(0.3, 0.99))
        for t in np.linspace(region.x_lo, region.x_hi, 9):
            t = float(t)
            u = u_raw(region, rw, C, t)
            l = l_raw(region, rw, C, t)
            assert u == pytest.approx(_bisect_u(region, rw, C, t), abs=1e-8)
            # the closed form may sit at the left end of a flat ratio stretch;
            # both answers must satisfy the defining inequality marginally
            y_up = envelope(region, t, "upper")
            assert cp_under_raw(l + 1e-9, (t, y_up), rw) >= C - 1e-7
            if l > 1e-9:
                assert cp_under_raw(l - 1e-6, (t, y_up), rw) <= C + 1e-6
            y_lo = envelope(region, t, "lower")
            assert cp_over_raw(max(u - 1e-9, 0.0), (t, y_lo), rw) >= C - 1e-7
            if u < rw.m - 1e-9:
                assert cp_over_raw(u + 1e-6, (t, y_lo), rw) <= C + 1e-6


def test_sum_region_band(rw, sum_region):
    ctx = bound_context(sum_region, rw, 0.8)
    assert u_bound(ctx, 16.0) == pytest.approx(9.6, abs=1e-9)
    for x in np.linspace(0.0, 16.0, 33):
        assert l_bound(ctx, float(x)) == pytest.approx(0.0, abs=1e-9)
        assert l_tilde(ctx, float(x)) == pytest.approx(0.0, abs=1e-9)
    # exact floor is strictly positive: a zero protection level fails at (16, 9)
    assert cp_under_raw(0.0, (16.0, 9.0), rw) < 0.8
    assert policy_floor(ctx, 16.0) == pytest.approx(5.2, abs=1e-6)
    assert policy_floor(ctx, 0.0) == pytest.approx(10.0, abs=1e-6)


def test_diff_region_band(rw, diff_region):
    ctx = bound_context(diff_region, rw, 0.8)
    for x in np.linspace(0.0, 16.0, 33):
        assert l_tilde(ctx, float(x)) == pytest.approx(10.8, abs=1e-9)
    for x in np.linspace(4.0, 16.0, 25):
        assert u_bound(ctx, float(x)) == pytest.approx(19.2, abs=1e-9)
    # the frozen upper bound hides a tighter pointwise constraint mid-region
    assert u_raw(diff_region, rw, 0.8, 10.0) == pytest.approx(18.0, abs=1e-9)
    assert u_ceiling(ctx) == pytest.approx(18.0, abs=1e-6)


def test_band_monotone_in_target(rw):
    rng = np.random.default_rng(11)
    for _ in range(10):
        region = random_region(rng)
        c1, c2 = sorted(rng.uniform(0.3, 0.99, size=2))
        ctx1 = bound_context(region, rw, float(c1))
        ctx2 = bound_context(region, rw, float(c2))
        for x in np.linspace(0.0, region.x_hi, 17):
            x = float(x)
            assert u_bound(ctx1, x) >= u_bound(ctx2, x) - 1e-9
            assert policy_floor(ctx1, x) <= policy_floor(ctx2, x) + 1e-9


def test_floor_is_valid_and_dominates_pointwise(rw):
    rng = np.random.default_rng(17)
    for _ in range(15):
        region = random_region(rng)
        C = float(rng.uniform(0.3, 0.95))
        ctx = bound_context(region, rw, C)
        xs = [x for x, _ in ctx.floor_bps]
        for (x1, v1), (x2, v2) in zip(ctx.floor_bps, ctx.floor_bps[1:]):
            if x2 - x1 > 1e-9:
                slope = (v2 - v1) / (x2 - x1)
                assert -1.0 - 1e-7 <= slope <= 1e-7
        for t in np.linspace(region.x_lo, region.x_hi, 33):
            t = float(t)
            assert policy_floor(ctx, t) >= l_raw(region, rw, C, t) - 1e-7


def test_band_gap_witness(rw, diff_region):
    gap, witness = band_gap(bound_context(diff_region, rw, 0.8))
    assert gap > 0.0
    gap2, _ = band_gap(bound_context(diff_region, rw, 0.999))
    assert gap2 < 0.0


@pytest.mark.parametrize("C", [-0.1, 1.5, float("nan")])
def test_bound_context_rejects_target_outside_unit_interval(rw, diff_region, C):
    with pytest.raises(TargetOutOfRange):
        bound_context(diff_region, rw, C)


@pytest.mark.parametrize("C", [float("nan"), -1.0, 5.0])
@pytest.mark.parametrize("raw", [u_raw, l_raw])
def test_raw_bounds_reject_target_outside_unit_interval(rw, diff_region, raw, C):
    with pytest.raises(TargetOutOfRange):
        raw(diff_region, rw, C, 10.0)


def test_bound_context_locates_key_points_once(rw, monkeypatch):
    import plpareto.bounds as bounds

    calls = []
    real = bounds.key_points
    monkeypatch.setattr(bounds, "key_points", lambda *a: calls.append(a) or real(*a))
    region = random_region(np.random.default_rng(4))
    ctx = bound_context(region, rw, 0.8)
    assert len(calls) == 1
    assert ctx.u_bps == ctx.u.breakpoints and ctx.floor_bps == ctx.floor.breakpoints


@pytest.mark.parametrize("fn", [u_bound, l_bound, l_tilde, policy_floor])
def test_bound_curves_at_nan_raise_out_of_domain(rw, diff_region, fn):
    ctx = bound_context(diff_region, rw, 0.8)
    with pytest.raises(OutOfDomain):
        fn(ctx, float("nan"))


@pytest.mark.parametrize("fn", [u_bound, l_bound, l_tilde, policy_floor])
def test_bound_curves_read_an_end_a_rounding_outside_the_region(rw, diff_region, fn):
    """An abscissa within TOL outside [0, x_bar], as a caller's arithmetic
    leaves it, is read at the nearer end; one further out is rejected."""
    ctx = bound_context(diff_region, rw, 0.8)
    x_bar = diff_region.x_hi
    assert fn(ctx, -1e-12) == fn(ctx, 0.0)
    assert fn(ctx, x_bar + 1e-12) == fn(ctx, x_bar)
    for x in (-1e-6, x_bar + 1e-6):
        with pytest.raises(OutOfDomain):
            fn(ctx, x)


def test_u_freezes_at_l_when_l_is_on_the_line_up_to_rounding():
    """L = (0.1, 0.7) lies on x + y = m = 0.8, but 0.1 + 0.7 rounds to
    0.7999999999999999.  L on the line freezes u at L itself, not at the
    right end (0.5) of the flat bottom that starts at L."""
    region = build_polygon([(0.1, 0.7), (0.5, 0.7), (0.6, 1.2), (0.05, 1.2)])
    assert 0.1 + 0.7 < 0.8
    assert bound_context(region, Rewards(1.0 / 3.0, 1.0, 0.8), 0.8).x_hi_u == 0.1


def test_u_freezes_at_the_right_end_of_a_bottom_flat_within_tol(rw):
    """L = (10, 5) lies below x + y = m, so u freezes at the right end of
    the lower envelope's flat bottom.  (14, 5 + 4e-10) is within TOL of the
    bottom, so the flat bottom ends there, not at L."""
    region = build_polygon([(10.0, 5.0), (14.0, 5.0 + 4e-10), (16.0, 12.0), (8.0, 12.0)])
    assert bound_context(region, rw, 0.8).x_hi_u == 14.0


def test_g_corridor_rejects_nan_abscissa(rw):
    for side in ("lower", "upper"):
        with pytest.raises(OutOfDomain):
            g_corridor(rw, 0.5, float("nan"), side)


def test_g_corridor_rejects_unknown_side(rw):
    with pytest.raises(ValueError):
        g_corridor(rw, 0.5, 3.0, "bogus")


# -- exact kinks against the midpoint probe they replace ---------------------
#
# Verbatim copies of the probe and of the pointwise lower bound that built the
# bound curves before the kinks were computed in closed form.


def _probe_l_raw(region, rw, C, t):
    m = rw.m
    y = envelope(region, t, "upper")
    pt = (t, y)
    denom = hindsight_denominator(pt, rw)
    if denom <= 0.0:
        return 0.0
    if cp_under_raw(0.0, pt, rw) >= C:
        return 0.0
    target = C * denom
    k = min(y, max(m - t, 0.0))
    seam = min(m, y)
    # reward as a function of p rises at rate r_high once p > k and loses r_low
    # once p > m - t; the two linear pieces cover the whole crossing range
    cands = []
    p_a = (target - k * rw.r_high - t * rw.r_low) / rw.r_high
    if k - TOL <= p_a <= m - t + TOL:
        cands.append(p_a)
    p_b = (target - m * rw.r_low) / (rw.r_high - rw.r_low)
    if p_b >= max(k, m - t) - TOL:
        cands.append(p_b)
    if cands:
        return min(seam, max(0.0, min(cands)))
    # numerical edge: fall back to bisection on the monotone ratio
    lo, hi = 0.0, seam
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cp_under_raw(mid, pt, rw) >= C:
            hi = mid
        else:
            lo = mid
    return hi


def _pl_breakpoints(f, xs, val_tol=1e-10, x_floor=1e-12):
    """Exact-to-tolerance breakpoints of a piecewise-linear function.

    Seeds with candidate abscissae and recursively subdivides wherever the
    midpoint deviates from the chord, which localizes any missed kink.
    """
    out = [(xs[0], f(xs[0]))]

    def refine(a, fa, b, fb):
        if b - a <= x_floor:
            return
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm - 0.5 * (fa + fb)) <= val_tol:
            return
        refine(a, fa, mid, fm)
        out.append((mid, fm))
        refine(mid, fm, b, fb)

    for a, b in zip(xs, xs[1:]):
        fa, fb = out[-1][1], f(b)
        refine(a, fa, b, fb)
        out.append((b, fb))
    return out


# the probe's own seed abscissae, independent of the rule bound_context
# seeds its curves by: every vertex of both envelopes, the lower envelope's
# crossings with x + y = m, and x = m, on [lo, hi]
def _seed_xs(region, rw, lo, hi):
    xs = {lo, hi}
    for x in x_vertices(region, rw.m):
        if lo - TOL <= x <= hi + TOL:
            xs.add(min(max(x, lo), hi))
    if lo < rw.m < hi:
        xs.add(rw.m)
    return dedup_sorted(sorted(xs), 1e-12)


def _probe_curves(region, rw, C):
    """(u, floor, band gap) as the probe built them."""
    ctx = bound_context(region, rw, C)
    x_lo, x_bar = region.x_lo, region.x_hi
    seeds = _seed_xs(region, rw, x_lo, x_bar)
    pw = _pl_breakpoints(lambda t: _probe_l_raw(region, rw, C, t),
                         sorted(set(seeds) | {min(max(ctx.x_h, x_lo), x_bar)}))
    floor = PLFunction(tuple(_cone_floor(_running_max_bps([(x, max(0.0, v)) for x, v in pw]))))
    u = PLFunction(tuple(_pl_breakpoints(lambda t: u_raw(region, rw, C, t), seeds)))
    xs = sorted(set(u.xs).union(min(max(x, x_lo), x_bar) for x in floor.xs))
    gap = min(u(x) - max(0.0, floor(x)) for x in xs)
    return u, floor, gap


def _ellipse(rng, segments):
    c = rng.uniform(5.0, 25.0, 2)
    a, b = rng.uniform(1.0, 6.0, 2)
    th = float(rng.uniform(0.0, np.pi))
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return polygonize_ellipse(tuple(c), (rot @ np.diag([a, b]) @ rot.T).tolist(), segments)


@pytest.mark.parametrize("rw", [Rewards(1.0 / 3.0, 1.0, 20.0), Rewards(0.2, 1.5, 30.0)])
def test_exact_curves_match_probe_oracle(rw):
    rng = np.random.default_rng(2306)
    regions = [random_region(rng) for _ in range(200)]
    regions += [_ellipse(rng, int(rng.integers(8, 21))) for _ in range(40)]
    regions += [_ellipse(rng, 64) for _ in range(10)]
    worst = 0.0
    # at C = 1 the under ratio at p = 0 is 1 on all of t + y <= m, so the
    # step of l sits on that line, where rounding decides its side
    for region, C in ((r, c) for r in regions for c in (float(rng.uniform(0.5, 1.0)), 1.0)):
        ctx = bound_context(region, rw, C)
        u, floor, gap = _probe_curves(region, rw, C)
        xs = set(u.xs) | set(floor.xs) | set(ctx.u.xs) | set(ctx.floor.xs)
        xs |= set(np.linspace(0.0, region.x_hi, 41).tolist())
        for x in xs:
            worst = max(worst, abs(ctx.floor(x) - floor(x)))
            if region.x_lo <= x <= region.x_hi:
                worst = max(worst, abs(ctx.u(x) - u(x)))
        worst = max(worst, abs(band_gap(ctx)[0] - gap))
    assert worst <= 1e-9


def test_l_bound_matches_its_definition(rw):
    """l(x_H) left of x_H, l_raw on [x_H, x_hi_l], and 0 beyond."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(60):
        region = random_region(rng)
        C = float(rng.uniform(0.5, 1.0))
        ctx = bound_context(region, rw, C)
        l_h = l_raw(region, rw, C, ctx.x_h)
        for x in np.linspace(0.0, region.x_hi, 97):
            x = float(x)
            if x < ctx.x_h:
                want = l_h
            elif x <= ctx.x_hi_l:
                want = l_raw(region, rw, C, x)
            else:
                want = 0.0
            worst = max(worst, abs(l_bound(ctx, x) - want))
    assert worst <= 1e-9


def test_l_raw_where_first_ratio_piece_is_a_point(rw):
    """Here the under ratio's piece [min(y, m - t), m - t] is the single level
    m - t, and the line of that piece meets C within TOL of it although the
    ratio there is 0.61; the smallest level meeting C is near 19."""
    rng = np.random.default_rng(7)
    for _ in range(11):
        region = random_region(rng)
    C, t = 0.999999, 12.401619610751732
    p = l_raw(region, rw, C, t)
    assert p == pytest.approx(_bisect_l(region, rw, C, t), abs=1e-9)
    assert p == pytest.approx(18.9960, abs=1e-4)


# (centre, semi-axes, rotation as a fraction of pi, segments): ellipse polygons
# whose pointwise lower bound steps up from 0; the policy solved at 0.9 C* must
# not fall faster than slope -1 next to the step
STEP_ELLIPSES = [
    ((6.291, 13.921), (3.342, 1.107), 0.3827, 15),
    ((5.465, 15.801), (5.081, 1.762), 0.5961, 9),
    ((6.173, 14.934), (3.824, 1.145), 0.4630, 20),
]


@pytest.mark.parametrize("centre, axes, turn, segments", STEP_ELLIPSES)
def test_policy_at_lower_bound_step_is_valid(rw, centre, axes, turn, segments):
    th = turn * np.pi
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    region = polygonize_ellipse(centre, (rot @ np.diag(axes) @ rot.T).tolist(), segments)
    c_star = cstar_bisection(region, rw).c_star
    sol = solve_pareto(region, rw, 0.9 * c_star)
    assert sol.p_star.validate(rw.m, region.x_hi) == []


# the floor fell faster than slope -1 over [5.000000049765139,
# 5.000000078719275], 2.9e-8 wide, where the cone value n1 - d rounds at
# ulp(15.5): a slope error of about 6e-8, far above SLOPE_TOL
MICRO_CONE = [(1.377950952722521e-07, 20.00000023103635),
              (5.000000078719275, 1.9550582783310235e-08),
              (20.000000047637673, 1.2926461227593415e-07),
              (5.0, 20.00000006635352)]


@pytest.mark.parametrize("target", ["cstar", 0.85])
def test_floor_cone_over_a_micro_segment_is_valid(rw, target):
    region = build_polygon(MICRO_CONE)
    C = cstar_enumeration(region, rw).c_star if target == "cstar" else target
    ctx = bound_context(region, rw, C)
    assert PLFunction(ctx.floor.breakpoints).validate(rw.m, region.x_hi) == []
    assert solve_pareto(region, rw, C).p_star.validate(rw.m, region.x_hi) == []


_jitter = st.tuples(st.floats(0.0, 1.0), st.floats(-9.0, -6.0))


@given(st.lists(_jitter, min_size=8, max_size=8))
@settings(max_examples=150, deadline=None)
def test_policies_on_micro_jittered_polygons_are_valid(jitter):
    # vertices within 1e-9 to 1e-6 above (0, 20), (5, 0), (20, 0), (5, 20):
    # the floor's cone meets x = 5 over segments a few ulps wide
    rw = Rewards(1.0 / 3.0, 1.0, 20.0)
    base = [0.0, 20.0, 5.0, 0.0, 20.0, 0.0, 5.0, 20.0]
    coords = [v + u * 10.0 ** e for v, (u, e) in zip(base, jitter)]
    region = build_polygon(list(zip(coords[::2], coords[1::2])))
    c_star = cstar_enumeration(region, rw).c_star
    for C in (c_star, 0.99 * c_star):
        assert solve_pareto(region, rw, C).p_star.validate(rw.m, region.x_hi) == []


# -- the target-independent geometry, reused across a C* search ---------------


def _families(rng):
    """Seeded hulls, boxes, 64-gon ellipses, point regions and segment regions
    (a vertical one among them)."""
    out = [random_region(rng) for _ in range(6)]
    out += [box_advice([tuple(rng.uniform(0.0, 30.0, 2)) for _ in range(8)]) for _ in range(4)]
    out += [_ellipse(rng, 64) for _ in range(4)]
    out += [build_polygon([tuple(rng.uniform(0.0, 30.0, 2))]) for _ in range(4)]
    out += [build_polygon([tuple(p) for p in rng.uniform(0.0, 30.0, (2, 2))]) for _ in range(4)]
    out.append(build_polygon([(7.0, 3.0), (7.0, 25.0)]))
    return out


def _published(ctx):
    grid = np.linspace(0.0, ctx.region.x_hi, 41).tolist()
    return (ctx.u.breakpoints, ctx.floor.breakpoints, [l_bound(ctx, x) for x in grid],
            [l_tilde(ctx, x) for x in grid], ctx.x_lo_u, ctx.x_hi_u, ctx.x_h, ctx.x_hi_l,
            ctx.x_minus1)


REWARDS = (Rewards(1.0 / 3.0, 1.0, 20.0), Rewards(0.2, 1.5, 30.0))


@pytest.mark.parametrize("rw, other", [REWARDS, REWARDS[::-1]])
def test_reused_geometry_gives_the_fresh_context(rw, other, monkeypatch):
    """After a C* search on a region, its contexts (under the search's
    rewards, then under other rewards) equal those built on fresh copies of
    the region, each of which builds its geometry anew."""
    calls = []
    real = bounds.key_points
    monkeypatch.setattr(bounds, "key_points", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(2023)
    for region in _families(rng):
        del calls[:]
        c_star = cstar_bisection(region, rw).c_star
        targets = (rho(rw), float(rng.uniform(0.5, 1.0)), c_star, 1.0)
        warm = [_published(bound_context(region, rw, C)) for C in targets]
        assert len(calls) == 1
        warm += [_published(bound_context(region, other, C)) for C in targets]
        fresh = [_published(bound_context(replace(region), r, C))
                 for r in (rw, other) for C in targets]
        assert warm == fresh


def test_key_points_once_per_search_and_solve(rw, monkeypatch):
    calls = []
    real = bounds.key_points
    monkeypatch.setattr(bounds, "key_points", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(8)
    region = _ellipse(rng, 64)
    c_star = cstar_bisection(region, rw).c_star
    solve_pareto(region, rw, 0.9 * c_star)
    assert len(calls) == 1
    cstar_enumeration(random_region(rng), rw)
    assert len(calls) == 2


def test_published_curves_built_only_on_demand(rw, monkeypatch):
    calls = []
    real = bounds._lower_thresholds
    monkeypatch.setattr(bounds, "_lower_thresholds", lambda *a: calls.append(a) or real(*a))
    region = _ellipse(np.random.default_rng(9), 64)
    res = cstar_bisection(region, rw)
    assert calls == []
    ctx = bound_context(region, rw, res.c_star)
    l_bound(ctx, region.x_lo)
    assert len(calls) == 1
    # the other published curve and thresholds come from the same build
    l_tilde(ctx, region.x_hi)
    assert ctx.x_minus1 <= region.x_hi and ctx.x_hi_l <= region.x_hi
    assert len(calls) == 1


@pytest.mark.parametrize("corpus", ["hulls", "advice", "special"])
def test_published_lower_bounds_match_the_built_curves(corpus):
    """x_hi_l and x_minus1 equal the thresholds of the curves l and l_tilde
    built in full, and l_bound/l_tilde read those curves within 1e-12, at
    every pointwise-bound breakpoint, x_H, both thresholds, x_bar and 97
    even abscissae.

    The one exception is [x_hi_l - 1e-12, x_hi_l), where the built l drops
    pw's breakpoints and interpolates to (x_hi_l, 0).  Where pw reaches 0
    continuously, RATIO_SLACK makes it step down there by about 1e-11, at
    most the 1e-9 below which the scan takes pw for 0, and l_bound reads pw
    itself: 0 after the step, as l_raw does."""
    regions = _corpus(corpus)[:300]
    n_window = 0
    for region in regions:
        for rw in REWARDS:
            c_star = cstar_enumeration(region, rw).c_star
            for C in (c_star, 0.9 * c_star, 0.62):
                ctx = bound_context(region, rw, C)
                x_bar = region.x_hi
                x_hi_l, l, x_minus1, lt = oracle_published_curves(ctx.pw, ctx.x_h, x_bar)
                assert (ctx.x_hi_l, ctx.x_minus1) == (x_hi_l, x_minus1)
                probe = {*ctx.pw.xs, ctx.x_h, x_hi_l, x_minus1, x_bar,
                         *np.linspace(0.0, x_bar, 97).tolist()}
                for x in probe:
                    x = min(max(x, 0.0), x_bar)
                    window = x_hi_l - 1e-12 <= x < x_hi_l
                    n_window += window
                    tol = 1e-9 if window else 1e-12
                    assert abs(l_bound(ctx, x) - max(0.0, l(x))) <= tol, (C, x)
                    assert abs(l_tilde(ctx, x) - max(0.0, lt(x))) <= tol, (C, x)
    if corpus == "hulls":
        assert n_window > 0


# polygons whose upper chain ends lie up to TOL outside the lower chain's
CHAIN_END_POLYGONS = [
    ([(0, 5), (1e-10, 0), (10, 0), (10, 8)], 1.0, 0.6),
    ([(0, 5), (1e-10, 0), (30, 0), (30, 28)], 0.6, 0.5999999999999999),
    ([(2, 30), (2 + 5e-10, 1), (25, 1), (25 - 5e-10, 30)], 0.6346153846153846, 0.595673076923077),
]


def test_each_curve_is_seeded_at_its_own_envelope(rw, diff_region):
    from plpareto.consistency import _OVER, _UNDER, _enum_xs

    regions = [diff_region, _ellipse(np.random.default_rng(12), 64)]
    regions += [build_polygon(pts) for pts, _, _ in CHAIN_END_POLYGONS]
    for region in regions:
        geo = bounds._geometry(region, rw)
        lo, hi = region.x_lo, region.x_hi
        # u: the lower envelope's breakpoints as they are stored
        u_first, u_intervals = geo.u_pieces
        assert u_first[:2] == region.lower.breakpoints[0]
        assert [iv[:2] for iv in u_intervals] == list(region.lower.breakpoints[:-1])
        # pw: the upper envelope's abscissae and x_H, clamped to [x_lo, x_hi]
        l_first, l_intervals = geo.l_pieces
        seeds = [l_first[0]] + [iv[0] for iv in l_intervals[1:]]
        if l_intervals:
            seeds.append(l_intervals[-1][3][-1][0])
        want = sorted({min(max(x, lo), hi) for x in region.upper.xs + (geo.x_h,)})
        assert seeds == [x for i, x in enumerate(want) if i == 0 or x - want[i - 1] > 1e-12]
        ends = [t for first, intervals in (geo.u_pieces, geo.l_pieces)
                for t in [first[0]] + [e[0] for iv in intervals for e in iv[3]]]
        xs = _enum_xs(region, rw)
        assert all(lo <= t <= hi for t in ends + list(xs))
        # each curve's own piece ends tag the abscissa kept for them, the
        # last one at or within 1e-9 below, and nothing else tags one
        kept, tags = list(xs), dict.fromkeys(xs, 0)
        for tag, (first, intervals) in ((_OVER, geo.u_pieces), (_UNDER, geo.l_pieces)):
            for t in [first[0]] + [e[0] for iv in intervals for e in iv[3]]:
                x = kept[bisect.bisect_right(kept, t) - 1]
                assert 0.0 <= t - x <= 1e-9
                tags[x] |= tag
        assert tags == xs


@pytest.mark.parametrize("pts,c_star,r_star", CHAIN_END_POLYGONS)
def test_chain_end_polygons_keep_cstar_and_pareto_robustness(rw, pts, c_star, r_star):
    region = build_polygon(pts)
    got = cstar_enumeration(region, rw).c_star
    assert got == c_star
    assert solve_pareto(region, rw, 0.95 * got).r_star == r_star
