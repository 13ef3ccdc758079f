import numpy as np
import pytest

from plpareto import (
    band_gap,
    bound_context,
    cp_over_raw,
    cp_under_raw,
    envelope,
    g_corridor,
    l_bound,
    l_raw,
    l_tilde,
    no_advice_level,
    policy_floor,
    rho,
    u_bound,
    u_ceiling,
    u_raw,
)
from plpareto.errors import OutOfDomain, TargetOutOfRange
from conftest import random_region


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


def test_g_corridor_rejects_nan_abscissa(rw):
    for side in ("lower", "upper"):
        with pytest.raises(OutOfDomain):
            g_corridor(rw, 0.5, float("nan"), side)
