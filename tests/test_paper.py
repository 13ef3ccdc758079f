"""The source paper's above-the-line case as a test.

For a region above the line x + y = m, the paper's excerpt (PAPER.md) takes
the fixed protection level b with CP_u(b; H) = CP_o(b; L) and states that L
and H are its worst points, so that its consistency is CP_u(b; H).  Here b
comes from ``balance_levels`` on the one pair (H, L) with shift 0.
"""

import numpy as np
import pytest

from plpareto import Rewards, build_polygon, constant_pl, cstar_enumeration, key_points
from plpareto.engine import replay_ratios
from plpareto.ratios import balance_levels

REWARDS = [Rewards(1.0 / 3.0, 1.0, 20.0), Rewards(0.5, 1.0, 20.0)]


def _fixed_level(region, rw):
    """b and its under ratio at H, CP_u(b; H)."""
    kp = key_points(region, rw.m)
    p, under, solved = balance_levels(*kp.H, *kp.L, 0.0, rw)
    assert solved
    return float(p), float(under)


def _worst_replayed_ratio(region, rw, level):
    """The smallest ratio of the constant policy ``level`` over ordered
    arrivals (all low demand, then all high) at every vertex, at 400
    abscissae on both envelopes and on a 50 x 25 grid inside, replayed by
    the engine in one batch."""
    xs = np.union1d(np.linspace(region.x_lo, region.x_hi, 400), [v[0] for v in region.vertices])
    lower, upper = region.lower.values(xs), region.upper.values(xs)
    inner = np.linspace(0.0, 1.0, 25)[:, None] * (upper - lower)[::8] + lower[::8]
    x = np.concatenate([xs, xs, np.broadcast_to(xs[::8], inner.shape).ravel()])
    y = np.concatenate([lower, upper, inner.ravel()])
    sizes, is_low = np.array([x, y]), np.array([np.ones(x.size, bool), np.zeros(x.size, bool)])
    return float(replay_ratios(constant_pl(level, max(rw.m, region.x_hi)), rw, sizes, is_low).min())


def _above_the_line(rng, rw, n, draw):
    out = []
    while len(out) < n:
        region = draw(rng)
        if region is not None and min(x + y for x, y in region.vertices) >= rw.m:
            out.append(region)
    return out


def _box(rng):
    (x, y), (w, h) = rng.uniform(0.0, 30.0, 2), rng.uniform(0.5, 10.0, 2)
    return build_polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)])


def _hull(rng):
    pts = rng.uniform(0.0, 30.0, (int(rng.integers(5, 13)), 2))
    pts = pts[pts.sum(axis=1) >= 20.0]
    return build_polygon([tuple(p) for p in pts]) if len(pts) >= 3 else None


@pytest.mark.parametrize("rw", REWARDS)
def test_cstar_of_a_box_above_the_line_is_the_fixed_level_ratio(rw):
    """On 300 boxes above x + y = m, C* equals CP_u(b; H) to the bit, and
    the engine's replay of b over the box finds no worse ratio than that."""
    for region in _above_the_line(np.random.default_rng(23), rw, 300, _box):
        b, ratio = _fixed_level(region, rw)
        assert cstar_enumeration(region, rw).c_star == ratio
        assert abs(_worst_replayed_ratio(region, rw, b) - ratio) <= 1e-12


@pytest.mark.parametrize("rw", REWARDS)
def test_cstar_of_a_hull_above_the_line_is_at_least_the_fixed_level_ratio(rw):
    """On 100 hulls above x + y = m, C* is at least the worst replayed ratio
    of the constant policy b, up to rounding, since the constant policy is
    valid, and on some hulls it is higher by more than 0.1.  CP_u(b; H) is
    not a bound here: on a hull the worst point of b need not be H."""
    gains = []
    for region in _above_the_line(np.random.default_rng(23), rw, 100, _hull):
        b, _ = _fixed_level(region, rw)
        gains.append(cstar_enumeration(region, rw).c_star - _worst_replayed_ratio(region, rw, b))
    assert min(gains) >= -1e-15 and max(gains) > 0.1
