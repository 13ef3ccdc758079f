"""Compatible-ratio arithmetic for ordered demand instances.

For the ordered instance "x units of low-reward demand followed by y units of
high-reward demand", a fixed protection level p earns a known fraction of the
hindsight-optimal reward.  Two closed forms cover the over-protection branch
(p at or above the realized high demand) and the under-protection branch.
``balance_levels`` solves the balancing equation between an under ratio and
an over ratio for arrays of point pairs, taking both ratios in one stacked
pass over each pair's levels; ``balance_point`` is its one-pair form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoSolution
from .region import TOL

# levels within LEVEL_TIE are one: 0, m, min(m, y), the floor, the ceiling and
# the corridor's edges, equal in exact arithmetic, round a few ulps of m apart
LEVEL_TIE = 1e-12


@dataclass(frozen=True)
class Rewards:
    """Per-unit rewards and resource capacity."""

    r_low: float
    r_high: float
    m: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.r_low, self.r_high, self.m)):
            raise InvalidInput("rewards and capacity must be finite")
        if not 0 < self.r_low < self.r_high:
            raise InvalidInput("need 0 < r_low < r_high")
        if self.m <= 0:
            raise InvalidInput("capacity must be positive")


@dataclass(frozen=True)
class DemandPoint:
    """Total low-reward (x) and high-reward (y) demand of an instance."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInput("demand must be finite")
        if self.x < 0 or self.y < 0:
            raise InvalidInput("demand must be nonnegative")


def _as_point(pt) -> tuple[float, float]:
    if isinstance(pt, DemandPoint):
        return pt.x, pt.y
    x, y = float(pt[0]), float(pt[1])
    # a tuple coordinate in [-TOL, 0) is let through: envelope interpolation
    # can round a zero height to about -1e-15
    if not (math.isfinite(x) and math.isfinite(y) and x >= -TOL and y >= -TOL):
        raise InvalidInput(f"demand must be finite and at least {-TOL}, got ({x}, {y})")
    return x, y


def _denominator(x: float, y: float, rw: Rewards) -> float:
    """``hindsight_denominator`` of an already validated point (x, y)."""
    m = rw.m
    return min(y, m) * rw.r_high + min(x, max(m - y, 0.0)) * rw.r_low


def hindsight_denominator(pt, rw: Rewards) -> float:
    """Hindsight-optimal reward for the instance (x, y)."""
    return _denominator(*_as_point(pt), rw)


def cp_over_raw(p: float, pt, rw: Rewards) -> float:
    """Over-protection reward ratio without branch checks; 1 on empty instances."""
    if not math.isfinite(p):
        raise InvalidInput(f"protection level must be finite, got {p}")
    x, y = _as_point(pt)
    m = rw.m
    denom = _denominator(x, y, rw)
    if denom <= 0.0:
        return 1.0
    num = min(y, m) * rw.r_high + min(x, max(m - p, 0.0)) * rw.r_low
    return num / denom


def cp_under_raw(p: float, pt, rw: Rewards) -> float:
    """Under-protection reward ratio without branch checks; 1 on empty instances."""
    if not math.isfinite(p):
        raise InvalidInput(f"protection level must be finite, got {p}")
    x, y = _as_point(pt)
    m = rw.m
    denom = _denominator(x, y, rw)
    if denom <= 0.0:
        return 1.0
    num = max(p, min(y, max(m - x, 0.0))) * rw.r_high + min(x, m - p) * rw.r_low
    return num / denom


def cp(p: float, pt, rw: Rewards) -> float:
    """Branch dispatch: over-protection at and above min(m, y), else under."""
    if not -LEVEL_TIE <= p <= rw.m + LEVEL_TIE:
        raise InvalidInput(f"protection level {p} outside [0, {rw.m}]")
    _, y = _as_point(pt)
    if p >= min(rw.m, y) - LEVEL_TIE:
        return cp_over_raw(p, pt, rw)
    return cp_under_raw(p, pt, rw)


def hindsight_denominators(x, y, rw: Rewards):
    """``hindsight_denominator`` of the instances (x, y), elementwise."""
    m = rw.m
    return np.minimum(y, m) * rw.r_high + np.minimum(x, np.maximum(m - y, 0.0)) * rw.r_low


# float arithmetic as in Python: a tiny denominator overflows to inf silently
@np.errstate(all="ignore")
def balance_levels(xu, yu, xo, yo, shift, rw: Rewards):
    """Level p equalizing the under ratio at (xu, yu) with the over ratio at
    (xo, yo) evaluated at p - shift, for arrays of pairs of one shape;
    returns p, the under ratio at p, and a mask that is False where p means
    nothing.

    The difference is non-decreasing and piecewise linear in p; on the
    interval [min(yo, m) + shift, min(m, yu)] its only kinks are m - xu and
    m - xo + shift.  A pair is unsolved when the interval is empty.  Else the
    difference is at most 0 at the left end (the over ratio is 1) and at
    least 0 at the right (the under ratio is 1), up to rounding: p is an end
    or the linear root of the piece where it changes sign.  Both ratios are
    taken in one pass over a (5, n) stack of levels: the ends, the kinks
    ascending, and -inf, where the over ratio is on its left plateau.
    """
    m, rh, rl = rw.m, rw.r_high, rw.r_low
    # both points' denominators in one pass: row 0 under, row 1 over
    den = hindsight_denominators(np.array((xu, xo), dtype=float), np.array((yu, yo), dtype=float), rw)
    pos = den > 0.0
    hi, cap_o, k1, k2 = np.minimum(yu, m), np.minimum(yo, m), m - xu, m - xo + shift
    cap_u, top_o, bottom = np.minimum(yu, np.maximum(k1, 0.0)), cap_o * rh, np.maximum(0.0, cap_o + shift)

    # the ratios are built in place (under writes over its levels q): with few
    # (5, n) arrays alive, a 64-gon's thousand pairs reuse the heap, not grow it
    def under(q):
        rest = np.minimum(xu, m - q) * rl
        np.multiply(np.maximum(q, cap_u, out=q), rh, out=q)
        q += rest
        q /= den[0]
        return np.where(pos[0], q, 1.0)

    lo, t1, t2 = np.minimum(bottom, hi), np.minimum(k1, k2), np.maximum(k1, k2)
    levels = np.array((lo, hi, t1, t2, np.full_like(lo, -np.inf)))
    over = m - (levels - shift)  # capacity left to low demand at the over level p - shift
    lost = (k2 >= hi) & (over[1] < xo)
    np.multiply(np.minimum(xo, np.maximum(over, 0.0, out=over), out=over), rl, out=over)
    over += top_o
    over /= den[1]
    over = np.where(pos[1], over, 1.0)
    gaps = under(levels[:4])
    left = gaps[1] - over[4]
    gaps -= over[:4]
    flo, fhi, start = gaps[0], gaps[1], gaps[0] >= 0.0
    solved = ~(bottom > hi + LEVEL_TIE)
    p = np.where(start, lo, hi)
    # the over kink can lie within rounding below hi and round onto it; the
    # over ratio of a nearly empty point falls by up to 1 past it, so the
    # last piece ends at the kink's left-hand value (the plateau's, at -inf),
    # and where that is still not positive the root is hi
    fhi = np.where(lost, left, fhi)
    inner = ~(start | (fhi <= 0.0))
    # the kinks in ascending order: once one moves hi, the next is not below it
    for t, ft in zip((t1, t2), gaps[2:4]):
        inside = (lo < t) & (t < hi)
        up = inside & (ft >= 0.0)
        down = inside ^ up
        hi, fhi = np.where(up, t, hi), np.where(up, ft, fhi)
        lo, flo = np.where(down, t, lo), np.where(down, ft, flo)
    root = lo - flo * (hi - lo) / (fhi - flo)
    p = np.where(inner, root, p)
    return p, under(p.copy()), solved


def balance_point(under_pt, over_pt, shift: float, rw: Rewards) -> float:
    """Protection level p equalizing the under ratio at ``under_pt`` with the
    over ratio at ``over_pt`` evaluated at p - shift: ``balance_levels`` of
    one pair.  Raises NoSolution where that pair is unsolved."""
    if not shift >= 0.0:
        raise InvalidInput(f"shift must be nonnegative, got {shift}")
    p, _, solved = balance_levels(*_as_point(under_pt), *_as_point(over_pt), shift, rw)
    if not solved:
        raise NoSolution("the balancing difference has no root on its interval")
    return float(p)
