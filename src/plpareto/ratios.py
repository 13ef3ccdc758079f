"""Compatible-ratio arithmetic for ordered demand instances.

For the ordered instance "x units of low-reward demand followed by y units of
high-reward demand", a fixed protection level p earns a known fraction of the
hindsight-optimal reward.  Two closed forms cover the over-protection branch
(p at or above the realized high demand) and the under-protection branch.
``balance_levels`` solves the balancing equation between an under ratio and
an over ratio for arrays of point pairs; ``balance_point`` is its one-pair
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NoSolution
from .region import TOL

BRANCH_TOL = 1e-12


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
    if not -BRANCH_TOL <= p <= rw.m + BRANCH_TOL:
        raise InvalidInput(f"protection level {p} outside [0, {rw.m}]")
    _, y = _as_point(pt)
    if p >= min(rw.m, y) - BRANCH_TOL:
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
    (xo, yo) evaluated at p - shift, for arrays of pairs; returns p, the
    under ratio at p, and a mask that is False where p means nothing.

    The difference is non-decreasing and piecewise linear in p; on the
    interval [min(yo, m) + shift, min(m, yu)] its only kinks are m - xu and
    m - xo + shift.  A pair is unsolved when the interval is empty or the
    difference does not change sign on it.  Otherwise p is an end, or the
    linear root of the piece where the difference changes sign.
    """
    m, rh, rl = rw.m, rw.r_high, rw.r_low
    # both points' denominators and the parts of their numerators free of p
    den_u, den_o = hindsight_denominators(xu, yu, rw), hindsight_denominators(xo, yo, rw)
    cap_u, top_o = np.minimum(yu, np.maximum(m - xu, 0.0)), np.minimum(yo, m) * rh
    pos_u, pos_o = den_u > 0.0, den_o > 0.0
    safe_u, safe_o = np.where(pos_u, den_u, 1.0), np.where(pos_o, den_o, 1.0)

    def under(p):
        num = np.maximum(p, cap_u) * rh + np.minimum(xu, m - p) * rl
        return np.where(pos_u, num / safe_u, 1.0)

    def over(p):
        num = top_o + np.minimum(xo, np.maximum(m - (p - shift), 0.0)) * rl
        return np.where(pos_o, num / safe_o, 1.0)

    lo = np.maximum(0.0, np.minimum(yo, m) + shift)
    hi = np.minimum(m, yu)
    empty = lo > hi + BRANCH_TOL
    lo = np.minimum(lo, hi)
    under_hi = under(hi)
    flo, fhi = under(lo) - over(lo), under_hi - over(hi)
    unsolved = empty | (flo > 1e-9) | (fhi < -1e-9)
    p = np.where(flo >= 0.0, lo, hi)
    k1, k2 = m - xu, m - xo + shift
    # the over kink can lie within rounding below hi and round onto it; the
    # over ratio of a nearly empty point falls by up to 1 past it, so the
    # last piece ends at the kink's left-hand value, and where that is still
    # not positive the root is hi
    lost = (k2 >= hi) & (m - (hi - shift) < xo)
    left = under_hi - np.where(pos_o, (top_o + xo * rl) / safe_o, 1.0)
    fhi = np.where(lost, left, fhi)
    inner = ~(flo >= 0.0) & ~(fhi <= 0.0)
    # the kinks in ascending order: once one moves hi, the next is not below it
    for t in (np.minimum(k1, k2), np.maximum(k1, k2)):
        ft = under(t) - over(t)
        inside = (lo < t) & (t < hi)
        up, down = inside & (ft >= 0.0), inside & ~(ft >= 0.0)
        hi, fhi = np.where(up, t, hi), np.where(up, ft, fhi)
        lo, flo = np.where(down, t, lo), np.where(down, ft, flo)
    root = lo - flo * (hi - lo) / (fhi - flo)
    p = np.where(inner, root, p)
    return p, under(p), ~unsolved


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
