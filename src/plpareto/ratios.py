"""Compatible-ratio arithmetic for ordered demand instances.

For the ordered instance "x units of low-reward demand followed by y units of
high-reward demand", a fixed protection level p earns a known fraction of the
hindsight-optimal reward.  Two closed forms cover the over-protection branch
(p at or above the realized high demand) and the under-protection branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchMismatch, NoSolution

BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class Rewards:
    """Per-unit rewards and resource capacity."""

    r_low: float
    r_high: float
    m: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.r_low, self.r_high, self.m)):
            raise ValueError("rewards and capacity must be finite")
        if not 0 < self.r_low < self.r_high:
            raise ValueError("need 0 < r_low < r_high")
        if self.m <= 0:
            raise ValueError("capacity must be positive")


@dataclass(frozen=True)
class DemandPoint:
    """Total low-reward (x) and high-reward (y) demand of an instance."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("demand must be finite")
        if self.x < 0 or self.y < 0:
            raise ValueError("demand must be nonnegative")


def _as_point(pt) -> tuple[float, float]:
    if isinstance(pt, DemandPoint):
        return pt.x, pt.y
    x, y = float(pt[0]), float(pt[1])
    # a negative tuple coordinate is let through: envelope interpolation can
    # round a zero height to about -1e-15
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"demand must be finite, got ({x}, {y})")
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
    x, y = _as_point(pt)
    m = rw.m
    denom = _denominator(x, y, rw)
    if denom <= 0.0:
        return 1.0
    num = min(y, m) * rw.r_high + min(x, max(m - p, 0.0)) * rw.r_low
    return num / denom


def cp_under_raw(p: float, pt, rw: Rewards) -> float:
    """Under-protection reward ratio without branch checks; 1 on empty instances."""
    x, y = _as_point(pt)
    m = rw.m
    denom = _denominator(x, y, rw)
    if denom <= 0.0:
        return 1.0
    num = max(p, min(y, max(m - x, 0.0))) * rw.r_high + min(x, m - p) * rw.r_low
    return num / denom


def _check_p(p: float, rw: Rewards) -> None:
    if not -BRANCH_TOL <= p <= rw.m + BRANCH_TOL:
        raise ValueError(f"protection level {p} outside [0, {rw.m}]")


def cp_over(p: float, pt, rw: Rewards) -> float:
    """Ratio when the protection level sits at or above the realized high demand."""
    _check_p(p, rw)
    _, y = _as_point(pt)
    if p < min(rw.m, y) - BRANCH_TOL:
        raise BranchMismatch(f"p={p} under-protects y={y}")
    return cp_over_raw(p, pt, rw)


def cp_under(p: float, pt, rw: Rewards) -> float:
    """Ratio when the protection level sits strictly below the realized high demand."""
    _check_p(p, rw)
    _, y = _as_point(pt)
    if p >= min(rw.m, y) - BRANCH_TOL:
        raise BranchMismatch(f"p={p} over-protects y={y}")
    return cp_under_raw(p, pt, rw)


def cp(p: float, pt, rw: Rewards) -> float:
    """Branch dispatch: over-protection at and above min(m, y), else under."""
    _check_p(p, rw)
    _, y = _as_point(pt)
    if p >= min(rw.m, y) - BRANCH_TOL:
        return cp_over_raw(p, pt, rw)
    return cp_under_raw(p, pt, rw)


def balance_point(under_pt, over_pt, shift: float, rw: Rewards) -> float:
    """Protection level p equalizing the under ratio at ``under_pt`` with the
    over ratio at ``over_pt`` evaluated at p - shift.

    The difference is non-decreasing and piecewise linear in p; inside the
    interval (p <= y_u) its only kinks are m - x_u and m - x_o + shift, so the
    root is the linear root of the piece where it changes sign.  Raises
    NoSolution when the interval is empty or the difference never changes sign.
    ``consistency._balance_ratios`` runs these steps on arrays of pairs, and
    this scalar form is its test oracle: a change here must be made there too.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    m = rw.m
    x_u, y_u = _as_point(under_pt)
    x_o, y_o = _as_point(over_pt)
    lo = max(0.0, min(y_o, m) + shift)
    hi = min(m, y_u)
    if lo > hi + BRANCH_TOL:
        raise NoSolution("empty balancing interval")
    lo = min(lo, hi)

    def f(p: float) -> float:
        return cp_under_raw(p, under_pt, rw) - cp_over_raw(p - shift, over_pt, rw)

    flo, fhi = f(lo), f(hi)
    if flo > 1e-9 or fhi < -1e-9:
        raise NoSolution("balancing difference does not change sign")
    if flo >= 0.0:
        return lo
    if fhi <= 0.0:
        return hi
    for t in sorted((m - x_u, m - x_o + shift)):
        if lo < t < hi:
            ft = f(t)
            if ft >= 0.0:
                hi, fhi = t, ft
                break
            lo, flo = t, ft
    return lo - flo * (hi - lo) / (fhi - flo)
