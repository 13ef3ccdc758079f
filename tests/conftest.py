import numpy as np
import pytest

from plpareto import MLRegion, Rewards, build_polygon
from plpareto.errors import NoSolution
from plpareto.ratios import (BRANCH_TOL, _as_point, cp_over_raw, cp_under_raw,
                             hindsight_denominator)


@pytest.fixture
def rw() -> Rewards:
    return Rewards(1.0 / 3.0, 1.0, 20.0)


@pytest.fixture
def sum_region() -> MLRegion:
    # {4 <= x <= 16, 4 <= y <= 16, 20 <= x + y <= 25}
    return build_polygon([(4, 16), (9, 16), (16, 9), (16, 4)])


@pytest.fixture
def diff_region() -> MLRegion:
    # {4 <= x <= 16, 4 <= y <= 16, 0 <= y - x <= 5}
    return build_polygon([(4, 4), (16, 16), (11, 16), (4, 9)])


def random_region(rng: np.random.Generator, lo: float = 0.0, hi: float = 30.0) -> MLRegion:
    n = int(rng.integers(5, 13))
    pts = rng.uniform(lo, hi, size=(n, 2))
    return build_polygon([tuple(p) for p in pts])


def scalar_balance_point(under_pt, over_pt, shift: float, rw: Rewards) -> float:
    """Oracle: the scalar balancing solver that ``ratios.balance_point`` was
    before it became the one-pair form of ``ratios.balance_levels``, kept
    verbatim but for one rule that both gained since: an over kink that
    rounds onto hi ends the last piece at its left-hand value.

    The difference is non-decreasing and piecewise linear in p; inside the
    interval (p <= y_u) its only kinks are m - x_u and m - x_o + shift, so the
    root is the linear root of the piece where it changes sign.  Raises
    NoSolution when the interval is empty or the difference never changes sign.
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
    if m - x_o + shift >= hi and m - (hi - shift) < x_o:
        # the over kink rounded onto hi: take the over ratio from its left
        den_o = hindsight_denominator(over_pt, rw)
        over = (min(y_o, m) * rw.r_high + x_o * rw.r_low) / den_o if den_o > 0.0 else 1.0
        fhi = cp_under_raw(hi, under_pt, rw) - over
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
