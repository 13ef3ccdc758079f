"""Piecewise-linear protection-level functions.

A valid protection level is continuous, non-increasing with slope >= -1,
takes values in [0, m], and is constant at and beyond max(m, x_bar) where
x_bar is the largest low-demand abscissa the advice admits.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, OutOfDomain

# the rounding a built curve may carry: levels, slopes and breakpoint order up
# to SLOPE_TOL off; a segment narrower than SLOPE_TOL is judged by its jump
SLOPE_TOL = 1e-9
# values looks segments up by comparisons, masked passes per segment, up to this many
# breakpoints: on 10^4 x that halves searchsorted's time on box policies, whose x lie
# on one segment, but is about 3x slower on x spread over 2 segments (scripts/time_values_lookup.py)
_COMPARE_BPS = 3


@dataclass(frozen=True)
class PLFunction:
    """Continuous piecewise-linear curve; constant beyond its breakpoint span.

    The one piecewise-linear type of the package: protection levels, region
    envelopes and bound curves.  ``xs`` holds the breakpoint abscissae, built
    once, for the interpolation in ``__call__`` and ``values``.
    """

    breakpoints: tuple[tuple[float, float], ...]
    xs: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.breakpoints:
            raise InvalidInput("need at least one breakpoint")
        xs, ps = zip(*self.breakpoints)
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ps))):
            raise InvalidInput("breakpoints must be finite")
        if any(b - a < -SLOPE_TOL for a, b in zip(xs, xs[1:])):
            raise InvalidInput("breakpoints must be sorted by x")
        object.__setattr__(self, "xs", xs)

    def __call__(self, x: float) -> float:
        return self.at((x,))[0]

    def at(self, xs) -> list[float]:
        """The curve at each x of ``xs``, in one call for many points."""
        bps, fx, n = self.breakpoints, self.xs, len(self.xs)
        (x_first, p_first), (x_last, p_last) = bps[0], bps[-1]
        out = []
        for x in xs:
            if x <= x_first:
                out.append(p_first)
            elif x >= x_last:
                out.append(p_last)
            else:
                i = bisect_right(fx, x)
                if i == n:  # only NaN passes both end tests and bisects past the end
                    raise OutOfDomain(f"x={x} is not a number")
                (x1, p1), (x2, p2) = bps[i - 1], bps[i]
                out.append(p2 if x2 == x1 else p1 + (x - x1) * (p2 - p1) / (x2 - x1))
        return out

    def values(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``at`` of every element of the array ``x``, with the same formula
        and rounding (``np.interp`` rounds differently); into ``out``, even ``x``, if given."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise OutOfDomain("x contains NaN")
        out = np.empty(x.shape) if out is None else out
        bx = np.array(self.xs)
        bp = np.array([b[1] for b in self.breakpoints])
        dx, dp = bx[1:] - bx[:-1], bp[1:] - bp[:-1]
        if np.any(dx < 0):
            # bisect on the tolerated sub-SLOPE_TOL inversions has no array equivalent
            out[...] = np.reshape(self.at(x.ravel().tolist()), x.shape)
            return out
        right, left = x >= bx[-1], x <= bx[0]
        if len(bx) <= _COMPARE_BPS:
            # segment [x1, x2] = bx[k:k+2], k the count of interior breakpoints up
            # to x; each is written on its own cells, with no float temporaries
            k = np.zeros(x.shape, np.uint8)
            for b in bx[1:-1]:
                np.add(k, x >= b, out=k)
            for i in np.flatnonzero(dx).tolist():
                on = k == i
                np.subtract(x, bx[i], out=out, where=on)
                np.multiply(out, dp[i], out=out, where=on)
                np.divide(out, dx[i], out=out, where=on)
                np.add(out, bp[i], out=out, where=on)
        else:
            k = np.searchsorted(bx, x, side="right") - 1
            np.clip(k, 0, len(dx) - 1, out=k)
            np.subtract(x, bx.take(k), out=out)
            out *= dp.take(k)
            with np.errstate(divide="ignore", invalid="ignore"):
                out /= dx.take(k)
            out += bp.take(k)
        # an x on a zero-width segment is at or beyond an end, set here
        np.copyto(out, bp[-1], where=right)
        np.copyto(out, bp[0], where=left)
        return out

    def validate(self, m: float, x_bar: float | None = None) -> list[str]:
        """Return human-readable violations of the validity conditions.

        ``x_bar`` widens the region where a nonzero slope is allowed; when
        omitted only the capacity m bounds the sloped part.  InvalidInput when
        m is not positive and finite, or x_bar not nonnegative and finite.
        """
        if not 0.0 < m < math.inf:
            raise InvalidInput(f"capacity m must be positive and finite, got {m}")
        if x_bar is not None and not 0.0 <= x_bar < math.inf:
            raise InvalidInput(f"x_bar must be nonnegative and finite, got {x_bar}")
        cut = max(m, x_bar) if x_bar is not None else m
        out: list[str] = []
        for x, p in self.breakpoints:
            if p < -SLOPE_TOL or p > m + SLOPE_TOL:
                out.append(f"RangeViolation: p({x}) = {p} outside [0, {m}]")
        for (x1, p1), (x2, p2) in zip(self.breakpoints, self.breakpoints[1:]):
            dx, drop = x2 - x1, p1 - p2
            if dx <= SLOPE_TOL:
                if too_steep(dx, abs(drop)):
                    out.append(f"SlopeViolation: jump at x = {x1}")
                continue
            slope = -drop / dx
            if slope > SLOPE_TOL:
                out.append(f"IncreaseViolation: slope {slope:.6g} on [{x1}, {x2}]")
            elif too_steep(dx, drop):
                out.append(f"SlopeViolation: slope {slope:.6g} < -1 on [{x1}, {x2}]")
            # a sloped segment may not start at the cut or reach past it
            if (x1 >= cut - SLOPE_TOL or x2 > cut + SLOPE_TOL) and abs(slope) > SLOPE_TOL:
                out.append(f"TailViolation: non-constant beyond x = {cut}")
        return out


def too_steep(dx: float, drop: float) -> bool:
    """The slope rule of valid levels up to a built curve's rounding: a fall
    of ``drop`` over a segment ``dx`` wide is steeper than -1 when it drops
    more than SLOPE_TOL on a segment at most SLOPE_TOL wide, else when its
    slope is below -1 - SLOPE_TOL."""
    return drop > SLOPE_TOL if dx <= SLOPE_TOL else drop / dx > 1.0 + SLOPE_TOL


def constant_pl(level: float, x_end: float) -> PLFunction:
    """Constant protection level on [0, x_end]."""
    return PLFunction(((0.0, level), (x_end, level)))
