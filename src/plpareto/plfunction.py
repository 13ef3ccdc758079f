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

from .errors import OutOfDomain

SLOPE_TOL = 1e-9


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
            raise ValueError("need at least one breakpoint")
        xs, ps = zip(*self.breakpoints)
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ps))):
            raise ValueError("breakpoints must be finite")
        if any(b - a < -SLOPE_TOL for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be sorted by x")
        object.__setattr__(self, "xs", xs)

    def __call__(self, x: float) -> float:
        bps = self.breakpoints
        if x <= bps[0][0]:
            return bps[0][1]
        if x >= bps[-1][0]:
            return bps[-1][1]
        i = bisect_right(self.xs, x)
        if i == len(bps):  # only NaN passes both end tests and bisects past the end
            raise OutOfDomain(f"x={x} is not a number")
        (x1, p1), (x2, p2) = bps[i - 1], bps[i]
        if x2 == x1:
            return p2
        return p1 + (x - x1) * (p2 - p1) / (x2 - x1)

    def values(self, x: np.ndarray) -> np.ndarray:
        """``__call__`` at every element of ``x``, with the same formula and
        rounding (``np.interp`` rounds differently)."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise OutOfDomain("x contains NaN")
        bx = np.array(self.xs)
        bp = np.array([b[1] for b in self.breakpoints])
        if len(bx) == 1:
            return np.full(x.shape, bp[0])
        dx, dp = bx[1:] - bx[:-1], bp[1:] - bp[:-1]
        if np.any(dx < 0):
            # bisect on the tolerated sub-SLOPE_TOL inversions has no
            # searchsorted equivalent
            return np.array([self(v) for v in x.ravel().tolist()]).reshape(x.shape)
        k = np.searchsorted(bx, x, side="right") - 1  # segment [x1, x2] = bx[k:k+2]
        np.clip(k, 0, len(dx) - 1, out=k)
        out = x - bx[k]
        out *= dp[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            out /= dx[k]
        out += bp[k]
        if not dx.all():
            np.copyto(out, bp[1:][k], where=dx[k] == 0.0)
        np.copyto(out, bp[-1], where=x >= bx[-1])
        np.copyto(out, bp[0], where=x <= bx[0])
        return out

    def validate(self, m: float, x_bar: float | None = None) -> list[str]:
        """Return human-readable violations of the validity conditions.

        ``x_bar`` widens the region where a nonzero slope is allowed; when
        omitted only the capacity m bounds the sloped part.
        """
        cut = max(m, x_bar) if x_bar is not None else m
        out: list[str] = []
        for x, p in self.breakpoints:
            if p < -SLOPE_TOL or p > m + SLOPE_TOL:
                out.append(f"RangeViolation: p({x}) = {p} outside [0, {m}]")
        for (x1, p1), (x2, p2) in zip(self.breakpoints, self.breakpoints[1:]):
            if x2 - x1 <= SLOPE_TOL:
                if abs(p2 - p1) > SLOPE_TOL:
                    out.append(f"SlopeViolation: jump at x = {x1}")
                continue
            slope = (p2 - p1) / (x2 - x1)
            if slope > SLOPE_TOL:
                out.append(f"IncreaseViolation: slope {slope:.6g} on [{x1}, {x2}]")
            elif slope < -1.0 - SLOPE_TOL:
                out.append(f"SlopeViolation: slope {slope:.6g} < -1 on [{x1}, {x2}]")
            if x1 >= cut - SLOPE_TOL and abs(slope) > SLOPE_TOL:
                out.append(f"TailViolation: non-constant beyond x = {cut}")
        return out


def constant_pl(level: float, x_end: float) -> PLFunction:
    """Constant protection level on [0, x_end]."""
    return PLFunction(((0.0, level), (x_end, level)))
