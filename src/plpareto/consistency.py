"""Maximum achievable consistency target and the policy attaining it.

A consistency target C is achievable when some valid protection level fits
inside the band [l_tilde, pointwise upper bound] over the whole advice range;
since l_tilde itself is a valid non-increasing curve, achievability reduces to
a pointwise gap check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import FEAS_SLACK, _geometry, band_gap, bound_context, rho
from .errors import InfeasibleTarget, TargetOutOfRange
from .plfunction import PLFunction
from .ratios import Rewards, balance_levels
from .region import MLRegion, dedup_sorted


@dataclass(frozen=True)
class CStarResult:
    """Outcome of a maximum-consistency computation.  ``candidate_set`` holds
    the distinct balancing candidates in [0, 1], 1.0 among them, descending
    (empty for bisection); ``c_star`` is the smallest whenever it is feasible."""

    c_star: float
    method: str
    witness_x: float
    candidate_set: tuple[float, ...]
    n_checks: int


def _check(region: MLRegion, rw: Rewards, C: float) -> tuple[bool, float]:
    """Feasibility of target C and the witness abscissa of its band gap."""
    gap, witness = band_gap(bound_context(region, rw, C))
    return gap >= -FEAS_SLACK, witness


def feasible(region: MLRegion, rw: Rewards, C: float) -> bool:
    """True when some valid protection level meets consistency target C."""
    return _check(region, rw, C)[0]


def _bisect(region: MLRegion, rw: Rewards, lo: float, hi: float,
            epsilon: float) -> tuple[float, float, int]:
    """Bisect the bracket [lo, hi], lo feasible and hi not, down to width
    ``epsilon`` or to no float left between its ends, so it ends for every
    ``epsilon >= 0``.  Returns (lo, its witness, checks made)."""
    witness, n_checks = None, 0
    while hi - lo > epsilon:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        n_checks += 1
        ok, w = _check(region, rw, mid)
        if ok:
            lo, witness = mid, w
        else:
            hi = mid
    if witness is None:
        witness = band_gap(bound_context(region, rw, lo))[1]
    return lo, witness, n_checks


def cstar_bisection(region: MLRegion, rw: Rewards, epsilon: float = 1e-6) -> CStarResult:
    """Maximum consistency by bisection on [rho, 1]; returns the feasible end."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise TargetOutOfRange(f"epsilon must be finite and positive, got {epsilon}")
    ok, witness = _check(region, rw, 1.0)
    if ok:
        return CStarResult(1.0, "bisect", witness, (), 1)
    c, witness, n_checks = _bisect(region, rw, rho(rw), 1.0, epsilon)
    return CStarResult(c, "bisect", witness, (), 1 + n_checks)


def _enum_xs(region: MLRegion, rw: Rewards) -> list[float]:
    """Abscissae eligible as binding points: the ends of the pieces of both
    bound curves in the region's bound geometry, that is the key-point
    vertices, x_H, x = m and both envelopes' crossings with y = m and
    x + y = m."""
    geo = _geometry(region, rw)
    xs = set()
    for (t0, _, _), intervals in (geo.u_pieces, geo.l_pieces):
        xs.add(t0)
        xs.update(t for _, _, _, ends in intervals for t, _, _ in ends)
    return dedup_sorted(sorted(xs), 1e-9)


# most (under, over) pairs balanced at once: bounds the temporaries of
# _pair_candidates to a few MB whatever the abscissa count
_PAIR_BLOCK = 1 << 16


def _pair_candidates(region: MLRegion, rw: Rewards, xs) -> list[float]:
    """Balancing ratios for admissible (under, over) pairs of abscissae xs,
    in row-major (under, over) order.

    Each pair balances the under ratio at an upper-envelope point against the
    over ratio at a lower-envelope point, shifted by the slope -1 cone when
    the over point lies to the right.  The envelopes are evaluated once per
    abscissa, the cone test is a mask, and ``ratios.balance_levels`` balances
    the admissible pairs in blocks of at most about _PAIR_BLOCK pairs.
    Every abscissa must lie in [x_lo, x_hi], as those of ``_enum_xs`` do.
    """
    x = np.array(xs, dtype=float)
    yu, yl = np.array(region.upper.at(xs)), np.array(region.lower.at(xs))
    rows = max(1, _PAIR_BLOCK // x.size)
    out: list[float] = []
    for r0 in range(0, x.size, rows):
        x1, y1 = x[r0:r0 + rows, None], yu[r0:r0 + rows, None]
        right = x > x1
        ok = np.where(right, ~(y1 - yl < x - x1), ~(y1 < yl))
        i, j = np.nonzero(ok)
        shift = np.where(right[ok], x[j] - x1[i, 0], 0.0)
        _, c, solved = balance_levels(x1[i, 0], y1[i, 0], x[j], yl[j], shift, rw)
        out.extend(c[solved].tolist())
    return out


def cstar_enumeration(region: MLRegion, rw: Rewards) -> CStarResult:
    """Maximum consistency as the smallest balancing candidate.

    Each admissible pair's balancing value caps the consistency of every
    valid policy (the under ratio rises and the over ratio falls with the
    level, and the slope >= -1 cone ties the pair's two levels), so C* is at
    most the smallest candidate in [0, 1] (1.0 among them): when that one is
    feasible it is C*, found in one check.  Otherwise C* lies between rho and
    it, and that bracket is bisected to float resolution: at most about 60
    more checks, since C* >= rho >= 1/2.
    """
    c = np.array([1.0] + _pair_candidates(region, rw, _enum_xs(region, rw)))
    # the range test also drops NaN and the infinities; the distinct values
    # come from a sort and a mask, as np.unique imports numpy.ma (+1.3 MB RSS)
    c = np.sort(np.minimum(c[(c >= 0.0) & (c <= 1.0 + 1e-9)], 1.0))[::-1]
    cands = c[np.append(True, c[1:] != c[:-1])].tolist()
    ok, witness = _check(region, rw, cands[-1])
    if ok:
        return CStarResult(cands[-1], "enum", witness, tuple(cands), 1)
    c_star, witness, n_checks = _bisect(region, rw, rho(rw), cands[-1], 0.0)
    return CStarResult(c_star, "enum", witness, tuple(cands), 1 + n_checks)


def consistent_pl(region: MLRegion, rw: Rewards, C: float) -> PLFunction:
    """Pointwise-smallest valid protection level meeting target C: the exact
    necessary floor, extended as a constant to max(m, x_bar)."""
    ctx = bound_context(region, rw, C)
    gap, _ = band_gap(ctx)
    if gap < -FEAS_SLACK:
        raise InfeasibleTarget(f"consistency target {C} is not achievable")
    bps = [(x, max(0.0, v)) for x, v in ctx.floor.breakpoints]
    end = max(rw.m, region.x_hi)
    if end > bps[-1][0] + 1e-12:
        bps.append((end, bps[-1][1]))
    return PLFunction(tuple(bps))
