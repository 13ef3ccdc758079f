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
from .region import MLRegion, dedup_sorted, envelope


@dataclass(frozen=True)
class CStarResult:
    """Outcome of a maximum-consistency computation."""

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


def _bisect(region: MLRegion, rw: Rewards, lo: float, hi: float, epsilon: float,
            n_checks: int, witness: float | None) -> tuple[float, float, int]:
    """Bisect the bracket [lo, hi], lo feasible and hi not, down to width
    ``epsilon`` or to no float left between its ends, so it ends for every
    ``epsilon >= 0``.  ``witness`` belongs to lo, or is None to compute it
    when no midpoint is feasible.  Returns (lo, its witness, n_checks)."""
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
    c, witness, n_checks = _bisect(region, rw, rho(rw), 1.0, epsilon, 1, None)
    return CStarResult(c, "bisect", witness, (), n_checks)


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
    """
    x = np.array(xs, dtype=float)
    yu = np.array([envelope(region, v, "upper") for v in xs])
    yl = np.array([envelope(region, v, "lower") for v in xs])
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


def _merge_candidates(cands) -> list[float]:
    """The candidates in [0, 1 + 1e-9], descending, those above 1.0 taken as
    1.0, without near-duplicates: going down, a candidate is kept only when
    it lies more than 1e-10 below the last one kept.  The range test also
    drops NaN and the infinities."""
    c = np.asarray(cands, dtype=float)
    c = np.sort(c[(c >= 0.0) & (c <= 1.0 + 1e-9)])
    return dedup_sorted(np.minimum(c[::-1], 1.0).tolist(), 1e-10, descending=True)


def cstar_enumeration(region: MLRegion, rw: Rewards) -> CStarResult:
    """Maximum consistency as the largest feasible balancing candidate.

    Each admissible pair's balancing value caps the consistency of every
    valid policy (the under ratio rises and the over ratio falls with the
    level, and the slope >= -1 cone ties the pair's two levels), so C* is at
    most the smallest candidate: when that one is feasible and tight (its
    minimum band gap within 1e-9 of 0) it is C*, found in one check.  If it
    is infeasible, C* lies between rho and it.  If it is feasible but not
    tight, which the cap rules out up to rounding, the descending candidates
    are searched: feasibility is monotone in C, so they are an infeasible
    prefix and a feasible suffix, and a binary search finds the first
    feasible one; when it is below 1.0 and not tight, C* lies between it and
    the candidate above.  A bracket is bisected to float resolution:
    at most about 60 more checks, since C* >= rho >= 1/2.
    """
    xs = _enum_xs(region, rw)
    cands = _merge_candidates([1.0] + _pair_candidates(region, rw, xs))
    n_checks, hi = 1, len(cands) - 1
    gap, witness = band_gap(bound_context(region, rw, cands[hi]))
    if gap < -FEAS_SLACK:
        c, witness, n_checks = _bisect(region, rw, rho(rw), cands[hi], 0.0, n_checks, None)
        return CStarResult(c, "enum", witness, tuple(cands), n_checks)
    if gap > 1e-9:
        lo = 0  # the first feasible index lies in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            n_checks += 1
            g, w = band_gap(bound_context(region, rw, cands[mid]))
            if g >= -FEAS_SLACK:
                hi, gap, witness = mid, g, w
            else:
                lo = mid + 1
    if hi > 0 and gap > 1e-9:
        c, witness, n_checks = _bisect(region, rw, cands[hi], cands[hi - 1], 0.0, n_checks, witness)
    else:
        c = cands[hi]
    return CStarResult(c, "enum", witness, tuple(cands), n_checks)


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
