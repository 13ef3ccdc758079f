"""Maximum achievable consistency target and the policy attaining it.

A consistency target C is achievable when some valid protection level fits
inside the band [l_tilde, pointwise upper bound] over the whole advice range;
since l_tilde itself is a valid non-increasing curve, achievability reduces to
a pointwise gap check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import FEAS_SLACK, _geometry, band_gap, bound_context, rho
from .errors import InfeasibleTarget, NoSolution, TargetOutOfRange
from .plfunction import PLFunction
from .ratios import Rewards, balance_point, cp_under_raw
from .region import MLRegion, envelope


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
    out: list[float] = []
    for x in sorted(xs):
        if not out or x - out[-1] > 1e-9:
            out.append(x)
    return out


def _pair_candidates(region: MLRegion, rw: Rewards, xs) -> list[float]:
    """Balancing ratios for admissible (under, over) pairs of abscissae xs.

    Each pair balances the under ratio at an upper-envelope point against the
    over ratio at a lower-envelope point, shifted by the slope -1 cone when
    the over point lies to the right.
    """
    cands: list[float] = []
    overs = [(x2, envelope(region, x2, "lower")) for x2 in xs]
    for x1 in xs:
        y1 = envelope(region, x1, "upper")
        under = (x1, y1)
        for x2, y2 in overs:
            if x2 <= x1:
                if y1 < y2:
                    continue
                shift = 0.0
            else:
                if y1 - y2 < x2 - x1:
                    continue
                shift = x2 - x1
            try:
                p_b = balance_point(under, (x2, y2), shift, rw)
            except NoSolution:
                continue
            cands.append(cp_under_raw(p_b, under, rw))
    return cands


def _merge_candidates(cands) -> list[float]:
    dedup: list[float] = []
    for c in sorted(cands, reverse=True):
        if not (math.isfinite(c) and 0.0 <= c <= 1.0 + 1e-9):
            continue
        c = min(c, 1.0)
        if not dedup or dedup[-1] - c > 1e-10:
            dedup.append(c)
    return dedup


def cstar_enumeration(region: MLRegion, rw: Rewards) -> CStarResult:
    """Maximum consistency as the largest feasible balancing candidate.

    Feasibility is monotone in C (the pointwise upper bound u falls and the
    floor rises as C grows), so the descending candidates are an infeasible
    prefix and then a feasible suffix, and a binary search finds the first
    feasible one in at most ceil(log2 n) + 1 checks.  1.0 is always the
    first candidate.  If the first feasible one is below it and not tight
    (its minimum band gap stays positive), C* lies between it and the
    candidate above; if none is feasible, between rho and the smallest
    candidate.  That bracket is bisected to float resolution: at most about
    60 more checks, since C* >= rho >= 1/2.
    """
    xs = _enum_xs(region, rw)
    cands = _merge_candidates([1.0] + _pair_candidates(region, rw, xs))
    lo, hi, n_checks, hit = 0, len(cands), 0, None  # first feasible index in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        n_checks += 1
        gap, witness = band_gap(bound_context(region, rw, cands[mid]))
        if gap >= -FEAS_SLACK:
            hi, hit = mid, (gap, witness)
        else:
            lo = mid + 1
    if hit is None:
        c, witness, n_checks = _bisect(region, rw, rho(rw), cands[-1], 0.0, n_checks, None)
    elif hi > 0 and hit[0] > 1e-9:
        c, witness, n_checks = _bisect(region, rw, cands[hi], cands[hi - 1], 0.0, n_checks, hit[1])
    else:
        c, witness = cands[hi], hit[1]
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
