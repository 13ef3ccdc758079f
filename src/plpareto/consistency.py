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
from .errors import EmptyCandidateSet, InfeasibleTarget, NoSolution, TargetOutOfRange
from .plfunction import PLFunction
from .ratios import Rewards, balance_point, cp_under_raw
from .region import MLRegion, envelope, kp_x_vertices


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


def cstar_bisection(region: MLRegion, rw: Rewards, epsilon: float = 1e-6) -> CStarResult:
    """Maximum consistency by bisection on [rho, 1]; returns the feasible end.

    The loop stops once the bracket is ``epsilon`` wide or has no float left
    between its ends, so it ends for every finite ``epsilon > 0``.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise TargetOutOfRange(f"epsilon must be finite and positive, got {epsilon}")
    lo = rho(rw)
    n_checks = 1
    ok, witness = _check(region, rw, 1.0)
    if ok:
        return CStarResult(1.0, "bisect", witness, (), n_checks)
    hi = 1.0
    witness = None  # the witness at lo, once a midpoint was feasible
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
    return CStarResult(lo, "bisect", witness, (), n_checks)


def _chain_crossings(chain, level: float, diagonal: bool) -> list[float]:
    """Abscissae where a piecewise-linear chain crosses y = level
    (or x + y = level when ``diagonal``)."""
    out: list[float] = []

    def g(p):
        return (p[0] + p[1] if diagonal else p[1]) - level

    for p1, p2 in zip(chain, chain[1:]):
        f1, f2 = g(p1), g(p2)
        if f1 == 0.0:
            out.append(p1[0])
        if f1 * f2 < 0:
            t = f1 / (f1 - f2)
            out.append(p1[0] + t * (p2[0] - p1[0]))
    if chain and g(chain[-1]) == 0.0:
        out.append(chain[-1][0])
    return out


def _enum_xs(region: MLRegion, rw: Rewards) -> list[float]:
    """Abscissae eligible as binding points: polygon vertices, lower-envelope
    crossings with x + y = m, both envelopes' crossings with y = m and
    x + y = m, and x = m.  The key points come from the region's memoised
    bound geometry."""
    m = rw.m
    xs = set(kp_x_vertices(region, _geometry(region, rw).kp))
    for chain in (region.lower.breakpoints, region.upper.breakpoints):
        xs.update(_chain_crossings(chain, m, diagonal=False))
        xs.update(_chain_crossings(chain, m, diagonal=True))
    if region.x_lo < m < region.x_hi:
        xs.add(m)
    out: list[float] = []
    for x in sorted(xs):
        if region.x_lo - 1e-9 <= x <= region.x_hi + 1e-9:
            x = min(max(x, region.x_lo), region.x_hi)
            if not out or x - out[-1] > 1e-9:
                out.append(x)
    return out


def _pair_candidates(region: MLRegion, rw: Rewards, xs1, xs2) -> list[float]:
    """Balancing ratios for admissible (under, over) abscissa pairs.

    Each pair balances the under ratio at an upper-envelope point against the
    over ratio at a lower-envelope point, shifted by the slope -1 cone when
    the over point lies to the right.
    """
    cands: list[float] = []
    overs = [(x2, envelope(region, x2, "lower")) for x2 in xs2]
    for x1 in xs1:
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
    feasible one in at most ceil(log2 n) + 1 checks.  If it is not tight (its
    minimum band gap stays positive), a short internal bisection locates the
    binding abscissa and pairs involving it are balanced as well.
    """
    xs = _enum_xs(region, rw)
    cands = _merge_candidates([1.0] + _pair_candidates(region, rw, xs, xs))
    if not cands:
        raise EmptyCandidateSet("no balancing candidates found")

    n_checks = 0

    def best_feasible(cs):
        nonlocal n_checks
        lo, hi, hit = 0, len(cs), None  # the first feasible index is in [lo, hi]
        while lo < hi:
            mid = (lo + hi) // 2
            n_checks += 1
            gap, witness = band_gap(bound_context(region, rw, cs[mid]))
            if gap >= -FEAS_SLACK:
                hi, hit = mid, (cs[mid], gap, witness)
            else:
                lo = mid + 1
        return hit

    for rounds_left in range(6, -1, -1):
        hit = best_feasible(cands)
        if hit is None:
            raise EmptyCandidateSet("no balancing candidate was feasible")
        c0, gap0, witness = hit
        above = [c for c in cands if c > c0 + 1e-12]
        if not rounds_left or c0 >= 1.0 - 1e-12 or not above or gap0 <= 1e-9:
            return CStarResult(c0, "enum", witness, tuple(cands), n_checks)
        # candidate not tight: localize the binding abscissa between c0 and
        # the smallest infeasible candidate, then balance pairs through it
        lo, hi, w = c0, min(above), witness
        for _ in range(50):
            if hi - lo <= 1e-11:
                break
            mid = 0.5 * (lo + hi)
            n_checks += 1
            gap, w = band_gap(bound_context(region, rw, mid))
            if gap >= -FEAS_SLACK:
                lo = mid
            else:
                hi = mid
        new_xs = [min(max(w, region.x_lo), region.x_hi)]
        fresh = _pair_candidates(region, rw, new_xs, xs + new_xs)
        fresh += _pair_candidates(region, rw, xs, new_xs)
        merged = _merge_candidates(cands + fresh)
        if len(merged) == len(cands):
            return CStarResult(c0, "enum", witness, tuple(cands), n_checks)
        cands = merged


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
