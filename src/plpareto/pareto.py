"""Pareto-optimal protection levels trading consistency against robustness.

Given a feasible consistency target C, the solver picks the protection level
inside the consistency band that stays closest to the no-advice corridor: to
the right of the advice range it aims at the corridor floor, to the left it
follows the tightened lower bound.  The resulting robust ratio is the best
achievable alongside target C.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import BoundContext, no_advice_level, policy_floor, rho, u_ceiling
from .consistency import feasible_context
from .errors import InfeasibleTarget, InternalError
from .plfunction import PLFunction
from .ratios import LEVEL_TIE, Rewards, cp_over_raw, cp_under_raw
from .region import MLRegion


@dataclass(frozen=True)
class ParetoSolution:
    """Optimal policy for one consistency target."""

    C: float
    p_star: PLFunction
    r_star: float
    r_right: float
    r_left: float
    p_right_at_xbar: float


def _right_tail(ctx: BoundContext, p_r: float):
    """Extension of the policy beyond the advice range and its robust ratio.

    Returns (tail breakpoints from x_bar on, r_right).  The worst instances to
    the right are the all-low corner (x_bar, 0) at the start of the tail and
    the all-capacity corner (max(m, x_bar), m) at its end.
    """
    rw, m = ctx.rw, ctx.rw.m
    x_bar = ctx.region.x_hi
    p_end, tail = p_r, []
    if x_bar < m:
        g_lo = no_advice_level(rw)
        g_hi = -rho(rw) * x_bar + m
        if p_r > g_hi + LEVEL_TIE:
            # steeper-than-corridor start: descend along the line -Rx + m
            R = (m - p_r) / x_bar
            p_end = m * (1.0 - R)
        elif p_r >= g_lo:
            # inside the corridor: descend at slope -1 down to the floor
            x_hit = x_bar + (p_r - g_lo)
            if x_hit < m:
                p_end = g_lo
                tail = [(x_hit, g_lo)]
            else:
                p_end = p_r - (m - x_bar)
        tail.append((m, p_end))
    r_right = min(
        cp_over_raw(p_r, (x_bar, 0.0), rw),
        cp_under_raw(p_end, (max(m, x_bar), m), rw),
    )
    return tail, r_right


def _left_part(ctx: BoundContext, p_r: float):
    """Policy on [0, x_bar] (the exact necessary floor, raised to p_r) and the
    worst ratios it admits on that side.

    Returns (breakpoints, r_left, inf_over).  The candidates for the worst
    all-low instance (x, 0) are the breakpoints plus each segment's crossing
    with x + p(x) = m, where the spilled low demand starts binding.
    """
    rw, m = ctx.rw, ctx.rw.m
    x_bar = ctx.region.x_hi

    # the floor does not increase: keep its part above p_r, cut where it meets
    # p_r; a floor point tied with p_r is the cut itself, so the cut never
    # rounds to an ulp beside it (or past it, where v > p_r)
    src = [(x, max(0.0, v)) for x, v in ctx.floor.breakpoints]
    k = next((i for i, (_, v) in enumerate(src) if v <= p_r + LEVEL_TIE), len(src))
    bps = src[:k] or [(0.0, p_r)]
    if 0 < k < len(src):
        (x0, v0), (x, v) = src[k - 1], src[k]
        xc = x if v >= p_r - LEVEL_TIE else x0 + (v0 - p_r) / (v0 - v) * (x - x0)
        if xc > x0:
            bps.append((xc, p_r))
    if bps[-1] != (x_bar, p_r):
        bps.append((x_bar, p_r))

    cand_xs = {x for x, _ in bps if x > 0.0} | {x_bar}
    for (x1, v1), (x2, v2) in zip(bps, bps[1:]):
        if x2 <= x1:
            continue
        s = (v2 - v1) / (x2 - x1)
        if s != -1.0:
            xc = (m - v1 + s * x1) / (1.0 + s)
            if x1 < xc < x2:
                cand_xs.add(xc)
    pl = PLFunction(tuple(bps))
    inf_over = min(cp_over_raw(p, (x, 0.0), rw) for x, p in zip(cand_xs, pl.at(cand_xs)))
    r_under = cp_under_raw(pl(x_bar), (x_bar, m), rw)
    return bps, min(r_under, inf_over), inf_over


def solve_pareto(region: MLRegion, rw: Rewards, C: float) -> ParetoSolution:
    """Best robust ratio and its policy among all valid protection levels
    meeting consistency target C."""
    ctx = feasible_context(region, rw, C)

    x_bar = region.x_hi
    floor = policy_floor(ctx, x_bar)
    ceiling = max(min(u_ceiling(ctx), rw.m), floor)
    p_r = min(max(no_advice_level(rw), floor), ceiling)

    tail, r_right = _right_tail(ctx, p_r)
    left_bps, r_left, inf_over = _left_part(ctx, p_r)

    # the left part ends at (x_bar, p_r) and the tail at max(m, x_bar)
    bps = left_bps + [(x, v) for x, v in tail if x > x_bar]

    r_star = min(r_right, inf_over)
    if not abs(r_star - min(r_right, r_left)) <= 1e-9:  # a fault check: both round the same ratios
        raise InternalError(
            f"r_star={r_star} disagrees with min(r_right={r_right}, r_left={r_left})"
        )
    return ParetoSolution(C, PLFunction(tuple(bps)), r_star, r_right, r_left, p_r)


def tradeoff_curve(region: MLRegion, rw: Rewards, targets) -> list[tuple[float, ParetoSolution | None]]:
    """Solve a list of consistency targets; infeasible ones map to None."""
    out: list[tuple[float, ParetoSolution | None]] = []
    for C in targets:
        try:
            out.append((C, solve_pareto(region, rw, C)))
        except InfeasibleTarget:
            out.append((C, None))
    return out
