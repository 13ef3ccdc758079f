"""Consistency band and robustness corridor for protection levels.

For a consistency target C the band [l_tilde, u] confines any policy that
keeps every advice-region instance at ratio >= C; for a robustness target R
the corridor [g_lower, g_upper] confines any policy that keeps the worst
first-quadrant corners at ratio >= R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .errors import OutOfDomain, TargetOutOfRange
from .plfunction import PLFunction
from .ratios import Rewards, hindsight_denominator
from .region import TOL, MLRegion, KeyPoints, envelope, key_points, kp_x_vertices

# a band gap at or above -FEAS_SLACK counts as feasible
FEAS_SLACK = 1e-9
# an under ratio at p = 0 within RATIO_SLACK of C meets C.  At C = 1 that
# ratio is exactly 1 on all of t + y <= m, and rounding on the line itself
# must not move the step l takes there.
RATIO_SLACK = 1e-12


def rho(rw: Rewards) -> float:
    """Best robust ratio achievable without advice."""
    return 1.0 / (2.0 - rw.r_low / rw.r_high)


def no_advice_level(rw: Rewards) -> float:
    """Fixed protection level achieving the ratio rho on every instance."""
    ratio = rw.r_low / rw.r_high
    return rw.m * (1.0 - ratio) / (2.0 - ratio)


def g_corridor(rw: Rewards, R: float, x: float, side: str) -> float:
    """Robustness corridor: constant floor g_lower and line g_upper = -Rx + m
    (frozen beyond x = m)."""
    if not 0.0 < R <= rho(rw) + 1e-9:
        raise TargetOutOfRange(f"robust target {R} outside (0, {rho(rw)}]")
    if not x >= 0.0:
        raise OutOfDomain(f"x must be nonnegative, got {x}")
    if side == "lower":
        ratio = rw.r_low / rw.r_high
        return max(0.0, rw.m * (R - ratio) / (1.0 - ratio))
    return -R * min(x, rw.m) + rw.m


def _u_terms(rw: Rewards, C: float, t: float, y: float) -> tuple[float, ...]:
    """u at the lower-envelope point (t, y), then the switches (linear in t
    between the seed kinks) whose roots are u's kinks: need = 0 and
    m - need / r_low = min(m, y)."""
    m = rw.m
    need = C * hindsight_denominator((t, y), rw) - min(y, m) * rw.r_high
    u = m if need <= 0.0 else min(m, max(min(m, y), m - need / rw.r_low))
    return u, need, need - (m - min(m, y)) * rw.r_low


def _l_terms(rw: Rewards, C: float, t: float, y: float) -> tuple[float, ...]:
    """The nonzero branch min(m, y, max(0, p_b)) of l at the upper-envelope
    point (t, y), then the switches whose roots are l's kinks: p_b = 0,
    p_b = min(m, y) and, last, (under ratio at p = 0 - C + RATIO_SLACK) *
    denominator, at or above 0 exactly where l is 0."""
    m = rw.m
    denom = hindsight_denominator((t, y), rw)
    p_b = (C * denom - m * rw.r_low) / (rw.r_high - rw.r_low)
    zero = min(y, max(m - t, 0.0)) * rw.r_high + min(t, m) * rw.r_low - (C - RATIO_SLACK) * denom
    return min(m, y, max(0.0, p_b)), p_b, p_b - min(m, y), zero


def u_raw(region: MLRegion, rw: Rewards, C: float, t: float) -> float:
    """Pointwise largest p in [0, m] keeping the over-protection ratio at the
    lower-envelope point (t, h_lower(t)) at least C."""
    return _u_terms(rw, C, t, envelope(region, t, "lower"))[0]


def l_raw(region: MLRegion, rw: Rewards, C: float, t: float) -> float:
    """Pointwise smallest p in [0, m] keeping the under-protection ratio at the
    upper-envelope point (t, h_upper(t)) at least C."""
    f = _l_terms(rw, C, t, envelope(region, t, "upper"))
    return 0.0 if f[-1] >= 0.0 else f[0]


def _roots(t0: float, f0, t1: float, f1) -> list[tuple[float, int]]:
    """(t, i) for each linear function i, with values f0[i] at t0 and f1[i]
    at t1, that is negative at one end of [t0, t1] only; t is its root, which
    is t0 or t1 when the function is 0 there."""
    return [
        (t0 + (t1 - t0) * a / (a - b), i)
        for i, (a, b) in enumerate(zip(f0, f1))
        if (a < 0.0) != (b < 0.0)
    ]


def _curve(seeds, m: float, terms, steps: bool) -> PLFunction:
    """A bound curve with breakpoints at its exact kinks.

    ``seeds`` are (t, y) envelope points, y linear between neighbours.  Each
    seed interval is cut at the roots of y = m, t + y = m and t = m, where
    the hindsight denominator has its kinks, and each piece at the roots of
    the switches of ``terms(t, y)`` (value, *switches), which are linear
    there.  With ``steps`` the curve is 0 where the last switch is >= 0 and
    the value elsewhere, so it jumps at that switch's root: two breakpoints
    at the same t.
    """
    def value(f):
        return 0.0 if steps and f[-1] >= 0.0 else f[0]

    t0, y0 = seeds[0]
    f0 = terms(t0, y0)
    out = [(t0, value(f0))]
    for (a, ya), (b, yb) in zip(seeds, seeds[1:]):
        slope = (yb - ya) / (b - a)
        cuts = _roots(a, (ya - m, a + ya - m, a - m), b, (yb - m, b + yb - m, b - m))
        ends = [(t, ya + (t - a) * slope) for t, _ in sorted(cuts) if a < t < b] + [(b, yb)]
        for t1, y1 in ends:
            f1 = terms(t1, y1)
            for t, i in sorted(_roots(t0, f0[1:], t1, f1[1:])):
                f = terms(t, ya + (t - a) * slope)
                if steps and i == len(f) - 2:
                    step = (0.0, f[0]) if f0[-1] >= 0.0 else (f[0], 0.0)
                    out += [(t, v) for v in step]
                elif t0 < t < t1:
                    out.append((t, value(f)))
            out.append((t1, value(f1)))
            t0, f0 = t1, f1
    return PLFunction(tuple(out))


def _running_max_bps(bps):
    """Right-to-left running maximum of a piecewise-linear curve, with kinks
    inserted where a segment crosses the suffix maximum."""
    out = [bps[-1]]
    cur = bps[-1][1]
    for i in range(len(bps) - 2, -1, -1):
        (x1, v1), (x2, v2) = bps[i], bps[i + 1]
        if v1 <= cur:
            out.append((x1, cur))
        else:
            if v2 < cur - 1e-15 and x2 > x1:
                # segment drops through the suffix maximum
                t = (v1 - cur) / (v1 - v2)
                out.append((x1 + t * (x2 - x1), cur))
            out.append((x1, v1))
            cur = v1
    out.reverse()
    return out


def _cone_floor(mbps):
    """Left-to-right slope -1 propagation: smallest non-increasing curve with
    slope >= -1 dominating the given non-increasing curve."""
    out = [mbps[0]]
    for i in range(1, len(mbps)):
        (x1, m1), (x2, m2) = mbps[i - 1], mbps[i]
        n1 = out[-1][1]
        d = x2 - x1
        if d <= 0:
            out.append((x2, max(m2, n1)))
            continue
        cone2 = n1 - d
        if cone2 > m2 + 1e-15:
            out.append((x2, cone2))
        else:
            if n1 > m1 + 1e-12:
                s = (m2 - m1) / d
                t = (n1 - m1) / (1.0 + s)
                if 0.0 < t < d:
                    out.append((x1 + t, n1 - t))
            out.append((x2, m2))
    return out


@dataclass(frozen=True)
class BoundContext:
    """Region, rewards and target C with cached thresholds and bound curves.

    ``l``/``lt`` are the band's published lower-bound curves (zero beyond the
    threshold x_hi_l).  ``floor`` is the exact necessary floor used by
    feasibility and the solver: the pointwise bound tightened by monotonicity
    (running max) and the slope -1 validity cone.  ``u`` is the pointwise
    (unfrozen) upper bound.
    """

    region: MLRegion
    rw: Rewards
    C: float
    kp: KeyPoints
    x_lo_u: float
    x_hi_u: float
    x_h: float
    x_hi_l: float
    x_minus1: float
    l: PLFunction = field(repr=False)
    lt: PLFunction = field(repr=False)
    floor: PLFunction = field(repr=False)
    u: PLFunction = field(repr=False)

    @property
    def floor_bps(self) -> tuple[tuple[float, float], ...]:
        return self.floor.breakpoints

    @property
    def u_bps(self) -> tuple[tuple[float, float], ...]:
        return self.u.breakpoints


def _seed_xs(region: MLRegion, rw: Rewards, kp: KeyPoints, lo: float, hi: float) -> list[float]:
    xs = {lo, hi}
    for x in kp_x_vertices(region, kp):
        if lo - TOL <= x <= hi + TOL:
            xs.add(min(max(x, lo), hi))
    if lo < rw.m < hi:
        xs.add(rw.m)
    out = sorted(xs)
    dedup = [out[0]]
    for x in out[1:]:
        if x - dedup[-1] > 1e-12:
            dedup.append(x)
    return dedup


def bound_context(region: MLRegion, rw: Rewards, C: float) -> BoundContext:
    """Precompute thresholds and piecewise-linear bound curves for target C."""
    if not 0.0 <= C <= 1.0:
        raise TargetOutOfRange(f"consistency target {C} outside [0, 1]")
    m = rw.m
    kp = key_points(region, m)
    x_bar, x_lo = region.x_hi, region.x_lo

    # freeze point of the upper bound: L itself when L sits at or beyond the
    # line x + y = m, otherwise the right end of the flat minimum of the
    # lower envelope
    xL, yL = kp.L
    if xL + min(yL, m) >= m - TOL:
        x_hi_u = xL
    else:
        chain = region.lower.breakpoints
        y_min = min(y for _, y in chain)
        x_hi_u = max([x for x, y in chain if y <= y_min + TOL] + [xL])

    # pointwise bound curves on [x_lo, x_bar] from their exact kinks; the
    # lower one also gets x_H as a seed
    x_h = kp.H[0]
    u_seeds = _seed_xs(region, rw, kp, x_lo, x_bar)
    l_seeds = sorted(set(u_seeds) | {min(max(x_h, x_lo), x_bar)})
    pw = _curve([(t, region.upper(t)) for t in l_seeds], m, partial(_l_terms, rw, C), True)
    u = _curve([(t, region.lower(t)) for t in u_seeds], m, partial(_u_terms, rw, C), False)

    # exact necessary floor: monotone running max plus slope -1 cone,
    # extended constant down to x = 0
    floor_bps = _cone_floor(_running_max_bps(pw.breakpoints))
    if floor_bps[0][0] > 1e-12:
        floor_bps = [(0.0, floor_bps[0][1])] + floor_bps

    # published threshold x_hi_l: first abscissa at or beyond x_H where a zero
    # protection level already meets the target (fallback x_bar), and the
    # value the pointwise bound has just left of it (nonzero at a step)
    x_hi_l, v_hi = x_bar, 0.0
    prev = None
    for x, v in pw.breakpoints:
        if x < x_h - 1e-12:
            continue
        if v <= 1e-9:
            if prev is not None:
                x1, v1 = prev
                x_hi_l = x1 + (x - x1) * v1 / (v1 - v)
                v_hi = v1 if x == x1 else 0.0
            else:
                x_hi_l = max(x, x_h)
            break
        prev = (x, v)

    # published lower bound: pointwise on [x_H, x_hi_l), l(x_H) to the left,
    # zero beyond x_hi_l
    lH = pw(x_h)
    if x_hi_l <= x_h + 1e-12:
        l_bps = [(0.0, lH), (x_bar, lH)] if x_bar > 1e-12 else [(0.0, lH)]
    else:
        l_bps = [(0.0, lH), (x_h, lH)]
        l_bps += [(x, v) for x, v in pw.breakpoints if x_h + 1e-12 < x < x_hi_l - 1e-12]
        if x_hi_l < x_bar - 1e-12:
            l_bps += [(x_hi_l, v_hi), (x_hi_l, 0.0), (x_bar, 0.0)]
        else:
            l_bps.append((x_bar, pw(x_bar)))
    l = PLFunction(tuple(l_bps))

    # first abscissa where the published l falls faster than slope -1; a
    # step down counts
    x_minus1 = x_bar
    for (x1, y1), (x2, y2) in zip(l_bps, l_bps[1:]):
        drop = y1 - y2
        if (drop > 1e-9) if x2 - x1 <= 1e-9 else (drop / (x2 - x1) > 1.0 + 1e-9):
            x_minus1 = x1
            break

    # published tightened bound: l up to x_minus1, then slope -1, clipped at 0
    if x_minus1 >= x_bar - 1e-12:
        lt = l
    else:
        l_at_m1 = l(x_minus1)
        lt_bps = [(x, v) for x, v in l_bps if x < x_minus1 - 1e-12]
        lt_bps.append((x_minus1, l_at_m1))
        x_zero = x_minus1 + l_at_m1
        if x_zero < x_bar - 1e-12:
            lt_bps += [(x_zero, 0.0), (x_bar, 0.0)]
        else:
            lt_bps.append((x_bar, l_at_m1 - (x_bar - x_minus1)))
        lt = PLFunction(tuple(lt_bps))

    # largest abscissa up to x_hi_u where even full protection keeps the
    # ratio at C
    x_lo_u = x_lo
    u_bps = u.breakpoints
    for (x1, y1), (x2, y2) in zip(u_bps, u_bps[1:]):
        if x1 >= x_hi_u:
            break
        if x2 > x_hi_u:
            x2, y2 = x_hi_u, u(x_hi_u)
        if y2 >= m - 1e-9:
            x_lo_u = x2
        elif y1 >= m - 1e-9:
            x_lo_u = x1 + (x2 - x1) * (y1 - m) / (y1 - y2)
    if len(u_bps) == 1 and u_bps[0][1] >= m - 1e-9:
        x_lo_u = x_hi_u

    return BoundContext(
        region, rw, C, kp, x_lo_u, x_hi_u, x_h, x_hi_l, x_minus1,
        l, lt, PLFunction(tuple(floor_bps)), u,
    )


def _check_domain(ctx: BoundContext, x: float) -> float:
    if x < -TOL or x > ctx.region.x_hi + TOL:
        raise OutOfDomain(f"x={x} outside [0, {ctx.region.x_hi}]")
    return min(max(x, 0.0), ctx.region.x_hi)


def u_bound(ctx: BoundContext, x: float) -> float:
    """Upper bound of the consistency band: pointwise up to the freeze point,
    constant after it, and m left of the region."""
    x = _check_domain(ctx, x)
    t = min(x, ctx.x_hi_u)
    if t < ctx.region.x_lo:
        return ctx.rw.m
    return u_raw(ctx.region, ctx.rw, ctx.C, t)


def l_bound(ctx: BoundContext, x: float) -> float:
    """Lower bound of the consistency band (may fall faster than slope -1)."""
    x = _check_domain(ctx, x)
    return max(0.0, ctx.l(x))


def l_tilde(ctx: BoundContext, x: float) -> float:
    """Validity-tightened lower bound: follows l, then decays at slope -1."""
    x = _check_domain(ctx, x)
    return max(0.0, ctx.lt(x))


def policy_floor(ctx: BoundContext, x: float) -> float:
    """Exact necessary floor for valid policies meeting target C (pointwise
    bound tightened by monotonicity and the slope -1 cone)."""
    x = _check_domain(ctx, x)
    return max(0.0, ctx.floor(x))


def band_gap(ctx: BoundContext) -> tuple[float, float]:
    """Minimum over the region's x-range of (pointwise upper bound - exact
    floor) and its witness abscissa.

    A valid policy meeting target C exists iff this gap is nonnegative: the
    floor is itself a valid policy, so it is a feasibility witness whenever it
    fits under the pointwise upper bound.  Both curves are piecewise linear,
    so the minimum sits on their merged breakpoints.
    """
    lo, hi = ctx.region.x_lo, ctx.region.x_hi
    xs = sorted(set(ctx.u.xs).union(min(max(x, lo), hi) for x in ctx.floor.xs))
    best, witness = float("inf"), xs[0]
    for x in xs:
        gap = ctx.u(x) - max(0.0, ctx.floor(x))
        if gap < best:
            best, witness = gap, x
    return best, witness


def u_ceiling(ctx: BoundContext) -> float:
    """Smallest value of the pointwise upper bound over the region's x-range."""
    return min(v for _, v in ctx.u.breakpoints)
