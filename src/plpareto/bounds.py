"""Consistency band and robustness corridor for protection levels.

For a consistency target C the band [l_tilde, u] confines any policy that
keeps every advice-region instance at ratio >= C; for a robustness target R
the corridor [g_lower, g_upper] confines any policy that keeps the worst
first-quadrant corners at ratio >= R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import OutOfDomain, TargetOutOfRange
from .plfunction import PLFunction
from .ratios import Rewards, cp_under_raw, hindsight_denominator
from .region import TOL, MLRegion, KeyPoints, envelope, key_points, kp_x_vertices

# a band gap at or above -FEAS_SLACK counts as feasible
FEAS_SLACK = 1e-9


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


def u_raw(region: MLRegion, rw: Rewards, C: float, t: float) -> float:
    """Pointwise largest p in [0, m] keeping the over-protection ratio at the
    lower-envelope point (t, h_lower(t)) at least C."""
    m = rw.m
    y = envelope(region, t, "lower")
    pt = (t, y)
    denom = hindsight_denominator(pt, rw)
    if denom <= 0.0:
        return m
    need = C * denom - min(y, m) * rw.r_high
    if need <= 0.0:
        return m
    w = need / rw.r_low
    seam = min(m, y)
    if w > t + TOL:
        return seam
    return min(m, max(seam, m - w))


def l_raw(region: MLRegion, rw: Rewards, C: float, t: float) -> float:
    """Pointwise smallest p in [0, m] keeping the under-protection ratio at the
    upper-envelope point (t, h_upper(t)) at least C."""
    m = rw.m
    y = envelope(region, t, "upper")
    pt = (t, y)
    denom = hindsight_denominator(pt, rw)
    if denom <= 0.0:
        return 0.0
    if cp_under_raw(0.0, pt, rw) >= C:
        return 0.0
    target = C * denom
    k = min(y, max(m - t, 0.0))
    seam = min(m, y)
    # reward as a function of p rises at rate r_high once p > k and loses r_low
    # once p > m - t; the two linear pieces cover the whole crossing range
    cands = []
    p_a = (target - k * rw.r_high - t * rw.r_low) / rw.r_high
    if k - TOL <= p_a <= m - t + TOL:
        cands.append(p_a)
    p_b = (target - m * rw.r_low) / (rw.r_high - rw.r_low)
    if p_b >= max(k, m - t) - TOL:
        cands.append(p_b)
    if cands:
        return min(seam, max(0.0, min(cands)))
    # numerical edge: fall back to bisection on the monotone ratio
    lo, hi = 0.0, seam
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if cp_under_raw(mid, pt, rw) >= C:
            hi = mid
        else:
            lo = mid
    return hi


def _pl_breakpoints(f, xs, val_tol=1e-10, x_floor=1e-12):
    """Exact-to-tolerance breakpoints of a piecewise-linear function.

    Seeds with candidate abscissae and recursively subdivides wherever the
    midpoint deviates from the chord, which localizes any missed kink.
    """
    out = [(xs[0], f(xs[0]))]

    def refine(a, fa, b, fb):
        if b - a <= x_floor:
            return
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm - 0.5 * (fa + fb)) <= val_tol:
            return
        refine(a, fa, mid, fm)
        out.append((mid, fm))
        refine(mid, fm, b, fb)

    for a, b in zip(xs, xs[1:]):
        fa, fb = out[-1][1], f(b)
        refine(a, fa, b, fb)
        out.append((b, fb))
    return out


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

    # pointwise lower bound curve on [x_lo, x_bar]; the upper bound's seeds
    # plus x_H
    x_h = kp.H[0]
    l_at = lambda t: l_raw(region, rw, C, t)
    flat = x_bar - x_lo <= 1e-12
    if flat:
        pw = [(x_lo, l_at(x_lo))]
    else:
        u_seeds = _seed_xs(region, rw, kp, x_lo, x_bar)
        pw = _pl_breakpoints(l_at, sorted(set(u_seeds) | {min(max(x_h, x_lo), x_bar)}))
    pw = PLFunction(tuple((x, max(0.0, v)) for x, v in pw))

    # exact necessary floor: monotone running max plus slope -1 cone,
    # extended constant down to x = 0
    floor_bps = _cone_floor(_running_max_bps(pw.breakpoints))
    if floor_bps[0][0] > 1e-12:
        floor_bps = [(0.0, floor_bps[0][1])] + floor_bps

    # published threshold x_hi_l: first abscissa at or beyond x_H where a zero
    # protection level already meets the target (fallback x_bar)
    x_hi_l = x_bar
    prev = None
    for x, v in pw.breakpoints:
        if x < x_h - 1e-12:
            continue
        if v <= 1e-9:
            if prev is not None and prev[1] > 1e-9 and prev[1] != v:
                x1, v1 = prev
                x_hi_l = x1 + (x - x1) * v1 / (v1 - v)
            else:
                x_hi_l = max(x, x_h)
            break
        prev = (x, v)

    # published lower bound: pointwise on [x_H, x_hi_l], frozen at l(x_H) to
    # the left, zero beyond x_hi_l
    lH = max(0.0, pw(x_h))
    if x_hi_l <= x_h + 1e-12:
        l_bps = [(0.0, lH), (x_bar, lH)] if x_bar > 1e-12 else [(0.0, lH)]
    else:
        l_bps = [(0.0, lH)]
        for x, v in pw.breakpoints:
            if x_h + 1e-12 < x < x_hi_l - 1e-12:
                l_bps.append((x, v))
        if x_hi_l < x_bar - 1e-12:
            l_bps += [(x_hi_l, 0.0), (x_bar, 0.0)]
        else:
            l_bps.append((x_bar, max(0.0, pw(x_bar))))
    l = PLFunction(tuple(l_bps))

    # first abscissa where the published l falls faster than slope -1
    x_minus1 = x_bar
    for (x1, y1), (x2, y2) in zip(l_bps, l_bps[1:]):
        if x2 - x1 <= 1e-9:
            continue
        if (y2 - y1) / (x2 - x1) < -1.0 - 1e-9:
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

    # pointwise upper bound curve on [x_lo, x_bar] (unfrozen)
    u_at = lambda t: u_raw(region, rw, C, t)
    if flat:
        u_bps = [(x_lo, u_at(x_lo))]
    else:
        u_bps = _pl_breakpoints(u_at, u_seeds)

    # largest abscissa where even full protection keeps the ratio at C
    x_lo_u = x_lo
    for (x1, y1), (x2, y2) in zip(u_bps, u_bps[1:]):
        if min(x1, x2) > x_hi_u + TOL:
            break
        if y2 >= m - 1e-9:
            x_lo_u = min(x2, x_hi_u)
        elif y1 >= m - 1e-9 and y1 != y2:
            t = (y1 - m) / (y1 - y2)
            x_lo_u = min(x1 + t * (x2 - x1), x_hi_u)
    if len(u_bps) == 1 and u_bps[0][1] >= m - 1e-9:
        x_lo_u = x_hi_u

    return BoundContext(
        region, rw, C, kp, x_lo_u, x_hi_u, x_h, x_hi_l, x_minus1,
        l, lt, PLFunction(tuple(floor_bps)), PLFunction(tuple(u_bps)),
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
