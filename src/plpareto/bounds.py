"""Consistency band and robustness corridor for protection levels.

For a consistency target C the band [l_tilde, u] confines any policy that
keeps every advice-region instance at ratio >= C; for a robustness target R
the corridor [g_lower, g_upper] confines any policy that keeps the worst
first-quadrant corners at ratio >= R.

``bound_context`` works in two parts.  The part that does not depend on C
(key points, the breakpoints of each pointwise bound curve's own envelope,
the cuts between them at y = m, t + y = m and t = m, and the hindsight
denominator at every seed and cut) is built once per region and ``Rewards``
and reused while the same region is queried, so a C* search and the Pareto
solve after it build it once.  Per C, only the curves' switch roots are
computed, on the pieces where a switch changes sign.  The walks over the
piece ends test signs inline and read curves with ``PLFunction.at``, not a
Python call per point, and give the floats of per-point calls.  The
published curves l and l_tilde and their thresholds are built from the
pointwise lower bound on first access: feasibility and the solver read only
u and the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import OutOfDomain, TargetOutOfRange
from .plfunction import SLOPE_TOL, PLFunction
from .ratios import Rewards, _denominator, hindsight_denominator
from .region import TOL, MLRegion, KeyPoints, dedup_sorted, envelope, key_points

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
    if side != "upper":
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return -R * min(x, rw.m) + rw.m


def _u_terms(rw: Rewards, C: float, t: float, y: float, denom: float) -> tuple[float, ...]:
    """u at the lower-envelope point (t, y) with hindsight denominator
    ``denom``, then the switches (linear in t between the seed kinks) whose
    roots are u's kinks: need = 0 and m - need / r_low = min(m, y)."""
    m = rw.m
    need = C * denom - min(y, m) * rw.r_high
    u = m if need <= 0.0 else min(m, max(min(m, y), m - need / rw.r_low))
    return u, need, need - (m - min(m, y)) * rw.r_low


def _l_terms(rw: Rewards, C: float, t: float, y: float, denom: float) -> tuple[float, ...]:
    """The nonzero branch min(m, y, max(0, p_b)) of l at the upper-envelope
    point (t, y) with hindsight denominator ``denom``, then the switches whose
    roots are l's kinks: p_b = 0, p_b = min(m, y) and, last, (under ratio at
    p = 0 - C + RATIO_SLACK) * denominator, at or above 0 exactly where l is
    0."""
    m = rw.m
    p_b = (C * denom - m * rw.r_low) / (rw.r_high - rw.r_low)
    zero = min(y, max(m - t, 0.0)) * rw.r_high + min(t, m) * rw.r_low - (C - RATIO_SLACK) * denom
    return min(m, y, max(0.0, p_b)), p_b, p_b - min(m, y), zero


def _check_target(C: float) -> None:
    if not 0.0 <= C <= 1.0:
        raise TargetOutOfRange(f"consistency target {C} outside [0, 1]")


def u_raw(region: MLRegion, rw: Rewards, C: float, t: float) -> float:
    """Pointwise largest p in [0, m] keeping the over-protection ratio at the
    lower-envelope point (t, h_lower(t)) at least C."""
    _check_target(C)
    y = envelope(region, t, "lower")
    return _u_terms(rw, C, t, y, hindsight_denominator((t, y), rw))[0]


def l_raw(region: MLRegion, rw: Rewards, C: float, t: float) -> float:
    """Pointwise smallest p in [0, m] keeping the under-protection ratio at the
    upper-envelope point (t, h_upper(t)) at least C."""
    _check_target(C)
    y = envelope(region, t, "upper")
    f = _l_terms(rw, C, t, y, hindsight_denominator((t, y), rw))
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


def _pieces(seeds, rw: Rewards):
    """The target-independent part of a bound curve over the envelope points
    ``seeds`` ((t, y), y linear between neighbours).

    Each seed interval is cut at the roots of y = m, t + y = m and t = m,
    where the hindsight denominator has its kinks.  Returns the first point
    as (t, y, denominator) and, per seed interval, (a, y_a, slope, ends):
    the interval's left end, its envelope line and the (t, y, denominator)
    of each piece's right end, left to right.
    """
    m = rw.m
    a, ya = seeds[0]
    first = (a, ya, _denominator(a, ya, rw))
    fa = (ya - m, a + ya - m, a - m)
    sa = (fa[0] < 0.0, fa[1] < 0.0, fa[2] < 0.0)
    intervals = []
    for b, yb in seeds[1:]:
        slope = (yb - ya) / (b - a)
        # the cut switches and their signs at b are those at the next
        # interval's left end; only a sign change has a root
        fb = (yb - m, b + yb - m, b - m)
        sb = (fb[0] < 0.0, fb[1] < 0.0, fb[2] < 0.0)
        ends = []
        if sa != sb:
            for t, _ in sorted(_roots(a, fa, b, fb)):
                if a < t < b:
                    y = ya + (t - a) * slope
                    ends.append((t, y, _denominator(t, y, rw)))
        ends.append((b, yb, _denominator(b, yb, rw)))
        intervals.append((a, ya, slope, tuple(ends)))
        a, ya, fa, sa = b, yb, fb, sb
    return first, tuple(intervals)


def _curve(rw: Rewards, C: float, pieces, terms, steps: bool) -> PLFunction:
    """A bound curve for target C with breakpoints at its exact kinks.

    ``pieces`` is a ``_pieces`` result.  Each piece is cut at the roots of
    the switches of ``terms(rw, C, t, y, denominator)`` (value, *switches),
    which are linear there; only those roots need a fresh denominator.  With
    ``steps`` the curve is 0 where the last switch is >= 0 and the value
    elsewhere, so it jumps at that switch's root: two breakpoints at the same
    t.
    """
    (t0, y0, d0), intervals = pieces
    f0 = terms(rw, C, t0, y0, d0)
    s0 = (f0[1] < 0.0, f0[2] < 0.0, f0[-1] < 0.0)
    out = [(t0, 0.0 if steps and f0[-1] >= 0.0 else f0[0])]
    for a, ya, slope, ends in intervals:
        for t1, y1, d1 in ends:
            f1 = terms(rw, C, t1, y1, d1)
            # the signs of the 2 or 3 switches: only a change has a root here
            s1 = (f1[1] < 0.0, f1[2] < 0.0, f1[-1] < 0.0)
            if s0 != s1:
                for t, i in sorted(_roots(t0, f0[1:], t1, f1[1:])):
                    y = ya + (t - a) * slope
                    f = terms(rw, C, t, y, _denominator(t, y, rw))
                    if steps and i == len(f) - 2:
                        step = (0.0, f[0]) if f0[-1] >= 0.0 else (f[0], 0.0)
                        out += [(t, v) for v in step]
                    elif t0 < t < t1:
                        out.append((t, 0.0 if steps and f[-1] >= 0.0 else f[0]))
            out.append((t1, 0.0 if steps and f1[-1] >= 0.0 else f1[0]))
            t0, f0, s0 = t1, f1, s1
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
        # n1 - d rounds at ulp(n1), a slope far below -1 over a segment a few
        # ulps wide: raise it until validate's slope test passes
        while d > SLOPE_TOL and (cone2 - n1) / d < -1.0 - SLOPE_TOL:
            cone2 = math.nextafter(cone2, math.inf)
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
class _Geometry:
    """The part of a bound context that does not depend on the target C,
    for one region and one ``Rewards``: key points, the freeze point x_hi_u
    of the upper bound, x_H, and the ``_pieces`` of u and of the pointwise
    lower bound, each seeded at its own envelope's breakpoints."""

    kp: KeyPoints
    x_hi_u: float
    x_h: float
    u_pieces: tuple
    l_pieces: tuple


@dataclass(frozen=True)
class BoundContext:
    """Region, rewards and target C with thresholds and bound curves.

    ``u`` is the pointwise (unfrozen) upper bound and ``pw`` the pointwise
    lower bound.  ``floor`` is the exact necessary floor used by feasibility
    and the solver: ``pw`` tightened by monotonicity (running max) and the
    slope -1 validity cone.  ``l``/``lt`` are the band's published
    lower-bound curves (zero beyond the threshold x_hi_l); they, x_hi_l,
    x_minus1 and x_lo_u are built from ``pw`` and ``u`` on first access,
    since neither feasibility nor the solver reads them.
    """

    region: MLRegion
    rw: Rewards
    C: float
    kp: KeyPoints
    x_hi_u: float
    x_h: float
    pw: PLFunction = field(repr=False)
    floor: PLFunction = field(repr=False)
    u: PLFunction = field(repr=False)

    @property
    def floor_bps(self) -> tuple[tuple[float, float], ...]:
        return self.floor.breakpoints

    @property
    def u_bps(self) -> tuple[tuple[float, float], ...]:
        return self.u.breakpoints

    @cached_property
    def _published(self) -> tuple[float, PLFunction, float, PLFunction]:
        return _published_curves(self.pw, self.x_h, self.region.x_hi)

    @property
    def x_hi_l(self) -> float:
        return self._published[0]

    @property
    def l(self) -> PLFunction:
        return self._published[1]

    @property
    def x_minus1(self) -> float:
        return self._published[2]

    @property
    def lt(self) -> PLFunction:
        return self._published[3]

    @cached_property
    def x_lo_u(self) -> float:
        """Largest abscissa up to x_hi_u where even full protection keeps the
        ratio at C."""
        m, x_hi_u = self.rw.m, self.x_hi_u
        x_lo_u = self.region.x_lo
        u_bps = self.u.breakpoints
        for (x1, y1), (x2, y2) in zip(u_bps, u_bps[1:]):
            if x1 >= x_hi_u:
                break
            if x2 > x_hi_u:
                x2, y2 = x_hi_u, self.u(x_hi_u)
            if y2 >= m - 1e-9:
                x_lo_u = x2
            elif y1 >= m - 1e-9:
                x_lo_u = x1 + (x2 - x1) * (y1 - m) / (y1 - y2)
        if len(u_bps) == 1 and u_bps[0][1] >= m - 1e-9:
            x_lo_u = x_hi_u
        return x_lo_u


def _build_geometry(region: MLRegion, rw: Rewards) -> _Geometry:
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

    # pw's seeds also take x_H, and are clamped to [x_lo, x_bar], which the
    # upper chain's ends can overshoot by up to TOL
    x_h = kp.H[0]
    l_seeds = dedup_sorted(
        sorted(min(max(x, x_lo), x_bar) for x in region.upper.xs + (x_h,)), 1e-12)
    return _Geometry(
        kp, x_hi_u, x_h,
        _pieces(region.lower.breakpoints, rw),
        _pieces(list(zip(l_seeds, region.upper.at(l_seeds))), rw),
    )


# (region, rw, geometry) of the last region seen.  A C* search, and a Pareto
# solve after it on the same region, build the geometry once.  It is one
# slot rather than a memo on each region because a geometry takes a few KB
# and callers may keep many regions alive.
_last_geometry: tuple | None = None


def _geometry(region: MLRegion, rw: Rewards) -> _Geometry:
    """The target-independent bound geometry of ``region`` for ``rw``,
    reused while the region (the same object) and ``rw`` stay the same."""
    global _last_geometry
    last = _last_geometry
    if last is not None and last[0] is region and last[1] == rw:
        return last[2]
    geo = _build_geometry(region, rw)
    _last_geometry = (region, rw, geo)
    return geo


def bound_context(region: MLRegion, rw: Rewards, C: float) -> BoundContext:
    """Thresholds and piecewise-linear bound curves for target C."""
    _check_target(C)
    geo = _geometry(region, rw)
    pw = _curve(rw, C, geo.l_pieces, _l_terms, True)
    u = _curve(rw, C, geo.u_pieces, _u_terms, False)

    # exact necessary floor: monotone running max plus slope -1 cone,
    # extended constant down to x = 0
    floor_bps = _cone_floor(_running_max_bps(pw.breakpoints))
    if floor_bps[0][0] > 1e-12:
        floor_bps = [(0.0, floor_bps[0][1])] + floor_bps
    return BoundContext(
        region, rw, C, geo.kp, geo.x_hi_u, geo.x_h, pw, PLFunction(tuple(floor_bps)), u
    )


def _published_curves(pw: PLFunction, x_h: float, x_bar: float):
    """(x_hi_l, l, x_minus1, lt): the band's published lower-bound curves and
    their thresholds, from the pointwise lower bound ``pw``."""
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
    return x_hi_l, l, x_minus1, lt


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
    return ctx.u(t)


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
    for x, u, f in zip(xs, ctx.u.at(xs), ctx.floor.at(xs)):
        gap = u - max(0.0, f)
        if gap < best:
            best, witness = gap, x
    return best, witness


def u_ceiling(ctx: BoundContext) -> float:
    """Smallest value of the pointwise upper bound over the region's x-range."""
    return min(v for _, v in ctx.u.breakpoints)
