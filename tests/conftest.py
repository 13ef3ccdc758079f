import math

import numpy as np
import pytest

from plpareto import MLRegion, Rewards, build_polygon
from plpareto.advice import _keep_count, _mvee_weights
from plpareto.bounds import BoundContext, _geometry, _roots, rho
from plpareto.consistency import _PAIR_BLOCK, _bisect, _check
from plpareto.errors import NegativeCoordinate, NoSolution
from plpareto.plfunction import PLFunction
from plpareto.ratios import (LEVEL_TIE, _as_point, balance_levels, cp_over_raw, cp_under_raw,
                             hindsight_denominator, hindsight_denominators)
from plpareto.region import TOL, check_segments, dedup_sorted, envelope, polygonize_ellipse


@pytest.fixture
def rw() -> Rewards:
    return Rewards(1.0 / 3.0, 1.0, 20.0)


@pytest.fixture
def sum_region() -> MLRegion:
    # {4 <= x <= 16, 4 <= y <= 16, 20 <= x + y <= 25}
    return build_polygon([(4, 16), (9, 16), (16, 9), (16, 4)])


@pytest.fixture
def diff_region() -> MLRegion:
    # {4 <= x <= 16, 4 <= y <= 16, 0 <= y - x <= 5}
    return build_polygon([(4, 4), (16, 16), (11, 16), (4, 9)])


def random_region(rng: np.random.Generator, lo: float = 0.0, hi: float = 30.0) -> MLRegion:
    n = int(rng.integers(5, 13))
    pts = rng.uniform(lo, hi, size=(n, 2))
    return build_polygon([tuple(p) for p in pts])


def scalar_balance_point(under_pt, over_pt, shift: float, rw: Rewards) -> float:
    """Oracle: the scalar balancing solver that ``ratios.balance_point`` was
    before it became the one-pair form of ``ratios.balance_levels``, kept
    verbatim but for one rule that both gained since: an over kink that
    rounds onto hi ends the last piece at its left-hand value.

    The difference is non-decreasing and piecewise linear in p; inside the
    interval (p <= y_u) its only kinks are m - x_u and m - x_o + shift, so the
    root is the linear root of the piece where it changes sign.  Raises
    NoSolution when the interval is empty or the difference never changes sign.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    m = rw.m
    x_u, y_u = _as_point(under_pt)
    x_o, y_o = _as_point(over_pt)
    lo = max(0.0, min(y_o, m) + shift)
    hi = min(m, y_u)
    if lo > hi + LEVEL_TIE:
        raise NoSolution("empty balancing interval")
    lo = min(lo, hi)

    def f(p: float) -> float:
        return cp_under_raw(p, under_pt, rw) - cp_over_raw(p - shift, over_pt, rw)

    flo, fhi = f(lo), f(hi)
    if flo > 1e-9 or fhi < -1e-9:
        raise NoSolution("balancing difference does not change sign")
    if flo >= 0.0:
        return lo
    if m - x_o + shift >= hi and m - (hi - shift) < x_o:
        # the over kink rounded onto hi: take the over ratio from its left
        den_o = hindsight_denominator(over_pt, rw)
        over = (min(y_o, m) * rw.r_high + x_o * rw.r_low) / den_o if den_o > 0.0 else 1.0
        fhi = cp_under_raw(hi, under_pt, rw) - over
    if fhi <= 0.0:
        return hi
    for t in sorted((m - x_u, m - x_o + shift)):
        if lo < t < hi:
            ft = f(t)
            if ft >= 0.0:
                hi, fhi = t, ft
                break
            lo, flo = t, ft
    return lo - flo * (hi - lo) / (fhi - flo)


# Oracles for the bound-layer loops: the per-point forms of bounds._pieces,
# bounds._curve, bounds.band_gap, bounds._cone_floor and
# ratios.balance_levels, kept verbatim (only the names and docstrings differ)
# from before those loops were rewritten to make fewer Python calls.  The
# rewritten loops must give the same floats, bit for bit.


def oracle_pieces(seeds, rw: Rewards):
    """Oracle of ``bounds._pieces``: one ``hindsight_denominator`` call and
    one ``_roots`` call per point and interval."""
    m = rw.m

    def point(t, y):
        return t, y, hindsight_denominator((t, y), rw)

    intervals = []
    for (a, ya), (b, yb) in zip(seeds, seeds[1:]):
        slope = (yb - ya) / (b - a)
        cuts = _roots(a, (ya - m, a + ya - m, a - m), b, (yb - m, b + yb - m, b - m))
        ends = [point(t, ya + (t - a) * slope) for t, _ in sorted(cuts) if a < t < b]
        intervals.append((a, ya, slope, tuple(ends) + (point(b, yb),)))
    return point(*seeds[0]), tuple(intervals)


def oracle_curve(rw: Rewards, C: float, pieces, terms, steps: bool) -> PLFunction:
    """Oracle of ``bounds._curve``: a ``_roots`` call at every piece end."""
    def value(f):
        return 0.0 if steps and f[-1] >= 0.0 else f[0]

    (t0, y0, d0), intervals = pieces
    f0 = terms(rw, C, t0, y0, d0)
    out = [(t0, value(f0))]
    for a, ya, slope, ends in intervals:
        for t1, y1, d1 in ends:
            f1 = terms(rw, C, t1, y1, d1)
            for t, i in sorted(_roots(t0, f0[1:], t1, f1[1:])):
                y = ya + (t - a) * slope
                f = terms(rw, C, t, y, hindsight_denominator((t, y), rw))
                if steps and i == len(f) - 2:
                    step = (0.0, f[0]) if f0[-1] >= 0.0 else (f[0], 0.0)
                    out += [(t, v) for v in step]
                elif t0 < t < t1:
                    out.append((t, value(f)))
            out.append((t1, value(f1)))
            t0, f0 = t1, f1
    return PLFunction(tuple(out))


def oracle_band_gap(ctx: BoundContext) -> tuple[float, float]:
    """Oracle of ``bounds.band_gap``: two ``PLFunction`` calls per abscissa."""
    lo, hi = ctx.region.x_lo, ctx.region.x_hi
    xs = sorted(set(ctx.u.xs).union(min(max(x, lo), hi) for x in ctx.floor.xs))
    best, witness = float("inf"), xs[0]
    for x in xs:
        gap = ctx.u(x) - max(0.0, ctx.floor(x))
        if gap < best:
            best, witness = gap, x
    return best, witness


def oracle_cone_floor(mbps):
    """Oracle of ``bounds._cone_floor`` without its ulp raise of a cone value
    over a segment a few ulps wide: equal wherever that floor validates."""
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


# float arithmetic as in Python: a tiny denominator overflows to inf silently
@np.errstate(all="ignore")
def oracle_balance_levels(xu, yu, xo, yo, shift, rw: Rewards):
    """Oracle of ``ratios.balance_levels``: the denominator masks rebuilt at
    every evaluation and the under ratio at hi computed twice."""
    m, rh, rl = rw.m, rw.r_high, rw.r_low
    # both points' denominators and the parts of their numerators free of p
    den_u, den_o = hindsight_denominators(xu, yu, rw), hindsight_denominators(xo, yo, rw)
    cap_u, top_o = np.minimum(yu, np.maximum(m - xu, 0.0)), np.minimum(yo, m) * rh
    safe_u, safe_o = np.where(den_u > 0.0, den_u, 1.0), np.where(den_o > 0.0, den_o, 1.0)

    def under(p):
        num = np.maximum(p, cap_u) * rh + np.minimum(xu, m - p) * rl
        return np.where(den_u > 0.0, num / safe_u, 1.0)

    def gap(p):
        num = top_o + np.minimum(xo, np.maximum(m - (p - shift), 0.0)) * rl
        return under(p) - np.where(den_o > 0.0, num / safe_o, 1.0)

    lo = np.maximum(0.0, np.minimum(yo, m) + shift)
    hi = np.minimum(m, yu)
    empty = lo > hi + LEVEL_TIE
    lo = np.minimum(lo, hi)
    flo, fhi = gap(lo), gap(hi)
    unsolved = empty | (flo > 1e-9) | (fhi < -1e-9)
    p = np.where(flo >= 0.0, lo, hi)
    k1, k2 = m - xu, m - xo + shift
    # the over kink can lie within rounding below hi and round onto it; the
    # over ratio of a nearly empty point falls by up to 1 past it, so the
    # last piece ends at the kink's left-hand value, and where that is still
    # not positive the root is hi
    lost = (k2 >= hi) & (m - (hi - shift) < xo)
    left = under(hi) - np.where(den_o > 0.0, (top_o + xo * rl) / safe_o, 1.0)
    fhi = np.where(lost, left, fhi)
    inner = ~(flo >= 0.0) & ~(fhi <= 0.0)
    # the kinks in ascending order: once one moves hi, the next is not below it
    for t in (np.minimum(k1, k2), np.maximum(k1, k2)):
        ft = gap(t)
        inside = (lo < t) & (t < hi)
        up, down = inside & (ft >= 0.0), inside & ~(ft >= 0.0)
        hi, fhi = np.where(up, t, hi), np.where(up, ft, fhi)
        lo, flo = np.where(down, t, lo), np.where(down, ft, flo)
    root = lo - flo * (hi - lo) / (fhi - flo)
    p = np.where(inner, root, p)
    return p, under(p), ~unsolved


# Oracle of the band's published lower bound: the curves l and l_tilde built
# in full, kept verbatim (only the name and docstring differ) from before
# l_bound and l_tilde read them off the pointwise bound and two thresholds.


def oracle_published_curves(pw: PLFunction, x_h: float, x_bar: float):
    """Oracle of ``bounds._lower_thresholds``, ``bounds.l_bound`` and
    ``bounds.l_tilde``: (x_hi_l, l, x_minus1, lt), the band's published
    lower-bound curves built as ``PLFunction``s with their thresholds."""
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


# Oracle of the ellipse advice: advice._samples, advice._mvee and
# advice.ellipse_advice as they were before the fit returned its shape and
# trim distances in plain floats, kept verbatim (only the names and
# docstrings differ).  Its fit calls the library's ``_mvee_weights`` on the
# raw points, with no whitening, and takes c, S and d in the raw frame.


def _oracle_samples(samples) -> np.ndarray:
    """Oracle of ``advice._samples``: the samples as an (n, 2) float array."""
    pts = np.array([(float(x), float(y)) for x, y in samples], dtype=float).reshape(-1, 2)
    if not pts.size:
        raise ValueError("need at least one sample")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite sample coordinate")
    if (pts < -TOL).any():
        raise NegativeCoordinate(f"negative sample coordinate {float(pts.min())}")
    return pts


def oracle_mvee(points: np.ndarray):
    """Oracle of ``advice._mvee``: (center, A) of the ellipse
    {u : (u-c)^T A (u-c) <= 1}, or None when the points are (near) collinear."""
    u = _mvee_weights(points.tolist(), 1e-9, 20000)
    if u is None:
        return None
    u = np.array(u)
    c = points.T @ u
    cov = points.T @ (points * u[:, None]) - np.outer(c, c)
    det = np.linalg.det(cov)
    if not np.isfinite(det) or det <= 1e-18 * max(1.0, float(np.trace(cov)) ** 2):
        return None
    a = np.linalg.inv(cov) / 2
    # rescale so every sample is inside despite finite-precision convergence
    dev = points - c
    dmax = float(np.max(np.einsum("ij,jk,ik->i", dev, a, dev)))
    if dmax > 0.0:
        a = a / dmax
    return c, a


def oracle_ellipse_advice(samples, coverage: float = 1.0, segments: int = 64) -> MLRegion:
    """Oracle of ``advice.ellipse_advice``: trims in numpy and takes the
    polygon's shape from an inverse and an eigendecomposition."""
    check_segments(segments)
    pts = _oracle_samples(samples)
    keep = _keep_count(pts.shape[0], coverage)
    fit = oracle_mvee(pts)
    while pts.shape[0] > keep:
        if fit is None:
            c = pts.mean(axis=0)
            d2 = np.sum((pts - c) ** 2, axis=1)
        else:
            c, a = fit
            dev = pts - c
            d2 = np.einsum("ij,jk,ik->i", dev, a, dev)
        # boundary support points share the maximal ellipse distance; break
        # ties by Euclidean distance from the center so true outliers go first
        near = d2 >= d2.max() - 1e-6
        e2 = np.where(near, np.sum((pts - np.asarray(c)) ** 2, axis=1), -1.0)
        pts = np.delete(pts, int(np.argmax(e2)), axis=0)
        fit = oracle_mvee(pts)
    if fit is None:
        return build_polygon([tuple(p) for p in pts])
    c, a = fit
    w, v = np.linalg.eigh(np.linalg.inv(a))
    w = np.maximum(w, 0.0)
    shape = (v * np.sqrt(w)) @ v.T
    shape = shape / math.cos(math.pi / segments)
    return polygonize_ellipse((float(c[0]), float(c[1])), shape.tolist(), segments)


def oracle_key_points(region: MLRegion, m: float):
    """Oracle of ``region.key_points`` and ``region.x_vertices``: the walk that
    found L, H and r0, the lower envelope's points on x + y = m, before L and
    H were read off the envelopes, kept verbatim but for its return value and
    the region's lowest and highest y, which it now takes itself.  Returns (L,
    H, the x_vertices of that r0)."""
    if not 0.0 < m < math.inf:
        raise ValueError(f"capacity must be positive and finite, got {m}")
    verts = region.vertices
    y_lo, y_hi = min(y for _, y in verts), max(y for _, y in verts)

    def capped(p):
        return min(p[1], m)

    y_min_c = min(capped(p) for p in verts)
    y_max_c = max(capped(p) for p in verts)
    if y_min_c >= m - TOL and y_lo >= m:
        L = (region.x_lo, envelope(region, region.x_lo, "lower"))
    else:
        L = min((p for p in verts if capped(p) <= y_min_c + TOL), key=lambda p: p[0])
    if y_max_c >= m - TOL and y_hi > m:
        # largest x where the upper envelope still reaches the cap
        chain = region.upper.breakpoints
        H = None
        for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
            if y2 >= m - TOL:
                continue
            if y1 >= m - TOL:
                t = (y1 - m) / (y1 - y2) if y1 != y2 else 0.0
                H = (x1 + t * (x2 - x1), m)
        if H is None:
            if chain[-1][1] >= m - TOL:
                H = (chain[-1][0], min(chain[-1][1], m))
            else:
                H = max(
                    (p for p in verts if capped(p) >= y_max_c - TOL), key=lambda p: p[0]
                )
    else:
        H = max((p for p in verts if capped(p) >= y_max_c - TOL), key=lambda p: p[0])

    r0 = []
    chain = region.lower.breakpoints
    if len(chain) == 1:
        if abs(sum(chain[0]) - m) <= TOL:
            r0.append(chain[0])
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        f1, f2 = x1 + y1 - m, x2 + y2 - m
        if abs(f1) <= TOL and abs(f2) <= TOL:
            r0.extend([(x1, y1), (x2, y2)])
        elif abs(f1) <= TOL:
            r0.append((x1, y1))
        elif abs(f2) <= TOL:
            r0.append((x2, y2))
        elif f1 * f2 < 0:
            t = f1 / (f1 - f2)
            r0.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    first = {p[0]: p for p in reversed(sorted(r0))}  # the first point at each x
    r0 = tuple(first[x] for x in dedup_sorted(sorted(first), TOL))
    return L, H, tuple(dedup_sorted(sorted({p[0] for p in region.vertices + r0}), TOL))


# Oracle of C* by enumeration over the full grid of abscissae: the pair set
# that consistency._pair_candidates balanced before it kept only the vertex
# pairs of its arrangement.  _full_grid_xs and _full_grid_pair_candidates
# are its _enum_xs and _pair_candidates, kept verbatim but for their names.


def _full_grid_xs(region: MLRegion, rw: Rewards) -> list[float]:
    """Abscissae eligible as binding points: the ends of the pieces of both
    bound curves in the region's bound geometry, that is both envelopes'
    breakpoints, x_H, x = m and both envelopes' crossings with y = m and
    x + y = m, all in [x_lo, x_hi]."""
    geo = _geometry(region, rw)
    xs = set()
    for (t0, _, _), intervals in (geo.u_pieces, geo.l_pieces):
        xs.add(t0)
        xs.update(t for _, _, _, ends in intervals for t, _, _ in ends)
    return dedup_sorted(sorted(xs), 1e-9)


def _full_grid_pair_candidates(region: MLRegion, rw: Rewards, xs) -> list[float]:
    """Balancing ratios for admissible (under, over) pairs of abscissae xs,
    in row-major (under, over) order."""
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


def oracle_full_grid_cstar(region: MLRegion, rw: Rewards) -> tuple[float, int]:
    """(C*, checks made) of ``cstar_enumeration`` over every admissible pair
    of the full grid of abscissae: the smallest candidate if it is feasible,
    else the bisection below it."""
    cands = [1.0] + _full_grid_pair_candidates(region, rw, _full_grid_xs(region, rw))
    c = min(min(v, 1.0) for v in cands if 0.0 <= v <= 1.0 + 1e-9)
    if _check(region, rw, c)[0]:
        return c, 1
    c_star, _, n_checks = _bisect(region, rw, rho(rw), c, 0.0)
    return c_star, 1 + n_checks
