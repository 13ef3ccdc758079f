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

from .bounds import FEAS_SLACK, BoundContext, _geometry, band_gap, bound_context, rho
from .errors import InfeasibleTarget, TargetOutOfRange
from .plfunction import PLFunction
from .ratios import Rewards, balance_levels
from .region import TOL, MLRegion


@dataclass(frozen=True)
class CStarResult:
    """Outcome of a maximum-consistency computation.  ``candidate_set`` holds
    the distinct candidates in [0, 1] of the vertex pairs, 1.0 among them,
    descending (empty for bisection); ``c_star`` is the smallest if feasible."""

    c_star: float
    method: str
    witness_x: float
    candidate_set: tuple[float, ...]
    n_checks: int


def _check(region: MLRegion, rw: Rewards, C: float) -> tuple[bool, float, BoundContext]:
    """Feasibility of target C, the witness abscissa of its band gap and its
    bound context: the one feasibility test of the package."""
    ctx = bound_context(region, rw, C)
    gap, witness = band_gap(ctx)
    return gap >= -FEAS_SLACK, witness, ctx


def feasible_context(region: MLRegion, rw: Rewards, C: float) -> BoundContext:
    """The bound context of target C; InfeasibleTarget when no valid
    protection level meets it."""
    ok, _, ctx = _check(region, rw, C)
    if not ok:
        raise InfeasibleTarget(f"consistency target {C} is not achievable")
    return ctx


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
        ok, w, _ = _check(region, rw, mid)
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
    ok, witness, _ = _check(region, rw, 1.0)
    if ok:
        return CStarResult(1.0, "bisect", witness, (), 1)
    c, witness, n_checks = _bisect(region, rw, rho(rw), 1.0, epsilon)
    return CStarResult(c, "bisect", witness, (), 1 + n_checks)


# most (under, over) pairs balanced at once, so the (5, n) temporaries of
# balance_levels stay small: the 1024-gon C* peaks at about 9 MB traced
_PAIR_BLOCK = 1 << 12
_UNDER, _OVER = 1, 2  # tag bits: an abscissa ends a piece of pw (under) or u (over)


def _enum_xs(region: MLRegion, rw: Rewards) -> dict[float, int]:
    """Abscissae eligible as binding points, ascending, with their tags: the
    ends of the pieces of both bound curves in the region's bound geometry
    (both envelopes' breakpoints, x_H, x = m and both envelopes' crossings
    with y = m and x + y = m, in [x_lo, x_hi]), less those within TOL of the
    last one kept, whose tags join its tag."""
    geo = _geometry(region, rw)
    pieces = ((_OVER, geo.u_pieces), (_UNDER, geo.l_pieces))
    xs: dict[float, int] = {}
    for t, tag in sorted((t, tag) for tag, ((t0, _, _), intervals) in pieces
                         for t in [t0] + [t for _, _, _, ends in intervals for t, _, _ in ends]):
        if not xs or t - x > TOL:
            x = t
        xs[x] = xs.get(x, 0) | tag
    return xs


def _pair_candidates(region: MLRegion, rw: Rewards, xs: dict[float, int]) -> list[float]:
    """Balancing ratios of the admissible vertex pairs of the ``_enum_xs``
    abscissae xs: (x, x) unless x is under and over, then (under, over)
    row-major, in blocks of whole under rows of about _PAIR_BLOCK pairs.
    A pair balances the under ratio at an upper-envelope point against the
    over ratio at a lower-envelope point, shifted by the slope -1 cone when
    the over point lies to the right.  The under and over piece ends and the
    diagonal, where the shift starts, cut the plane of pairs into an
    arrangement with these vertices; any other pair has a coordinate strictly
    inside its own curve's piece and off the diagonal, so it lies inside an
    edge.  Were the smallest vertex candidate not C*, it would be infeasible,
    and ``cstar_enumeration`` would bisect below it.
    """
    x, tag = np.array(list(xs), dtype=float), np.array(list(xs.values()))
    yu, yl = np.array(region.upper.at(xs)), np.array(region.lower.at(xs))
    (under,), (over,) = (tag & _UNDER).nonzero(), (tag & _OVER).nonzero()
    (diagonal,) = ((tag != _UNDER | _OVER) & ~(yu < yl)).nonzero()
    xo, yo, rows = x[over], yl[over], max(1, _PAIR_BLOCK // over.size)
    out: list[float] = []
    for r0 in range(0, under.size, rows):
        u = under[r0:r0 + rows, None]
        a, b = np.nonzero(~np.where(xo > x[u], yu[u] - yo < xo - x[u], yu[u] < yo))
        i, j = np.concatenate((diagonal, u[a, 0])), np.concatenate((diagonal, over[b]))
        diagonal = diagonal[:0]  # balanced with the first block only
        _, c, solved = balance_levels(x[i], yu[i], x[j], yl[j], np.maximum(x[j] - x[i], 0.0), rw)
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
    c = np.sort(c[(c >= 0.0) & (c <= 1.0)])[::-1]
    cands = c[np.concatenate(([True], c[1:] != c[:-1]))].tolist()
    ok, witness, _ = _check(region, rw, cands[-1])
    if ok:
        return CStarResult(cands[-1], "enum", witness, tuple(cands), 1)
    c_star, witness, n_checks = _bisect(region, rw, rho(rw), cands[-1], 0.0)
    return CStarResult(c_star, "enum", witness, tuple(cands), 1 + n_checks)


def consistent_pl(region: MLRegion, rw: Rewards, C: float) -> PLFunction:
    """Pointwise-smallest valid protection level meeting target C: the exact
    necessary floor, extended as a constant to max(m, x_bar)."""
    ctx = feasible_context(region, rw, C)
    bps = [(x, max(0.0, v)) for x, v in ctx.floor.breakpoints]
    end = max(rw.m, region.x_hi)
    if end > bps[-1][0]:
        bps.append((end, bps[-1][1]))
    return PLFunction(tuple(bps))
