"""The bound-layer loops give their per-point oracles' floats, bit for bit.

``bounds._pieces``, ``bounds._curve``, ``bounds.band_gap``,
``consistency._pair_candidates`` and ``ratios.balance_levels`` walk the
region's piece ends with few Python calls.  Each must give exactly the
floats of its per-point form, kept in ``conftest.py``: the pieces, the
pointwise curves and floor, the band gap with its witness and the balancing
candidates, compared as packed doubles.
"""

import dataclasses
import functools
import math
import struct
import warnings

import numpy as np
import pytest

from plpareto import (DemandModel, PLFunction, Rewards, bound_context, build_polygon,
                      cstar_enumeration, envelope, rho)
from plpareto import bounds
from plpareto.advice import box_advice, ellipse_advice, point_advice
from plpareto.consistency import _OVER, _UNDER, _enum_xs, _pair_candidates
from plpareto.harness import _sample_points
from plpareto.ratios import balance_levels
from plpareto.region import dedup_sorted

from conftest import (oracle_balance_levels, oracle_band_gap, oracle_cone_floor,
                      oracle_curve, oracle_pieces, random_region)
from test_consistency import FULL_GRID_REWARDS, NEAR_CIRCLES, _ellipse

RW = Rewards(1.0 / 3.0, 1.0, 20.0)

# the polygon whose floor fell faster than slope -1 over a 2.9e-8-wide
# segment, where n1 - d rounds at ulp(15.5)
MICRO_CONE = [(1.377950952722521e-07, 20.00000023103635),
              (5.000000078719275, 1.9550582783310235e-08),
              (20.000000047637673, 1.2926461227593415e-07),
              (5.0, 20.00000006635352)]


def _flat(obj):
    if isinstance(obj, (tuple, list)):
        yield float(len(obj))
        for item in obj:
            yield from _flat(item)
    else:
        yield float(obj)


def _bits(obj) -> bytes:
    """``obj``'s floats, nested tuple lengths included, as packed doubles."""
    values = list(_flat(obj))
    return struct.pack(f"<{len(values)}d", *values)


@functools.cache
def _corpus(name: str):
    if name == "hulls":
        rng = np.random.default_rng(23)
        return [random_region(rng) for _ in range(1500)]
    if name == "advice":
        rng, out = np.random.default_rng(7), []
        for _ in range(40):
            samples = _sample_points(DemandModel(), 10, rng).tolist()
            out += [box_advice(samples, 0.9), ellipse_advice(samples, 0.9), point_advice(samples)]
        return out
    out = [_ellipse(*spec) for spec in NEAR_CIRCLES]
    out += [build_polygon([(0.0, 21.0), (1.0, 1.0), (x0, 0.0)])
            for x0 in (2.5585587757775073e-287, 1e-300, 1e-17)]
    out.append(build_polygon(MICRO_CONE))
    # segments: sloped, flat, upright, along x + y = m and across y = m
    out += [build_polygon(seg) for seg in (
        [(2.0, 3.0), (14.0, 18.0)], [(3.0, 9.0), (17.0, 9.0)], [(8.0, 2.0), (8.0, 26.0)],
        [(4.0, 16.0), (16.0, 4.0)], [(1.0, 25.0), (24.0, 2.0)], [(0.0, 0.0), (30.0, 30.0)])]
    # single points: inside, on x + y = m, above y = m, beyond x = m, origin
    out += [build_polygon([pt]) for pt in (
        (12.0, 6.0), (5.0, 15.0), (3.0, 24.0), (25.0, 4.0), (0.0, 0.0), (20.0, 20.0))]
    return out


def _seeds(region, rw, geo):
    # the envelope points _build_geometry hands to _pieces: the lower
    # envelope's breakpoints, and the upper envelope's abscissae and x_H
    # clamped to [x_lo, x_hi]
    lo, hi = region.x_lo, region.x_hi
    l = dedup_sorted(sorted(min(max(x, lo), hi) for x in region.upper.xs + (geo.x_h,)), 1e-12)
    return list(region.lower.breakpoints), [(t, region.upper(t)) for t in l]


def _oracle_pair_candidates(region, rw, xs):
    # consistency._pair_candidates with the envelopes read through envelope()
    # and the oracle balancing, over the same pairs in one block: (x, x) for
    # each abscissa not tagged both under and over, then each (under, over)
    # pair in row-major order
    pairs = [(v, v) for v, tag in xs.items() if tag != _UNDER | _OVER]
    pairs += [(v, w) for v, tag_v in xs.items() if tag_v & _UNDER
              for w, tag_w in xs.items() if tag_w & _OVER]
    x1, x2 = (np.array(v, dtype=float) for v in zip(*pairs))
    y1 = np.array([envelope(region, v, "upper") for v in x1])
    y2 = np.array([envelope(region, v, "lower") for v in x2])
    right = x2 > x1
    ok = np.where(right, ~(y1 - y2 < x2 - x1), ~(y1 < y2))
    shift = np.where(right, x2 - x1, 0.0)
    _, c, solved = oracle_balance_levels(x1[ok], y1[ok], x2[ok], y2[ok], shift[ok], rw)
    return c[solved].tolist()


def _oracle_floor(pw: PLFunction):
    floor = oracle_cone_floor(bounds._running_max_bps(pw.breakpoints))
    if floor[0][0] > 1e-12:
        floor = [(0.0, floor[0][1])] + floor
    return tuple(floor)


@pytest.mark.parametrize("corpus", ["hulls", "advice", "special"])
def test_bound_loops_match_per_point_oracles(corpus):
    rw = RW
    n_floors = 0
    for region in _corpus(corpus):
        geo = bounds._geometry(region, rw)
        u_seeds, l_seeds = _seeds(region, rw, geo)
        u_pieces, l_pieces = oracle_pieces(u_seeds, rw), oracle_pieces(l_seeds, rw)
        assert _bits(geo.u_pieces) == _bits(u_pieces)
        assert _bits(geo.l_pieces) == _bits(l_pieces)
        xs = _enum_xs(region, rw)
        assert _bits(_pair_candidates(region, rw, xs)) == \
            _bits(_oracle_pair_candidates(region, rw, xs))
        c_star = cstar_enumeration(region, rw).c_star
        for C in (c_star, 0.9 * c_star, 1.0, rho(rw), 0.62):
            ctx = bound_context(region, rw, C)
            pw = oracle_curve(rw, C, l_pieces, bounds._l_terms, True)
            u = oracle_curve(rw, C, u_pieces, bounds._u_terms, False)
            assert _bits(ctx.pw.breakpoints) == _bits(pw.breakpoints)
            assert _bits(ctx.u.breakpoints) == _bits(u.breakpoints)
            floor = _oracle_floor(pw)
            if not PLFunction(floor).validate(rw.m, region.x_hi):
                assert _bits(ctx.floor.breakpoints) == _bits(floor)
                n_floors += 1
            assert _bits(bounds.band_gap(ctx)) == _bits(oracle_band_gap(ctx))
    # every floor but the micro-cone polygon's is compared
    assert n_floors >= 5 * len(_corpus(corpus)) - (5 if corpus == "special" else 0)


def test_band_gap_reads_an_inverted_curve_as_plfunction_does(rw):
    # a root can land an ulp past its piece end, and PLFunction tolerates the
    # inversion: band_gap must pick each segment with PLFunction's
    # bisect_right: at x = 10 it reads u = 12 and floor = 10.5, where a
    # merge walk would read u = 15
    region = build_polygon([(4.0, 4.0), (16.0, 4.0), (16.0, 16.0), (4.0, 16.0)])
    x, xp = 10.0, math.nextafter(10.0, math.inf)
    u = PLFunction(((4.0, 18.0), (xp, 15.0), (x, 12.0), (16.0, 17.0)))
    floor = PLFunction(((0.0, 11.0), (7.0, 11.0), (xp, 10.5), (x, 10.0), (16.0, 10.0)))
    ctx = dataclasses.replace(bound_context(region, rw, 0.8), u=u, floor=floor)
    assert bounds.band_gap(ctx) == oracle_band_gap(ctx) == (1.5, 10.0)
    probe = sorted({x, xp, math.nextafter(x, -math.inf), 4.0, 7.0, 16.0, 0.0, 20.0}
                   | set(np.linspace(0.0, 20.0, 41).tolist()))
    for f in (u, floor):
        assert _bits(f.at(probe)) == _bits([f(v) for v in probe])
        assert _bits(f.values(np.array(probe)).tolist()) == _bits(f.at(probe))


def test_balance_levels_match_the_oracle_on_degenerate_pairs():
    # zero denominators, points on x + y = m, y = m and x = m, magnitudes at
    # both ends of the float range, shifts past the interval or infinite,
    # and pairs within an ulp of the kinks, under every reward setting; no
    # numpy warning leaks out of the kernel, and Python floats give the bits
    # of one-element arrays
    rng = np.random.default_rng(31)
    n = 20000
    for rw in FULL_GRID_REWARDS:
        m = rw.m
        special = np.array([0.0, 1e-300, 5e-324, 1e-17, 1e300, 4.0, 10.0, 16.0, 20.0,
                            math.nextafter(20.0, 0.0), math.nextafter(20.0, 30.0), 25.0,
                            m, math.nextafter(m, 0.0), math.nextafter(m, math.inf), m / 2.0])
        cols = [np.where(rng.random(n) < 0.5, rng.choice(special, n), rng.uniform(0.0, 30.0, n))
                for _ in range(4)]
        shift = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 25.0, n))
        shift = np.where(rng.random(n) < 0.1, rng.choice([math.inf, 1e300], n), shift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = balance_levels(*cols, shift, rw)
            ones = [balance_levels(*(float(c[i]) for c in cols), float(shift[i]), rw)
                    for i in range(0, n, 41)]
        want = oracle_balance_levels(*cols, shift, rw)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        for i, one in zip(range(0, n, 41), ones):
            for a, g in zip(one, got):
                assert a.shape == () and a.tobytes() == g[i:i + 1].tobytes()
