import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_key_points, random_region
from plpareto import (DemandModel, Rewards, box_advice, build_polygon, contains, cstar_enumeration,
                      ellipse_advice, envelope, key_points, point_advice, polygonize_ellipse,
                      solve_pareto, x_vertices)
from plpareto.harness import _sample_points
from plpareto.errors import NegativeCoordinate, NotPSD, OutOfDomain
from plpareto.region import MAX_SEGMENTS, TOL

coord = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
points = st.lists(st.tuples(coord, coord), min_size=1, max_size=20)


def test_negative_coordinate_rejected():
    with pytest.raises(NegativeCoordinate):
        build_polygon([(1.0, -2.0)])


def test_single_point_is_degenerate():
    reg = build_polygon([(3.0, 4.0)])
    assert reg.degenerate
    assert reg.vertices == ((3.0, 4.0),)
    assert envelope(reg, 3.0, "lower") == 4.0 == envelope(reg, 3.0, "upper")


def test_collinear_points_become_segment():
    reg = build_polygon([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    assert reg.degenerate
    assert set(reg.vertices) == {(0.0, 0.0), (2.0, 2.0)}


def test_duplicate_points_collapse():
    reg = build_polygon([(1, 1)] * 5 + [(2, 2)] * 3)
    assert reg.degenerate
    assert set(reg.vertices) == {(1.0, 1.0), (2.0, 2.0)}


def test_square_hull_ccw_and_envelopes():
    reg = build_polygon([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 0.5)])
    assert set(reg.vertices) == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}
    assert envelope(reg, 1.0, "lower") == 0.0
    assert envelope(reg, 1.0, "upper") == 2.0
    with pytest.raises(OutOfDomain):
        envelope(reg, 3.0, "lower")


def test_envelope_rejects_unknown_side():
    reg = build_polygon([(0, 0), (2, 0), (2, 30), (0, 30)])
    with pytest.raises(ValueError):
        envelope(reg, 1.0, "bogus")


@given(points)
@settings(max_examples=200, deadline=None)
def test_hull_contains_all_inputs(pts):
    reg = build_polygon(pts)
    for x, y in pts:
        assert contains(reg, x, y, tol=1e-6)


@given(points)
@settings(max_examples=100, deadline=None)
def test_envelope_order(pts):
    reg = build_polygon(pts)
    for t in np.linspace(reg.x_lo, reg.x_hi, 17):
        assert envelope(reg, float(t), "lower") <= envelope(reg, float(t), "upper") + 1e-9


def test_key_points_sum_region(sum_region):
    kp = key_points(sum_region, 20.0)
    assert kp.L == (16.0, 4.0)
    assert kp.H == (9.0, 16.0)
    assert x_vertices(sum_region, 20.0) == (4.0, 9.0, 16.0)


def test_key_points_diff_region(diff_region):
    kp = key_points(diff_region, 20.0)
    assert kp.L == (4.0, 4.0)
    assert kp.H == (16.0, 16.0)
    assert x_vertices(diff_region, 20.0) == (4.0, 10.0, 11.0, 16.0)


# the polygon of the CI micro-cone step: every vertex lies within 2.4e-7 of
# an axis, of y = 20 or of x + y = 20
MICRO_CONE = [(1.377950952722521e-07, 20.00000023103635), (5.000000078719275, 1.9550582783310235e-08),
              (20.000000047637673, 1.2926461227593415e-07), (5.0, 20.00000006635352)]


def key_points_corpus(m):
    """Regions on which key_points and x_vertices are checked at capacity m:
    random hulls, clouds of 1-11 points (points and segments among them),
    the same on the integer grid (ties in y, vertical edges, vertices on
    y = m and x + y = m), ellipse, box and point advice, and edge regions."""
    rng = np.random.default_rng(23)
    for _ in range(1000):
        yield random_region(rng)
    for grid in (False, True):
        for _ in range(1000):
            pts = rng.uniform(0.0, 40.0, size=(int(rng.integers(1, 12)), 2))
            yield build_polygon([tuple(p) for p in (np.floor(pts) if grid else pts)])
    model = DemandModel()
    for _ in range(100):
        pts = _sample_points(model, 10, rng).tolist()
        yield ellipse_advice(pts, 0.9, 64)
        yield box_advice(pts, 0.9)
        yield point_advice(pts)
    yield build_polygon([(2.0, m + 5.0), (8.0, m + 5.0), (8.0, m + 20.0), (2.0, m + 20.0)])
    yield build_polygon([(2.0, 3.0), (9.0, 1.0), (9.0, m), (4.0, m)])
    yield build_polygon([(3.0, 2.0), (9.0, 6.0), (9.0, m + 5.0), (3.0, m - 2.0)])
    yield build_polygon([(2.0, m + 10.0), (12.0, 4.0)])
    yield build_polygon([(5.0, m)])
    yield build_polygon([(5.0, 7.0)])
    yield build_polygon(MICRO_CONE)
    # a segment along x + y = m with its ends within TOL of it, on either side
    yield build_polygon([(0.0, m - 5e-10), (10.0, m - 10.0 + 2e-9)])
    # the same with the right end within TOL: neither end starts a crossing
    yield build_polygon([(0.0, m - 2e-9), (10.0, m - 10.0 + 5e-10)])
    # vertices 5e-10 apart in x are one abscissa
    yield build_polygon([(0.0, 0.0), (10.0, 0.0), (10.0 + 5e-10, 5.0), (10.0, 10.0), (0.0, 10.0)])
    # bottom and top edges that tilt by less than TOL
    yield build_polygon([(2.0, 3.0 + 5e-10), (9.0, 3.0), (9.0, 15.0), (4.0, 15.0 + 5e-10)])


@pytest.mark.parametrize("m", [10.0, 20.0, 35.0])
def test_key_points_match_the_walk_oracle(m):
    # L and H read off the envelopes, and x_vertices' own crossings, equal the
    # vertex scans and the r0 walk they replaced, exactly
    for region in key_points_corpus(m):
        L, H, xs = oracle_key_points(region, m)
        kp = key_points(region, m)
        assert (kp.L, kp.H) == (L, H), region.vertices
        assert x_vertices(region, m) == xs, region.vertices


def test_key_points_h_within_tol_below_m_stays_on_the_envelope():
    # the upper envelope lies within TOL of m from x = 0 to 10, and H is its
    # rightmost breakpoint there; the walk moved H to where the next segment's
    # line crosses y = m, at t = -1/3 of that segment, off the envelope
    reg = build_polygon([(0.0, 20.0 + 1e-12), (5.0, 20.0 - 5e-10), (10.0, 20.0 - 2e-9),
                         (10.0, 0.0), (0.0, 0.0)])
    assert key_points(reg, 20.0).H == (5.0, 20.0 - 5e-10)
    assert oracle_key_points(reg, 20.0)[1][0] < 3.34


def test_key_points_l_is_the_bottom_not_a_vertex_1e_8_above_it():
    # (2, 5 + 1e-8) is 1e-8 above the bottom (4, 5): more than TOL, so it is
    # not the leftmost bottom point
    reg = build_polygon([(0.0, 10.0), (2.0, 5.0 + 1e-8), (4.0, 5.0), (10.0, 10.0), (5.0, 20.0)])
    assert reg.lower.breakpoints[1:3] == ((2.0, 5.0 + 1e-8), (4.0, 5.0))
    assert key_points(reg, 20.0).L == (4.0, 5.0)


def test_envelope_keeps_chain_points_1e_8_apart_in_x():
    # 1e-8 is more than TOL: two vertices, not one
    reg = build_polygon([(0.0, 10.0), (5.0, 0.0), (5.0 + 1e-8, 0.0), (10.0, 10.0)])
    assert reg.lower.breakpoints == ((0.0, 10.0), (5.0, 0.0), (5.0 + 1e-8, 0.0), (10.0, 10.0))


def test_key_points_high_region_caps_h():
    # upper envelope exceeds m; H sits where the envelope still reaches m
    reg = build_polygon([(0, 0), (10, 0), (10, 30), (0, 30)])
    kp = key_points(reg, 20.0)
    assert kp.H == (10.0, 20.0)


def test_polygonize_ellipse_circle():
    reg = polygonize_ellipse((10.0, 10.0), [[2.0, 0.0], [0.0, 2.0]], segments=64)
    assert not reg.degenerate
    for x, y in reg.vertices:
        assert abs(math.hypot(x - 10, y - 10) - 2.0) < 1e-9


def test_polygonize_ellipse_clips_quadrant():
    reg = polygonize_ellipse((1.0, 1.0), [[3.0, 0.0], [0.0, 3.0]], segments=64)
    assert all(x >= -1e-12 and y >= -1e-12 for x, y in reg.vertices)


def test_polygonize_ellipse_clips_onto_the_axis_exactly():
    # the edge's crossing of y = 0 interpolates y to 2.8e-17 unless the clip
    # sets the coordinate it clips on
    reg = polygonize_ellipse((1.929, 1.305), [[2.783, -0.108], [-0.108, 2.014]], segments=16)
    assert any(x > 4.0 and y == 0.0 for x, y in reg.vertices)
    assert not any(0.0 < abs(v) < 1e-9 for p in reg.vertices for v in p)


def test_polygonize_ellipse_zero_shape_is_point():
    reg = polygonize_ellipse((5.0, 6.0), [[0.0, 0.0], [0.0, 0.0]])
    assert reg.degenerate and reg.vertices == ((5.0, 6.0),)


def test_polygonize_ellipse_rejects_bad_shape():
    with pytest.raises(NotPSD):
        polygonize_ellipse((5.0, 5.0), [[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(NotPSD):
        polygonize_ellipse((5.0, 5.0), [[1.0, 2.0], [2.0, 1.0]])


def test_contains_boundary_and_outside():
    reg = build_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert contains(reg, 2.0, 0.0)
    assert contains(reg, 4.0, 4.0)
    assert not contains(reg, 4.1, 4.1)


@pytest.mark.parametrize("region", [
    [(0, 0), (4, 0), (4, 4), (0, 4)], [(3.0, 4.0)], [(0.0, 0.0), (2.0, 2.0)],
], ids=["polygon", "point", "segment"])
@pytest.mark.parametrize("x,y", [(math.nan, math.nan), (10.0, math.nan), (math.nan, 1.0),
                                 (math.inf, 1.0), (1.0, -math.inf)])
def test_contains_rejects_non_finite_point(region, x, y):
    with pytest.raises(OutOfDomain):
        contains(build_polygon(region), x, y)


@pytest.mark.parametrize("region,tol", [
    ([(0, 0), (4, 0), (4, 4), (0, 4)], math.nan), ([(1.0, 1.0)], math.inf),
    ([(0, 0), (4, 0), (4, 4), (0, 4)], -1e-9),
], ids=["polygon-nan", "point-inf", "polygon-negative"])
def test_contains_rejects_bad_tolerance(region, tol):
    with pytest.raises(ValueError, match="tolerance"):
        contains(build_polygon(region), 100.0, 100.0, tol=tol)


@pytest.mark.parametrize("m", [math.nan, math.inf, 0.0, -1.0])
def test_key_points_reject_bad_capacity(sum_region, m):
    with pytest.raises(ValueError):
        key_points(sum_region, m)
    with pytest.raises(ValueError):
        x_vertices(sum_region, m)


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
def test_non_finite_coordinate_rejected(bad):
    with pytest.raises(ValueError):
        build_polygon([(0.0, 0.0), (5.0, 0.0), bad])


def test_envelopes_are_pl_functions():
    reg = build_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
    assert reg.lower.breakpoints == ((0.0, 0.0), (4.0, 0.0))
    assert reg.upper.breakpoints == ((0.0, 4.0), (4.0, 4.0))
    assert envelope(reg, 1.5, "upper") == reg.upper(1.5)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_envelope_at_nan_raises_out_of_domain(diff_region, side):
    with pytest.raises(OutOfDomain):
        envelope(diff_region, math.nan, side)


@pytest.mark.parametrize("center,shape", [
    ((math.nan, 10.0), [[4.0, 0.0], [0.0, 4.0]]),
    ((10.0, math.inf), [[4.0, 0.0], [0.0, 4.0]]),
    ((10.0, 10.0), [[math.nan, 0.0], [0.0, 4.0]]),
    ((10.0, 10.0), [[4.0, math.nan], [math.nan, 4.0]]),
])
def test_polygonize_ellipse_rejects_non_finite(center, shape):
    # rejected before clipping, which would drop NaN vertices and report
    # NegativeCoordinate
    with pytest.raises(ValueError, match="non-finite"):
        polygonize_ellipse(center, shape)


@pytest.mark.parametrize("segments", [MAX_SEGMENTS + 1, 2, 64.0, "64"])
def test_polygonize_ellipse_rejects_segment_count_before_building(segments, monkeypatch):
    import plpareto.region as region

    def unreachable(*a):
        raise AssertionError("polygon built")

    monkeypatch.setattr(region, "build_polygon", unreachable)
    monkeypatch.setattr(region, "_clip_quadrant", unreachable)
    with pytest.raises(ValueError, match="segments"):
        polygonize_ellipse((10.0, 10.0), [[2.0, 0.0], [0.0, 2.0]], segments)
    # a zero shape, which needs no polygon, is checked too
    with pytest.raises(ValueError, match="segments"):
        polygonize_ellipse((10.0, 10.0), [[0.0, 0.0], [0.0, 0.0]], segments)


def test_polygonize_ellipse_accepts_the_largest_segment_count():
    reg = polygonize_ellipse((10.0, 10.0), [[2.0, 0.0], [0.0, 2.0]], MAX_SEGMENTS)
    assert len(reg.vertices) == MAX_SEGMENTS


@pytest.mark.parametrize("center", [(), (10.0,), (10.0, 10.0, 1.0)])
def test_polygonize_ellipse_rejects_centre_of_wrong_length(center):
    with pytest.raises(ValueError):
        polygonize_ellipse(center, [[2.0, 0.0], [0.0, 2.0]])


# -- input-boundary tolerances: a rounding past a bound is taken, 10x TOL is not


@pytest.mark.parametrize("axis", [0, 1])
def test_build_polygon_takes_a_coordinate_a_rounding_below_zero_as_zero(axis):
    for below, ok in ((-0.5 * TOL, True), (-10.0 * TOL, False)):
        pt = [3.0, 4.0]
        pt[axis] = below
        if ok:
            assert build_polygon([tuple(pt)]).vertices[0][axis] == 0.0
        else:
            with pytest.raises(NegativeCoordinate):
                build_polygon([tuple(pt)])


@pytest.mark.parametrize("end", ["lo", "hi"])
def test_envelope_reads_an_abscissa_a_rounding_outside_at_the_end(end, sum_region):
    x, step = (sum_region.x_lo, -TOL) if end == "lo" else (sum_region.x_hi, TOL)
    for side in ("lower", "upper"):
        assert envelope(sum_region, x + 0.5 * step, side) == envelope(sum_region, x, side)
        with pytest.raises(OutOfDomain):
            envelope(sum_region, x + 10.0 * step, side)


def test_polygonize_ellipse_takes_a_shape_a_rounding_from_psd():
    # trace and determinant a rounding below 0, a shape a rounding from 0 and
    # a rounding of asymmetry are taken; ten times those bounds are not
    point = [(5.0, 6.0)]
    assert polygonize_ellipse((5.0, 6.0), [[-0.5 * TOL, 0.0], [0.0, 0.0]]).vertices == tuple(point)
    assert polygonize_ellipse((5.0, 6.0), [[0.5 * TOL, 0.0], [0.0, 0.5 * TOL]]).vertices == tuple(point)
    assert len(polygonize_ellipse((5.0, 6.0), [[10.0 * TOL, 0.0], [0.0, 10.0 * TOL]]).vertices) > 1
    with pytest.raises(NotPSD):
        polygonize_ellipse((5.0, 6.0), [[-10.0 * TOL, 0.0], [0.0, 0.0]])
    # the determinant's bound is 1e-7 max(1, tr^2), here 4e-7
    for slack, ok in ((2e-7, True), (4e-6, False)):
        b = math.sqrt(1.0 + slack)
        if ok:
            assert not polygonize_ellipse((5.0, 6.0), [[1.0, b], [b, 1.0]]).degenerate
        else:
            with pytest.raises(NotPSD):
                polygonize_ellipse((5.0, 6.0), [[1.0, b], [b, 1.0]])
    assert not polygonize_ellipse((5.0, 6.0), [[1.0, 0.2 + 5e-8], [0.2, 1.0]]).degenerate
    with pytest.raises(NotPSD):
        polygonize_ellipse((5.0, 6.0), [[1.0, 0.2 + 1e-6], [0.2, 1.0]])


@pytest.mark.parametrize("region,outside", [
    ([(0, 0), (4, 0), (4, 4), (0, 4)], (4.0, 2.0)),
    ([(3.0, 4.0)], (3.0, 4.0)),
    ([(0.0, 0.0), (2.0, 2.0)], (1.0, 1.0)),
], ids=["polygon", "point", "segment"])
def test_contains_default_tolerance_is_tol(region, outside):
    # from a boundary point, a rounding outside is in and 5 or 10 times TOL
    # outside is out: points and segments take the same tolerance as polygons
    reg = build_polygon(region)
    x, y = outside
    dx, dy = (1.0, 0.0) if len(region) != 2 else (0.5 ** 0.5, -(0.5 ** 0.5))
    assert contains(reg, x + 0.5 * TOL * dx, y + 0.5 * TOL * dy)
    for far in (5.0, 10.0):
        assert not contains(reg, x + far * TOL * dx, y + far * TOL * dy)


def test_contains_checks_every_edge_however_short():
    # a 100 x 1e-10 strip: its two short edges close it on the left and right
    reg = build_polygon([(0.0, 0.0), (100.0, 0.0), (100.0, 1e-10), (0.0, 1e-10)])
    assert not reg.degenerate
    assert contains(reg, 50.0, 5e-11)
    assert not contains(reg, 1000.0, 0.0)
    assert not contains(reg, -500.0, 5e-11)


def test_envelope_joins_chain_points_within_tol_in_x():
    # an edge that leans 1e-10 off the vertical is one vertical edge: each
    # envelope keeps its end, and the region solves as the vertical one
    rw = Rewards(1.0 / 3.0, 1.0, 20.0)
    for lean in (1e-10, -1e-10):
        reg = build_polygon([(2.0, 3.0), (10.0, 1.0), (10.0 + lean, 8.0), (4.0, 15.0)])
        upright = build_polygon([(2.0, 3.0), (10.0, 1.0), (10.0, 8.0), (4.0, 15.0)])
        assert reg.lower.breakpoints == upright.lower.breakpoints == ((2.0, 3.0), (10.0, 1.0))
        assert reg.x_hi == 10.0
        c_star = cstar_enumeration(reg, rw).c_star
        assert c_star == cstar_enumeration(upright, rw).c_star
        assert solve_pareto(reg, rw, 0.9 * c_star).p_star == solve_pareto(upright, rw, 0.9 * c_star).p_star
