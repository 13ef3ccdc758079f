import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from plpareto import advice, box_advice, build_polygon, contains, ellipse_advice, point_advice
from plpareto.errors import NegativeCoordinate
from plpareto.harness import DemandModel, _sample_points, sample_demand
from plpareto.region import MAX_SEGMENTS, TOL

from conftest import oracle_ellipse_advice


def test_box_full_coverage_is_bounding_box():
    reg = box_advice([(1, 2), (5, 9), (3, 4)])
    assert set(reg.vertices) == {(1.0, 2.0), (5.0, 2.0), (5.0, 9.0), (1.0, 9.0)}


def test_box_trimming_drops_extremes():
    pts = [(10, 10)] * 8 + [(30, 10), (10, 30)]
    reg = box_advice(pts, coverage=0.8)
    assert set(reg.vertices) == {(10.0, 10.0)} or reg.degenerate


def test_box_coverage_keeps_fraction():
    rng = np.random.default_rng(2)
    pts = [tuple(p) for p in rng.uniform(0, 30, size=(50, 2))]
    reg = box_advice(pts, coverage=0.8)
    inside = sum(contains(reg, x, y, tol=1e-9) for x, y in pts)
    assert inside >= 40


def test_box_bad_coverage_rejected():
    with pytest.raises(ValueError):
        box_advice([(1, 1)], coverage=0.0)
    with pytest.raises(ValueError):
        box_advice([], coverage=1.0)


def test_ellipse_covers_all_samples():
    rng = np.random.default_rng(4)
    pts = [tuple(p) for p in rng.uniform(2, 28, size=(40, 2))]
    reg = ellipse_advice(pts, segments=128)
    for x, y in pts:
        assert contains(reg, x, y, tol=1e-6)


def test_ellipse_tighter_than_box():
    rng = np.random.default_rng(9)
    raw = rng.normal(0, 1, size=(60, 2)) @ np.array([[3.0, 1.0], [0.0, 1.0]])
    pts = [tuple(p) for p in raw + 15.0]
    box = box_advice(pts)
    ell = ellipse_advice(pts, segments=256)

    def area(reg):
        v = reg.vertices
        return 0.5 * abs(
            sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]))
        )

    assert area(ell) < area(box)


def test_ellipse_collinear_falls_back():
    reg = ellipse_advice([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    assert reg.degenerate
    assert set(reg.vertices) == {(1.0, 1.0), (3.0, 3.0)}


def test_ellipse_trimming_drops_outlier():
    pts = [(15.0 + dx, 15.0 + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
    pts.append((29.0, 29.0))
    reg = ellipse_advice(pts, coverage=0.9, segments=64)
    assert not contains(reg, 29.0, 29.0, tol=1e-3)
    for x, y in pts[:-1]:
        assert contains(reg, x, y, tol=1e-6)


def test_point_advice_is_mean():
    reg = point_advice([(1, 2), (3, 6)])
    assert reg.degenerate
    assert reg.vertices == ((2.0, 4.0),)


@pytest.mark.parametrize("build", [
    lambda pts: box_advice(pts, 0.75),
    lambda pts: ellipse_advice(pts, 0.75),
    point_advice,
], ids=["box", "ellipse", "point"])
@pytest.mark.parametrize("bad, error", [
    ((float("nan"), 3.0), ValueError),
    ((3.0, float("inf")), ValueError),
    ((-5.0, 1.0), NegativeCoordinate),
], ids=["nan", "inf", "negative"])
def test_builders_reject_bad_samples_before_trimming(build, bad, error):
    # a bad sample is an error even where trimming would drop it, and is
    # found before the trimming computes anything with it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build([(1.0, 1.0), (2.0, 2.0), bad, (4.0, 4.0)])


def test_ellipse_advice_rejects_segment_count_over_the_cap(monkeypatch):
    import plpareto.advice as advice

    def unreachable(*a):
        raise AssertionError("ellipse fitted")

    monkeypatch.setattr(advice, "_mvee", unreachable)
    with pytest.raises(ValueError, match="segments"):
        ellipse_advice([(10.0, 10.0), (12.0, 11.0), (11.0, 14.0)], segments=MAX_SEGMENTS + 1)
    with pytest.raises(ValueError, match="segments"):
        ellipse_advice([(10.0, 10.0), (12.0, 11.0), (11.0, 14.0)], segments=0)


def mvee_oracle(points, tol=1e-9, max_iter=20000):
    """The numpy fit that ``advice._mvee`` replaced: Frank-Wolfe with away
    steps only, one numpy inverse and einsum per pass.  Returns (center, A,
    passes), or None when the points are (near) collinear."""
    n, d = points.shape
    q = np.column_stack([points, np.ones(n)])
    u = np.full(n, 1.0 / n)
    for passes in range(max_iter):
        x = q.T @ (q * u[:, None])
        try:
            inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:
            return None
        kappa = np.einsum("ij,jk,ik->i", q, inv, q)
        j_max = int(np.argmax(kappa))
        k_max = kappa[j_max]
        support = u > 1e-12
        j_min = int(np.argmin(np.where(support, kappa, np.inf)))
        k_min = kappa[j_min]
        err = max(k_max / (d + 1) - 1.0, 1.0 - k_min / (d + 1))
        if err <= tol:
            break
        if k_max / (d + 1) - 1.0 >= 1.0 - k_min / (d + 1):
            j, k = j_max, k_max
        else:
            j, k = j_min, k_min
        if abs(k - 1.0) <= 1e-15:
            break
        lam = (k - d - 1.0) / ((d + 1) * (k - 1.0))
        lam = max(lam, -u[j] / (1.0 - u[j]) if u[j] < 1.0 else lam)
        u = (1.0 - lam) * u
        u[j] += lam
        u = np.maximum(u, 0.0)
        u /= u.sum()
    c = points.T @ u
    cov = points.T @ (points * u[:, None]) - np.outer(c, c)
    det = np.linalg.det(cov)
    if not np.isfinite(det) or det <= 1e-18 * max(1.0, float(np.trace(cov)) ** d):
        return None
    a = np.linalg.inv(cov) / d
    dev = points - c
    dmax = float(np.max(np.einsum("ij,jk,ik->i", dev, a, dev)))
    if dmax > 0.0:
        a = a / dmax
    return c, a, passes


# Frank-Wolfe plus Newton steps that every fit below must finish within; the
# largest count on the seeded corpus is 27, and on 9,000 seeded DemandModel()
# fits of 9 and 10 samples the most X(u) builds of one fit, polish included,
# is 119
MVEE_STEP_BOUND = 150


def frame_kappa(frame, u):
    """kappa_i = q_i^T X(u)^-1 q_i of weights u on the points of frame, on
    fresh numpy arithmetic."""
    q = np.column_stack([frame, np.ones(len(frame))])
    return np.einsum("ij,jk,ik->i", q, np.linalg.inv(q.T @ (q * u[:, None])), q)


def fitted_frame_weights(pts):
    """``_mvee`` on pts, the frame it fits them in, and the weights of that
    frame, which meet the stop test on fresh numpy arithmetic within
    MVEE_STEP_BOUND steps."""
    with mock.patch.object(advice, "_mvee_weights", wraps=advice._mvee_weights) as spy:
        fit = advice._mvee(pts)
    frame = spy.call_args.args[0]
    u = advice._mvee_weights(frame, 1e-9, MVEE_STEP_BOUND)
    assert u is not None
    u = np.array(u)
    kappa = frame_kappa(frame, u)
    assert kappa.max() <= 3 * (1 + 1e-9)
    assert kappa[u > 1e-12].min() >= 3 * (1 - 1e-9)
    return fit, frame, u


def check_mvee_fit(pts, oracle_iter=20000):
    """``_mvee`` on pts against the stop test, the oracle and the samples;
    returns its weights and the oracle's pass count."""
    (c, (m11, m12, m22), d, _), _, u = fitted_frame_weights(pts.tolist())
    a = np.linalg.inv([[m11, m12], [m12, m22]])
    want_c, want_a, passes = mvee_oracle(pts, max_iter=oracle_iter)
    assert np.linalg.norm(c - want_c) <= 1e-7 * np.linalg.norm(want_c)
    assert np.linalg.norm(a - want_a) <= 1e-7 * np.linalg.norm(want_a)
    dev = pts - c
    assert np.einsum("ij,jk,ik->i", dev, a, dev).max() <= 1.0 + 1e-12
    assert max(d) == 1.0
    return u, passes


def demand_samples():
    """400 sets of ten DemandModel() samples from default_rng(2024)."""
    rng = np.random.default_rng(2024)
    model = DemandModel()
    for _ in range(400):
        yield np.array([(p.x, p.y) for p in (sample_demand(model, rng) for _ in range(10))])


def test_mvee_matches_numpy_oracle_on_demand_samples():
    for pts in demand_samples():
        check_mvee_fit(pts)


def test_mvee_polish_reaches_rounding_level():
    # the Newton polish after the stop test takes the error of these fits from
    # up to 6.4e-11 down to rounding level
    for pts in demand_samples():
        _, frame, u = fitted_frame_weights(pts.tolist())
        kappa = frame_kappa(frame, u)
        assert max(kappa.max() / 3 - 1, 1 - kappa[u > 1e-12].min() / 3) <= 1e-13


# ten samples of DemandModel() (set 72 of demand_samples()) whose whitened
# coordinates take their min and max on 2 points only, too few for the
# Kumar-Yildirim start: the fit starts from uniform weights
UNIFORM_START_FIT = [
    (18.14018995338703, 12.763706430823184), (10.797422573049083, 17.41677764440099),
    (11.344016955510016, 16.896046363533305), (15.404123740791292, 13.59637651357344),
    (10.241933090100227, 10.855844741294426), (19.800966864123502, 19.75715278871865),
    (12.262454373659622, 15.28115552239908), (13.803209574718803, 13.01530862977695),
    (19.15830846426432, 14.387217371932577), (16.61452586217073, 14.24442820099701),
]


def test_mvee_uniform_start_case():
    _, frame, _ = fitted_frame_weights(UNIFORM_START_FIT)
    ends = {tuple(frame[pick(range(len(frame)), key=lambda i: frame[i][k])])
            for k in (0, 1) for pick in (min, max)}
    assert len(ends) < 3
    assert advice._start_weights(frame) == [1.0 / len(frame)] * len(frame)
    check_mvee_fit(np.array(UNIFORM_START_FIT))


# ten samples of DemandModel() on which the oracle takes 13,061 passes: the
# optimal support has 5 points, where the away-step iteration converges only
# linearly
SLOW_FIT = [
    (17.353960594646693, 10.980780212559889), (12.061340339787463, 19.328055305028364),
    (12.71376768780938, 16.041518162350883), (18.598775667917113, 11.615255219374024),
    (14.427376457777884, 11.243756804355016), (14.799994691975034, 22.576274521907134),
    (0.5895337143639023, 16.64184897452863), (18.794754649366205, 15.672581931241123),
    (13.965366207443152, 10.117924446208043), (14.353629655740715, 16.96558418931895),
]


def test_mvee_slow_oracle_case():
    u, passes = check_mvee_fit(np.array(SLOW_FIT))
    assert passes > 10_000
    assert 4 <= (u > 1e-12).sum() <= 5


# ten samples of DemandModel() (fit 338 of 6,000 from default_rng(7)) whose
# optimum drops a sixth support point: a Newton step that stopped there and
# fell back to Frank-Wolfe took 2,443 steps
DROPPED_SUPPORT_FIT = [
    (14.538078319991133, 19.04616985115089), (11.541582246322218, 11.453856152119764),
    (19.287019141262498, 14.764996414597768), (16.26687947868799, 15.307256506519611),
    (13.379222701328473, 15.645653609638394), (16.79753829911312, 16.937630284394988),
    (17.754411070757666, 13.601162008321612), (18.78725739699598, 19.412799700368225),
    (19.359615232951032, 18.940367721807537), (19.954813284278103, 17.488479436523114),
]

# nine samples of DemandModel() (fit 2,729 of 3,000 from default_rng(9)) on
# which that fallback ran all 20,000 passes without meeting the stop test,
# and the oracle needs 46,385 passes
CRAWL_FIT = [
    (10.182999624406051, 18.141587682361404), (17.069854938518734, 18.051172714874916),
    (21.756054727816025, 12.929827323927867), (13.568946074254338, 16.295284876077414),
    (11.348376213419204, 13.745637827758578), (11.494872728679077, 18.991485200458886),
    (12.688909127118752, 14.973209821530457), (16.575056922586718, 10.6224107501792),
    (13.536450771467619, 19.010471284385158),
]


def test_mvee_dropped_support_case():
    check_mvee_fit(np.array(DROPPED_SUPPORT_FIT))


def test_mvee_crawl_case():
    _, passes = check_mvee_fit(np.array(CRAWL_FIT), oracle_iter=100_000)
    assert passes > 20_000


def test_newton_step_is_cut_at_the_simplex_boundary():
    # the fourth point lies inside the hull of the others, so its optimal weight is 0 and
    # the full Newton step from these weights takes it below 0
    pts = [(10.0, 11.0), (17.0, 12.5), (12.0, 19.0), (14.0, 14.0), (18.0, 17.0)]
    u = [0.25, 0.2, 0.25, 0.05, 0.25]
    q = np.column_stack([pts, np.ones(len(pts))])
    inv = np.linalg.inv(q.T @ (q * np.array(u)[:, None]))
    kappa = np.einsum("ij,jk,ik->i", q, inv, q)
    step = advice._newton_weights(u, kappa.tolist(), (q @ inv).tolist(), pts, list(range(len(pts))))
    assert step is not None
    assert min(step) >= 0.0
    assert abs(sum(step) - 1.0) <= 1e-15
    assert step[3] == 0.0
    assert min(step[:3] + step[4:]) > 0.0


# a thin set on which the fit in the points' own frame ran all 20,000 passes:
# X(u) is too ill-conditioned there for kappa to meet the stop test, and the
# weights ended up to 2.4% off their optimum 1/3; its three points lie on the
# optimal ellipse, and distances taken in that frame put them at 0.99936 to 1
THIN_FIT = [(1e6, 1e6), (2e6, 2e6 + 1), (3e6, 3e6)]


def test_mvee_thin_set_case():
    fit, _, u = fitted_frame_weights(THIN_FIT)
    assert fit is not None
    assert np.abs(u - 1.0 / 3.0).max() <= 1e-12
    assert np.abs(np.array(fit[2]) - 1.0).max() <= 1e-12


def test_ellipse_advice_root_on_the_thin_set(monkeypatch):
    # the optimal weights are 1/3 on the three points, so M = 2 S for their
    # scatter S and det M = 16e12/27; the polygon's shape (M + r I) / k has
    # det r / cos(pi/64)^2 for the root r = sqrt(det M).  M11 M22 - M12^2 of
    # the fit's rounded M put det M 2.6e-4 off
    pts = [tuple(map(Fraction, p)) for p in THIN_FIT]
    mean = [sum(p[k] for p in pts) / 3 for k in (0, 1)]
    s11, s12, s22 = (sum((p[i] - mean[i]) * (p[j] - mean[j]) for p in pts) / 3
                     for i, j in ((0, 0), (0, 1), (1, 1)))
    det_m = 4 * (s11 * s22 - s12 * s12)
    assert det_m == Fraction(16 * 10**12, 27)
    fit = advice._mvee(THIN_FIT)
    assert abs(Fraction(fit[3]) / det_m - 1) <= 1e-14
    shapes = []
    monkeypatch.setattr(advice, "polygonize_ellipse", lambda c, shape, segments: shapes.append(shape))
    ellipse_advice(THIN_FIT)
    (a, b), (_, e) = ([Fraction(v) for v in row] for row in shapes[0])
    root = float(a * e - b * b) * math.cos(math.pi / 64) ** 2
    assert abs(root / math.sqrt(det_m) - 1) <= 1e-9


def test_ellipse_advice_matches_oracle(monkeypatch):
    # 2,100 regions of 10 samples at 64 segments against the numpy advice;
    # every fit's largest distance is 1, and the polygon's shape is a
    # symmetric square root of the last fit's M
    fits, shapes = [], []
    mvee, polygonize = advice._mvee, advice.polygonize_ellipse

    def fit(points):
        fits.append(mvee(points))
        return fits[-1]

    def polygon(center, shape, segments):
        shapes.append(shape)
        return polygonize(center, shape, segments)

    monkeypatch.setattr(advice, "_mvee", fit)
    monkeypatch.setattr(advice, "polygonize_ellipse", polygon)
    for model, z, seed in ((DemandModel(), 0.9, 7), (DemandModel(), 0.7, 8),
                           (DemandModel(kind="normal-mixture"), 0.9, 9)):
        rng = np.random.default_rng(seed)
        for _ in range(700):
            pts = _sample_points(model, 10, rng).tolist()
            fits.clear()
            shapes.clear()
            reg, want = ellipse_advice(pts, z, 64), oracle_ellipse_advice(pts, z, 64)
            assert reg.degenerate == want.degenerate
            assert len(reg.vertices) == len(want.vertices)
            got, ref = np.array(reg.vertices), np.array(want.vertices)
            assert (np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()
            assert all(max(f[2]) == 1.0 for f in fits if f is not None)
            if shapes:
                _, (m11, m12, m22), _, _ = fits[-1]
                root = np.array(shapes[-1]) * math.cos(math.pi / 64)
                assert root[0, 1] == root[1, 0]
                m = np.array([[m11, m12], [m12, m22]])
                assert np.abs(root @ root - m).max() <= 1e-14 * np.abs(m).max()


@pytest.mark.parametrize("build", [box_advice, ellipse_advice, point_advice])
def test_samples_take_a_coordinate_a_rounding_below_zero(build):
    # as build_polygon does: -TOL / 2 is taken, -10 TOL is negative
    pts = [(1.0, 2.0), (4.0, 1.0), (3.0, 5.0), (2.0, 3.5)]
    build(pts + [(-0.5 * TOL, 3.0)])
    with pytest.raises(NegativeCoordinate):
        build(pts + [(-10.0 * TOL, 3.0)])


def test_box_trimming_ties_areas_that_round_apart():
    # dropping (0.9, 0.9) or (0.1, 0.1) leaves an area of 63/100, computed as
    # 0.6300000000000001 and 0.63: a tie, which drops the first extreme
    pts = [(0.9, 0.9), (0.7, 0.6), (0.8, 0.9), (0.2, 0.5), (0.1, 0.1), (0.6, 0.0)]
    assert box_advice(pts, 0.8).vertices == ((0.1, 0.0), (0.8, 0.0), (0.8, 0.9), (0.1, 0.9))


def test_box_trimming_drops_the_smaller_of_areas_9e_14_apart():
    # dropping (1, 0.5) leaves 0.9 (1 + 1e-13), dropping (0.5, 1 + 1e-13)
    # leaves 0.9: 9e-14 apart, some 800 ulps, more than rounding
    pts = [(1.0, 0.5), (0.5, 1.0 + 1e-13), (0.0, 0.0), (0.0, 0.0), (0.9, 0.9)]
    assert box_advice(pts, 0.8).vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 0.9), (0.0, 0.9))


def test_stop_error_keeps_a_weight_of_1e_10_on_the_support():
    # 1e-10 is a weight, not the few-ulp residue of an away step
    u = [0.4, 0.3, 0.3 - 1e-10, 1e-10]
    err, up, down, j_max, j_min, support = advice._stop_error(u, [3.0, 3.0, 3.0, 0.5])
    assert support == [0, 1, 2, 3] and j_min == 3 and err == down == 1.0 - 0.5 / 3.0


def test_stop_error_leaves_a_rounding_residue_off_the_support():
    # away steps can leave a weight of a few ulps on a point they dropped;
    # counted on the support, its kappa (inside the ellipse, below 3) would
    # hold the stop error up though the other weights meet the stop test
    u = [0.4, 0.3, 0.3 - 1e-13, 1e-13]
    err, up, down, j_max, j_min, support = advice._stop_error(u, [3.0, 3.0, 3.0, 0.5])
    assert support == [0, 1, 2] and err == 0.0 and j_min != 3


@pytest.mark.parametrize("d", [0.1, 1.0 / 3.0, 0.5, 0.7, 2.0])
def test_mvee_drops_a_support_point_at_the_weighted_mean(d):
    # uniform start weights (two points are the extremes of both coordinates)
    # put (1, 1), the weighted mean, on the support with kappa = 1, which
    # rounds to either side of 1: the away step drops it
    pts = [(0.0, 0.0), (2.0, 2.0), (1.0, 1.0 + d), (1.0, 1.0 - d), (1.0, 1.0)]
    u = advice._mvee_weights(pts, 1e-9, 20000)
    assert u[-1] == 0.0
    assert advice._stop_error(u, advice._kappa(pts, u)[1])[0] <= 1e-9


@pytest.mark.parametrize("n", [6, 7, 8, 12])
def test_newton_step_refuses_a_singular_system(n):
    # K o K has rank at most 6, and 5 on a circle, where x^2 + y^2 = 1 ties
    # the quadratic terms: with n cocircular support points the elimination
    # meets a pivot at rounding level, and the step is refused
    pts = [(math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)) for k in range(n)]
    u = [1.0 / n] * n
    vq, kappa = advice._kappa(pts, u)
    assert advice._newton_weights(u, kappa, vq, pts, list(range(n))) is None


@pytest.mark.parametrize("off,hull", [(1e-7, True), (1e-6, False)])
def test_ellipse_advice_takes_samples_near_a_line_as_collinear(off, hull):
    # 1e-7 off the line y = 0.7 x + 2 the scatter's pivot is below 1e-14 s22:
    # the samples are collinear up to rounding, and their hull is the region
    pts = [(0.0, 2.0), (5.0, 5.5 + off), (10.0, 9.0), (20.0, 16.0), (15.0, 12.5 - off)]
    region = ellipse_advice(pts)
    assert (region.vertices == build_polygon(pts).vertices) == hull
    assert (advice._mvee(pts) is None) == hull


@pytest.mark.parametrize("h,hull", [(1e-8, True), (1e-7, False)])
def test_ellipse_advice_takes_a_fit_of_no_area_as_collinear(h, hull):
    # samples within 1e-8 of y = 5 pass the scatter's pivot test, but the fit
    # has det S below 1e-18 tr S^2: their hull is the region
    pts = [(0.0, 5.0), (10.0, 5.0 + h), (20.0, 5.0), (30.0, 5.0 + h), (15.0, 5.0 - h)]
    region = ellipse_advice(pts)
    assert (region.vertices == build_polygon(pts).vertices) == hull
    assert (advice._mvee(pts) is None) == hull
