import numpy as np
import pytest

from plpareto import advice, box_advice, contains, ellipse_advice, point_advice
from plpareto.harness import DemandModel, sample_demand
from plpareto.region import MAX_SEGMENTS


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
# largest count on the seeded corpus is 149
MVEE_STEP_BOUND = 500


def check_mvee_fit(pts):
    """``_mvee`` on pts against the stop test, the oracle and the samples;
    returns its weights and the oracle's pass count."""
    u = advice._mvee_weights(pts.tolist(), 1e-9, MVEE_STEP_BOUND)
    assert u is not None
    u = np.array(u)
    # the stop test on fresh numpy arithmetic, met within MVEE_STEP_BOUND steps
    q = np.column_stack([pts, np.ones(len(pts))])
    kappa = np.einsum("ij,jk,ik->i", q, np.linalg.inv(q.T @ (q * u[:, None])), q)
    assert kappa.max() <= 3 * (1 + 1e-9)
    assert kappa[u > 1e-12].min() >= 3 * (1 - 1e-9)
    c, a = advice._mvee(pts)
    want_c, want_a, passes = mvee_oracle(pts)
    assert np.linalg.norm(c - want_c) <= 1e-7 * np.linalg.norm(want_c)
    assert np.linalg.norm(a - want_a) <= 1e-7 * np.linalg.norm(want_a)
    dev = pts - c
    assert np.einsum("ij,jk,ik->i", dev, a, dev).max() <= 1.0 + 1e-12
    return u, passes


def test_mvee_matches_numpy_oracle_on_demand_samples():
    rng = np.random.default_rng(2024)
    model = DemandModel()
    for _ in range(400):
        check_mvee_fit(np.array([(p.x, p.y) for p in (sample_demand(model, rng) for _ in range(10))]))


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
