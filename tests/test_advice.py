import numpy as np
import pytest

from plpareto import box_advice, contains, ellipse_advice, point_advice
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
