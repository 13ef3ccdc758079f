"""Builders turning demand samples into convex advice regions.

Three estimators of increasing tightness: an axis-aligned box (optionally
trimmed to a coverage fraction), a minimum-volume enclosing ellipse
polygonized to a circumscribing polygon, and a single mean point.
"""

from __future__ import annotations

import math

import numpy as np

from .region import MLRegion, build_polygon, check_segments, polygonize_ellipse

Point = tuple[float, float]


def _keep_count(n: int, coverage: float) -> int:
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must lie in (0, 1]")
    return max(1, math.ceil(coverage * n))


def box_advice(samples, coverage: float = 1.0) -> MLRegion:
    """Axis-aligned bounding box of the samples, greedily trimmed.

    While more than ceil(coverage * n) samples remain, drop whichever of the
    four extreme samples (min/max in x or y) shrinks the bounding-box area the
    most.
    """
    pts = [(float(x), float(y)) for x, y in samples]
    if not pts:
        raise ValueError("need at least one sample")
    keep = _keep_count(len(pts), coverage)
    while len(pts) > keep:
        extremes = {
            min(range(len(pts)), key=lambda i: pts[i][0]),
            max(range(len(pts)), key=lambda i: pts[i][0]),
            min(range(len(pts)), key=lambda i: pts[i][1]),
            max(range(len(pts)), key=lambda i: pts[i][1]),
        }
        best_i, best_area = None, None
        for i in sorted(extremes):
            rest = pts[:i] + pts[i + 1 :]
            xs = [p[0] for p in rest]
            ys = [p[1] for p in rest]
            area = (max(xs) - min(xs)) * (max(ys) - min(ys))
            if best_area is None or area < best_area - 1e-15:
                best_i, best_area = i, area
        pts.pop(best_i)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x1, x2, y1, y2 = min(xs), max(xs), min(ys), max(ys)
    return build_polygon([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])


def _mvee(points: np.ndarray, tol: float = 1e-9, max_iter: int = 20000):
    """Minimum-volume enclosing ellipse {u : (u-c)^T A (u-c) <= 1}.

    Frank-Wolfe iteration with away steps on the dual weights; returns
    (center, A) or None when the points are (near) collinear.
    """
    n, d = points.shape
    q = np.column_stack([points, np.ones(n)])
    u = np.full(n, 1.0 / n)
    for _ in range(max_iter):
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
    # rescale so every sample is inside despite finite-precision convergence
    dev = points - c
    dmax = float(np.max(np.einsum("ij,jk,ik->i", dev, a, dev)))
    if dmax > 0.0:
        a = a / dmax
    return c, a


def ellipse_advice(samples, coverage: float = 1.0, segments: int = 64) -> MLRegion:
    """Minimum-volume enclosing ellipse, trimmed to a coverage fraction and
    polygonized (clipped to the nonnegative quadrant).

    Trimming repeatedly drops the sample farthest from the current ellipse
    center in the ellipse metric.  The polygon circumscribes the ellipse: the
    shape is inflated by 1/cos(pi/segments) so the inscribed polygon of the
    inflated ellipse still covers the original one.
    """
    check_segments(segments)
    pts = np.asarray([(float(x), float(y)) for x, y in samples], dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need at least one sample")
    keep = _keep_count(pts.shape[0], coverage)
    fit = _mvee(pts)
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
        fit = _mvee(pts)
    if fit is None:
        return build_polygon([tuple(p) for p in pts])
    c, a = fit
    w, v = np.linalg.eigh(np.linalg.inv(a))
    w = np.maximum(w, 0.0)
    shape = (v * np.sqrt(w)) @ v.T
    shape = shape / math.cos(math.pi / segments)
    return polygonize_ellipse((float(c[0]), float(c[1])), shape.tolist(), segments)


def point_advice(samples) -> MLRegion:
    """Degenerate region at the sample mean."""
    pts = [(float(x), float(y)) for x, y in samples]
    if not pts:
        raise ValueError("need at least one sample")
    n = len(pts)
    mx = math.fsum(p[0] for p in pts) / n
    my = math.fsum(p[1] for p in pts) / n
    return build_polygon([(mx, my)])
