"""Builders turning demand samples into convex advice regions.

Three estimators of increasing tightness: an axis-aligned box (optionally
trimmed to a coverage fraction), a minimum-volume enclosing ellipse
polygonized to a circumscribing polygon, and a single mean point.
"""

from __future__ import annotations

import math

from .errors import InvalidInput, NegativeCoordinate
from .region import TOL, MLRegion, build_polygon, check_segments, polygonize_ellipse

Point = tuple[float, float]


def _samples(samples) -> list[Point]:
    """The samples as float pairs, checked as ``build_polygon`` checks points:
    InvalidInput when none or not finite, NegativeCoordinate below -TOL."""
    pts = [(float(x), float(y)) for x, y in samples]
    flat = [v for p in pts for v in p]
    if not flat:
        raise InvalidInput("need at least one sample")
    if not all(map(math.isfinite, flat)):
        raise InvalidInput("non-finite sample coordinate")
    if min(flat) < -TOL:
        raise NegativeCoordinate(f"negative sample coordinate {min(flat)}")
    return pts


def _keep_count(n: int, coverage: float) -> int:
    if not 0.0 < coverage <= 1.0:
        raise InvalidInput("coverage must lie in (0, 1]")
    return max(1, math.ceil(coverage * n))


def box_advice(samples, coverage: float = 1.0) -> MLRegion:
    """Axis-aligned bounding box of the samples, greedily trimmed.

    While more than ceil(coverage * n) samples remain, drop whichever of the
    four extreme samples (min/max in x or y) shrinks the bounding-box area the
    most; areas within 1e-15, equal but for rounding, drop the first of them.
    """
    pts = _samples(samples)
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


def _newton_weights(u, kappa, vq, pts, support):
    """u after a Newton step u_S += a - (sum a / sum b) b on log det X(u), where
    (K_S o K_S) [a b] = [kappa_S 1] and K_ij = q_i^T X^-1 q_j, cut at the simplex
    boundary where its first weight reaches 0; None when the system is singular."""
    rows = [[(pts[i][0] * vq[j][0] + pts[i][1] * vq[j][1] + vq[j][2]) ** 2 for j in support]
            + [kappa[i], 1.0] for i in support]
    # PSD (Schur product): no pivoting; K is affine invariant and K_ii is near 3 on S.
    # K o K has rank at most 6: a pivot at rounding level means it is singular
    for col in range(len(rows)):
        piv = rows[col]
        if piv[col] <= 1e-10:
            return None
        rows = [r if r is piv else [v - r[col] / piv[col] * w for v, w in zip(r, piv)] for r in rows]
    a, b = ([r[h] / r[i] for i, r in enumerate(rows)] for h in (-2, -1))
    new = {i: u[i] + ai - math.fsum(a) / math.fsum(b) * bi for i, ai, bi in zip(support, a, b)}
    if cut := min(((u[i] / (u[i] - w), i) for i, w in new.items() if w <= 0.0), default=None):
        t, j = cut  # the step times t takes weight j, the first to block, to 0
        new = {i: 0.0 if i == j else max(u[i] + t * (w - u[i]), 0.0) for i, w in new.items()}
    return [new.get(i, w) for i, w in enumerate(u)]


def _kappa(pts, u):
    """The rows X(u)^-1 q_i and kappa_i = q_i^T X(u)^-1 q_i at weights u, from
    X(u) and its inverse built afresh in plain floats; None when X(u) is singular."""
    a = b = c = e = f = s = 0.0  # X(u) = [[a, b, c], [b, e, f], [c, f, s]]
    for (x, y), w in zip(pts, u):
        a, b, c, e, f, s = a + w * x * x, b + w * x * y, c + w * x, e + w * y * y, f + w * y, s + w
    c11, c12, c13 = e * s - f * f, c * f - b * s, b * f - c * e
    det = a * c11 + b * c12 + c * c13
    if not det > 0.0:
        return None
    v11, v12, v13, v22, v23, v33 = (
        v / det for v in (c11, c12, c13, a * s - c * c, b * c - a * f, a * e - b * b))
    vq = [(v11 * x + v12 * y + v13, v12 * x + v22 * y + v23, v13 * x + v23 * y + v33)
          for x, y in pts]
    return vq, [x * p + y * q + r for (x, y), (p, q, r) in zip(pts, vq)]


def _stop_error(u, kappa):
    """(err, up, down, j_max, j_min, support) of the stop test at weights u:
    up = max kappa / 3 - 1, down = 1 - min kappa / 3 on the support, where a
    weight of at most 1e-12 is an away step's rounding residue, not support."""
    support = [i for i, w in enumerate(u) if w > 1e-12]
    j_max = max(range(len(u)), key=kappa.__getitem__)
    j_min = min(support, key=kappa.__getitem__)
    up, down = kappa[j_max] / 3.0 - 1.0, 1.0 - kappa[j_min] / 3.0
    return max(up, down), up, down, j_max, j_min, support


def _start_weights(pts):
    """Equal weights on the distinct points that attain the min and max of each
    coordinate, when there are at least 3 (Kumar & Yildirim 2005); else uniform."""
    ends = {}
    for k in (0, 1):
        for pick in (min, max):
            i = pick(range(len(pts)), key=lambda j: pts[j][k])
            ends.setdefault(tuple(pts[i]), i)
    if len(ends) < 3:
        return [1.0 / len(pts)] * len(pts)
    return [1.0 / len(ends) if i in ends.values() else 0.0 for i in range(len(pts))]


def _mvee_weights(pts, tol, max_iter):
    """The dual weights of ``_mvee``, or None when X(u) is singular: from
    ``_start_weights``, Frank-Wolfe steps with away steps, Newton steps once the
    stop error is below 0.1, and ``_polish`` once the stop test holds."""
    u = _start_weights(pts)
    for _ in range(max_iter):
        if (fit := _kappa(pts, u)) is None:
            return None
        vq, kappa = fit
        err, up, down, j_max, j_min, support = _stop_error(u, kappa)
        if err <= tol:
            return _polish(u, kappa, vq, pts, support, err)
        off = max([k for i, k in enumerate(kappa) if i not in support], default=0.0) / 3.0 - 1.0
        if err < 0.1 and off <= tol and (step := _newton_weights(u, kappa, vq, pts, support)):
            u = step
            continue
        j = j_max if up >= down else j_min
        k = kappa[j]
        # kappa >= 1, = 1 only at the weighted mean, where the away step's
        # line search runs to the simplex edge: j is dropped
        lam = (k - 3.0) / (3.0 * (k - 1.0)) if k > 1.0 else -math.inf
        lam = max(lam, -u[j] / (1.0 - u[j])) if u[j] < 1.0 else lam
        u = [max((1.0 - lam) * w + (lam if i == j else 0.0), 0.0) for i, w in enumerate(u)]
        total = math.fsum(u)
        u = [w / total for w in u]
    return u


def _polish(u, kappa, vq, pts, support, err):
    """Weights u that meet the stop test with error err, after up to 4 more Newton
    steps on the support, taken while each at least halves the error: of the last
    two, the weights with the smaller error."""
    for _ in range(4):
        if not (step := _newton_weights(u, kappa, vq, pts, support)) or not (fit := _kappa(pts, step)):
            break
        new, *_, support = _stop_error(step, fit[1])
        if not new <= err / 2.0:
            return step if new < err else u
        u, (vq, kappa), err = step, fit, new
    return u


def _mvee(points: list[Point]):
    """Minimum-volume enclosing ellipse {p : (p-c)^T M^-1 (p-c) <= 1} of 2-D
    points, their distances d_i = (p_i-c)^T M^-1 (p_i-c) and det M: (c, (M11,
    M12, M22), d, det M), or None when the points are (near) collinear.

    Its weights u maximise log det X(u), X(u) = sum u_i q_i q_i^T, q_i = (p_i, 1).
    The ellipse is affine equivariant, so it is fitted to the points w_i centred
    on their mean and mapped by the inverse Cholesky factor L^-1 of their scatter
    s; the points are collinear when the factor's pivot det s / s11 is at most
    1e-14 s22.  The fit starts from equal weights on the points that attain the
    min and max of each whitened coordinate, or from uniform weights when fewer
    than 3 distinct points do (``_start_weights``).  Each pass builds X(u) and
    its inverse afresh in plain floats, and the fit stops when kappa_i =
    q_i^T X^-1 q_i <= 3 (1 + tol) for all i, and >= 3 (1 - tol) on the support,
    tol = 1e-9.  Else, when that error is below 0.1 and no point off the support
    violates the stop test, it takes a Newton step on the support, cut at the
    simplex boundary (``_newton_weights``); otherwise, or when that system is
    singular, a Frank-Wolfe step with away steps (Todd & Yildirim 2007).  It
    stops after 20,000 steps of either kind.  Once the stop test holds, up to 4
    more Newton steps polish the weights while each halves the error
    (``_polish``).  The u-weighted scatter S_w of the w_i about their weighted
    mean, and d_i = (w_i - c_w)^T S_w^-1 (w_i - c_w), are taken in that
    well-conditioned frame; c = mean + L c_w, and M = L S_w L^T scaled by max d,
    so that max d = 1.  det M = det s det S_w (max d)^2 comes from the factors,
    since M11 M22 - M12^2 cancels on a thin set.  The fit is None when det S =
    det s det S_w is at most 1e-18 max(1, tr S^2).
    """
    mx, my = (math.fsum(p[k] for p in points) / len(points) for k in (0, 1))
    dev = [(x - mx, y - my) for x, y in points]
    s11, s12, s22 = (math.fsum(p[i] * p[j] for p in dev) for i, j in ((0, 0), (0, 1), (1, 1)))
    if not (det := s11 * s22 - s12 * s12) > 1e-14 * s11 * s22:
        return None
    l11, l22 = math.sqrt(s11), math.sqrt(det / s11)
    l21 = s12 / l11
    white = [(x / l11, (y - s12 / s11 * x) / l22) for x, y in dev]
    # no test can tell a stop tolerance of 1e-9 from one of 1e-6: either gives the same
    # fit to the bit, since _polish's Newton steps carry the weights on to rounding level
    u = _mvee_weights(white, 1e-9, 20000)
    if u is None:
        return None
    cx, cy = (math.fsum(w * p[k] for w, p in zip(u, white)) for k in (0, 1))
    dev = [(x - cx, y - cy) for x, y in white]
    a, b, e = (math.fsum(w * p[i] * p[j] for w, p in zip(u, dev)) for i, j in ((0, 0), (0, 1), (1, 1)))
    m11, m12 = l11 * l11 * a, l11 * (l21 * a + l22 * b)  # L S_w L^T
    m22 = l21 * l21 * a + 2.0 * l21 * l22 * b + l22 * l22 * e
    if not (det_w := a * e - b * b) * det > 1e-18 * max(1.0, (m11 + m22) ** 2):
        return None
    d = [(e * x * x - 2.0 * b * x * y + a * y * y) / det_w for x, y in dev]
    top = max(d)
    c = (mx + l11 * cx, my + l21 * cx + l22 * cy)
    return c, (m11 * top, m12 * top, m22 * top), [v / top for v in d], det * det_w * top * top


def ellipse_advice(samples, coverage: float = 1.0, segments: int = 64) -> MLRegion:
    """Minimum-volume enclosing ellipse, trimmed to a coverage fraction and
    polygonized (clipped to the nonnegative quadrant).

    Trimming repeatedly drops the sample farthest from the current ellipse
    center in the ellipse metric d.  The polygon circumscribes the ellipse: the
    root (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)) of its shape M is inflated
    by 1/cos(pi/segments) so the inscribed polygon still covers the ellipse.
    """
    check_segments(segments)
    pts = _samples(samples)
    keep = _keep_count(len(pts), coverage)
    fit = _mvee(pts)
    while len(pts) > keep:
        if fit is None:
            c = tuple(math.fsum(p[k] for p in pts) / len(pts) for k in (0, 1))
            d = [(x - c[0]) ** 2 + (y - c[1]) ** 2 for x, y in pts]
        else:
            c, _, d, _ = fit
        # boundary support points share the maximal ellipse distance; break
        # ties by Euclidean distance from the center so true outliers go first
        near = max(d) - 1e-6
        e2 = [(x - c[0]) ** 2 + (y - c[1]) ** 2 if v >= near else -1.0 for (x, y), v in zip(pts, d)]
        pts.pop(e2.index(max(e2)))
        fit = _mvee(pts)
    if fit is None:
        return build_polygon(pts)
    c, (a, b, e), _, det = fit
    root = math.sqrt(det)
    scale = math.sqrt(a + e + 2.0 * root) * math.cos(math.pi / segments)
    return polygonize_ellipse(c, [[(a + root) / scale, b / scale], [b / scale, (e + root) / scale]], segments)


def point_advice(samples) -> MLRegion:
    """Degenerate region at the sample mean."""
    pts = _samples(samples)
    n = len(pts)
    mx = math.fsum(p[0] for p in pts) / n
    my = math.fsum(p[1] for p in pts) / n
    return build_polygon([(mx, my)])
