"""Convex demand-advice regions and the geometric quantities derived from them.

A region is a convex polygon in the nonnegative quadrant whose x axis is total
low-reward demand and whose y axis is total high-reward demand.  Degenerate
regions (a single point or a segment) are first-class citizens because point
estimates and collinear samples produce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .errors import InvalidInput, NegativeCoordinate, NotPSD, OutOfDomain
from .plfunction import PLFunction

# coordinates within TOL are one: input a rounding below 0, chain points with
# nearly equal x, and abscissae that interpolation puts just outside the region
TOL = 1e-9
# most polygon segments an ellipse may take.  C* by enumeration's work grows
# with the square of the count: 0.06-0.09 s at 1024 segments on 2 vCPUs.
MAX_SEGMENTS = 1024

Point = tuple[float, float]


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


@dataclass(frozen=True)
class MLRegion:
    """Convex advice region with its lower and upper envelopes.

    ``vertices`` is the convex hull in counter-clockwise order.  ``lower`` and
    ``upper`` are the envelopes as piecewise-linear functions of x: their
    breakpoints are the boundary vertices, sorted by x, with vertical edges at
    the extremes collapsed.
    """

    vertices: tuple[Point, ...]
    degenerate: bool
    lower: PLFunction
    upper: PLFunction

    @property
    def x_lo(self) -> float:
        return self.lower.breakpoints[0][0]

    @property
    def x_hi(self) -> float:
        return self.lower.breakpoints[-1][0]


def _hulls(points: list[Point]) -> tuple[list[Point], list[Point]]:
    """Andrew's monotone chain; returns (lower hull, upper hull)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts), list(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    upper.reverse()
    return lower, upper


def _envelope_pl(chain, keep_low: bool) -> PLFunction:
    """The chain as a function of x: each run of points within TOL of its
    first x collapses to its lowest (``keep_low``) or highest point."""
    pick = min if keep_low else max
    out: list[Point] = []
    i = 0
    while i < len(chain):
        j = i
        while j + 1 < len(chain) and abs(chain[j + 1][0] - chain[i][0]) <= TOL:
            j += 1
        out.append(pick(chain[i : j + 1], key=lambda p: p[1]))
        i = j + 1
    return PLFunction(tuple(out))


def build_polygon(points: list[Point]) -> MLRegion:
    """Canonicalize arbitrary nonnegative points into a convex region.

    Returns the convex hull in CCW order; one point or collinear points yield a
    degenerate point/segment region.
    """
    if not points:
        raise InvalidInput("need at least one point")
    clean: list[Point] = []
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInput(f"non-finite coordinate in ({x}, {y})")
        if x < -TOL or y < -TOL:
            raise NegativeCoordinate(f"negative coordinate in ({x}, {y})")
        clean.append((max(float(x), 0.0), max(float(y), 0.0)))
    lower, upper = _hulls(clean)
    # collinear input collapses both hulls onto one chain; a hull of three or
    # more points is a polygon, however thin
    if len(set(lower + upper)) <= 2:
        flat = sorted(set(clean))
        if len(flat) == 1:
            verts: tuple[Point, ...] = (flat[0],)
        else:
            # endpoints of the carrier segment: two passes of farthest-point
            # (lexicographic extremes can miss the true extent)
            p0 = max(flat, key=lambda p: math.hypot(p[0] - flat[0][0], p[1] - flat[0][1]))
            p1 = max(flat, key=lambda p: math.hypot(p[0] - p0[0], p[1] - p0[1]))
            verts = tuple(sorted((p0, p1)))
        return MLRegion(verts, True, _envelope_pl(verts, True), _envelope_pl(verts, False))
    verts = tuple(dict.fromkeys(lower[:-1] + upper[::-1][:-1]))
    return MLRegion(verts, False, _envelope_pl(lower, True), _envelope_pl(upper, False))


def dedup_sorted(values, gap: float) -> list[float]:
    """The ascending finite floats ``values`` without near-duplicates: a value
    is kept only when it lies more than ``gap`` above the last one kept."""
    out, last = [], -math.inf
    for v in values:
        if v - last > gap:
            out.append(v)
            last = v
    return out


def envelope(region: MLRegion, x: float, side: str) -> float:
    """Evaluate the lower or upper envelope at x."""
    if side not in ("lower", "upper"):
        raise InvalidInput(f"side must be 'lower' or 'upper', got {side!r}")
    lo, hi = region.x_lo, region.x_hi
    if x < lo - TOL or x > hi + TOL:
        raise OutOfDomain(f"x={x} outside [{lo}, {hi}]")
    return (region.lower if side == "lower" else region.upper)(min(max(x, lo), hi))


@dataclass(frozen=True)
class KeyPoints:
    """Boundary landmarks used by the bound and solver machinery."""

    L: Point
    H: Point


def _check_capacity(m: float) -> None:
    if not 0.0 < m < math.inf:
        raise InvalidInput(f"capacity must be positive and finite, got {m}")


def key_points(region: MLRegion, m: float) -> KeyPoints:
    """Locate L, the leftmost lower-envelope breakpoint of smallest capped y
    min(y, m), and H, the rightmost upper-envelope breakpoint of largest capped
    y; an H above m moves down its right segment to where it crosses y = m."""
    _check_capacity(m)
    lower, upper = region.lower.breakpoints, region.upper.breakpoints
    y_min = min(min(y, m) for _, y in lower)
    L = next(p for p in lower if min(p[1], m) <= y_min + TOL)
    y_max = max(min(y, m) for _, y in upper)
    i = max(k for k, (_, y) in enumerate(upper) if min(y, m) >= y_max - TOL)
    x1, y1 = upper[i]
    if y1 > m and i + 1 < len(upper):
        x2, y2 = upper[i + 1]
        t = (y1 - m) / (y1 - y2)
        return KeyPoints(L, (x1 + t * (x2 - x1), m))
    return KeyPoints(L, (x1, min(y1, m)))


def x_vertices(region: MLRegion, m: float) -> tuple[float, ...]:
    """Sorted deduplicated x-coordinates of the polygon vertices plus the
    points where the lower envelope crosses x + y = m."""
    _check_capacity(m)
    xs = {p[0] for p in region.vertices}
    chain = region.lower.breakpoints
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        f1, f2 = x1 + y1 - m, x2 + y2 - m
        if abs(f1) > TOL and abs(f2) > TOL and f1 * f2 < 0:
            t = f1 / (f1 - f2)
            xs.add(x1 + t * (x2 - x1))
    return tuple(dedup_sorted(sorted(xs), TOL))


def check_segments(segments) -> None:
    """Raise InvalidInput unless ``segments`` is an integer in [3, MAX_SEGMENTS]."""
    if not (isinstance(segments, Integral) and 3 <= segments <= MAX_SEGMENTS):
        raise InvalidInput(f"segments must be an integer in [3, {MAX_SEGMENTS}], got {segments!r}")


def polygonize_ellipse(center: Point, shape, segments: int = 64) -> MLRegion:
    """Inscribe a polygon in the ellipse {center + S u : |u| = 1}, clipped to
    the first quadrant.  ``shape`` is a 2x2 symmetric PSD matrix S."""
    check_segments(segments)
    (cx, cy), ((a, b1), (b2, c)) = center, shape
    if not all(map(math.isfinite, (cx, cy, a, b1, b2, c))):
        raise InvalidInput(f"non-finite ellipse centre {tuple(center)} or shape {shape}")
    if abs(b1 - b2) > 1e-7:
        raise NotPSD("shape matrix is not symmetric")
    b = 0.5 * (b1 + b2)
    tr, det = a + c, a * c - b * b
    if tr < -TOL or det < -1e-7 * max(1.0, tr * tr):
        raise NotPSD("shape matrix is not positive semi-definite")
    if max(abs(a), abs(b), abs(c)) <= TOL:
        return build_polygon([(cx, cy)])
    pts = []
    for k in range(segments):
        th = 2.0 * math.pi * k / segments
        u, v = math.cos(th), math.sin(th)
        pts.append((cx + a * u + b * v, cy + b * u + c * v))
    clipped = _clip_quadrant(pts)
    if not clipped:
        raise NegativeCoordinate("ellipse lies outside the nonnegative quadrant")
    return build_polygon(clipped)


def _clip_quadrant(poly: list[Point]) -> list[Point]:
    """Sutherland-Hodgman clip against x >= 0 and then y >= 0.  A crossing
    lies exactly on the clip line: its interpolated coordinate there can round
    to about 1e-17, which would change which vertex comes first."""
    for axis in (0, 1):
        out: list[Point] = []
        n = len(poly)
        for i in range(n):
            p, q = poly[i], poly[(i + 1) % n]
            pin, qin = p[axis] >= 0.0, q[axis] >= 0.0
            if pin:
                out.append(p)
            if pin != qin:
                t = p[axis] / (p[axis] - q[axis])
                r = p[1 - axis] + t * (q[1 - axis] - p[1 - axis])
                out.append((0.0, r) if axis == 0 else (r, 0.0))
        poly = out
        if not poly:
            return []
    return poly


def contains(region: MLRegion, x: float, y: float, tol: float = TOL) -> bool:
    """Membership test with absolute tolerance on coordinates."""
    if not 0.0 <= tol < math.inf:
        raise InvalidInput(f"tolerance must be nonnegative and finite, got {tol}")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OutOfDomain(f"({x}, {y}) is not a finite point")
    if region.degenerate:
        if len(region.vertices) == 1:
            px, py = region.vertices[0]
            return math.hypot(x - px, y - py) <= tol
        return _segment_dist(region.vertices[0], region.vertices[-1], (x, y)) <= tol
    # every edge counts, however short: one closes the end of a thin polygon
    verts = region.vertices
    for i, p in enumerate(verts):
        q = verts[(i + 1) % len(verts)]
        if _cross(p, q, (x, y)) < -tol * math.hypot(q[0] - p[0], q[1] - p[1]):
            return False
    return True


def _segment_dist(a: Point, b: Point, p: Point) -> float:
    ax, ay = b[0] - a[0], b[1] - a[1]
    L2 = ax * ax + ay * ay
    if L2 == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = max(0.0, min(1.0, ((p[0] - a[0]) * ax + (p[1] - a[1]) * ay) / L2))
    return math.hypot(p[0] - a[0] - t * ax, p[1] - a[1] - t * ay)
