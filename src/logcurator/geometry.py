"""Planar curve numerics: arc-length resampling, curvature, crossings.

All curvature-based measures run on a fixed-size arc-length resampling of the
input polyline, so estimates are invariant to the input's sampling pattern
and to rigid motions. Derivatives use direct finite-difference stencils
(central interior, one-sided 3-point at the endpoints); nested first
differences were too noisy for the curvature-rate term.
"""

from typing import NamedTuple

import numpy as np

_EPS = 1e-12


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """Drop exactly-repeated consecutive points."""
    pts = np.asarray(points, dtype=float)
    if len(pts) <= 1:
        return pts
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    return pts[keep]


def cumulative_arclength(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        return np.zeros(0)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _first_derivative(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d f / d s along the last axis, `s` broadcast against `f`."""
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (s[..., 2:] - s[..., :-2])
    out[..., 0] = (f[..., 1] - f[..., 0]) / (s[..., 1] - s[..., 0])
    out[..., -1] = (f[..., -1] - f[..., -2]) / (s[..., -1] - s[..., -2])
    return out


def _second_derivative(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    # Non-uniform 3-point stencil; at the ends the nearest interior stencil
    # is exactly the one-sided 3-point estimate. The difference form keeps
    # constant inputs at exactly zero instead of leaving cancellation noise.
    out = np.empty_like(f)
    h1 = s[..., 1:-1] - s[..., :-2]
    h2 = s[..., 2:] - s[..., 1:-1]
    ahead, behind = f[..., 2:] - f[..., 1:-1], f[..., 1:-1] - f[..., :-2]
    out[..., 1:-1] = 2.0 * (h1 * ahead - h2 * behind) / (h1 * h2 * (h1 + h2))
    out[..., 0] = out[..., 1]
    out[..., -1] = out[..., -2]
    return out


# paths x stations (or x points) per curve pass: each array of a pass holds
# at most this many values per coordinate, 512 KiB, however many tracks a
# scoring batch holds or however many stations a config asks for.
CURVE_VALUES = 1 << 16


def curve_complexities(paths, K: int = 100) -> tuple:
    """(complexity, few): two (P,) arrays over P nonempty (n, 2) paths.

    A path's complexity is its mean absolute curvature plus its mean
    absolute curvature rate, on K stations uniformly spaced in arc length.
    Resampling is piecewise linear, so the stations lie on the input chords.
    kappa = (x' y'' - y' x'') / (x'^2 + y'^2)^(3/2), with derivatives taken
    against arc length by direct finite-difference stencils (central
    interior, one-sided 3-point at the ends); left turns are positive, and
    stations where the local speed degenerates read zero curvature. A path
    of zero length, or with every point exactly on one line, scores exactly
    0.0. `few` is whether a path has fewer than three distinct points, as
    `np.unique(p, axis=0)` counts them (-0.0 equals 0.0).

    Paths go through in blocks of at most CURVE_VALUES values (at least one
    path), each row padded with its own last point. Repeated points add
    exact zeros to the arc length, and `np.interp` reads the same chord
    either side of them, so no path is deduplicated. Only the resampling
    runs per path, and only for paths that curve; the stencils, curvature
    and row means are elementwise or row-wise, so no value depends on its
    block.
    """
    if K < 3:
        raise ValueError(f"K must be >= 3 for curvature, got {K}")
    sizes = np.array([len(p) for p in paths], dtype=np.intp)
    complexity, few = np.zeros(len(sizes)), np.ones(len(sizes), dtype=bool)
    if not len(sizes):
        return complexity, few
    flat = np.asarray(np.concatenate(paths), dtype=float).reshape(-1, 2)
    first = np.cumsum(sizes) - sizes
    step = max(1, CURVE_VALUES // max(K, int(sizes.max())))
    for lo in range(0, len(sizes), step):
        block = slice(lo, lo + step)
        complexity[block], few[block] = _curve_block(flat, first[block], sizes[block], K)
    return complexity, few


def _curve_block(flat, first, sizes, K):
    """curve_complexities of the paths flat[first[i] : first[i] + sizes[i]]."""
    cols = np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
    p = flat[first[:, None] + cols]  # (rows, width, 2)
    # the first point unequal to the first, and whether every other one is it
    other = (p != p[:, :1]).any(axis=2)
    q = p[np.arange(len(sizes)), other.argmax(axis=1)]
    few = ~(other & (p != q[:, None]).any(axis=2)).any(axis=1)
    step = p[:, 1:] - p[:, :-1]
    step *= step
    arc = np.zeros(other.shape)
    np.cumsum(np.sqrt(step[..., 0] + step[..., 1]), axis=1, out=arc[:, 1:])
    length = arc[:, -1]
    # exactly collinear paths score zero with no stencil noise
    rel, d = p - p[:, :1], q - p[:, 0]
    cross = rel[..., 0] * d[:, 1:] - rel[..., 1] * d[:, :1]
    curving = np.flatnonzero((length > 0.0) & cross.any(axis=1))
    complexity = np.zeros(len(sizes))
    if not len(curving):
        return complexity, few
    # each row is the path's own np.linspace: a positive length is at least
    # about 1e-162 (the root of the least subnormal), so no station step is
    # zero and linspace takes its one per-row branch. C order, so the row
    # sums below add each row as np.mean adds a path's stations.
    s = np.linspace(0.0, length[curving], K).T.copy()
    xy = np.empty((2, *s.shape))  # x and y of every station
    for k, i in enumerate(curving.tolist()):
        xy[0, k] = np.interp(s[k], arc[i], p[i, :, 0])
        xy[1, k] = np.interp(s[k], arc[i], p[i, :, 1])
    (dx, dy), (ddx, ddy) = _first_derivative(xy, s), _second_derivative(xy, s)
    speed2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(speed2 > _EPS, (dx * ddy - dy * ddx) / np.power(speed2, 1.5), 0.0)
    # np.mean of each row: its sum by add.reduce over K
    means = np.add.reduce(np.abs([kappa, _first_derivative(kappa, s)]), axis=2) / K
    complexity[curving] = means[0] + means[1]
    return complexity, few


def _segment_arrays(points: np.ndarray):
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        return pts[:0], pts[:0]
    return pts[:-1], pts[1:]


def _cross(o, a, b):
    return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
        a[..., 1] - o[..., 1]
    ) * (b[..., 0] - o[..., 0])


def count_polyline_crossings(a_points: np.ndarray, b_points: np.ndarray) -> int:
    """Number of proper (transversal) crossings between two polylines.

    Shared endpoints and tangential touches do not count: both segments must
    strictly straddle each other.
    """
    a0, a1 = _segment_arrays(a_points)
    b0, b1 = _segment_arrays(b_points)
    if len(a0) == 0 or len(b0) == 0:
        return 0
    a0e = a0[:, None, :]
    a1e = a1[:, None, :]
    b0e = b0[None, :, :]
    b1e = b1[None, :, :]
    d1 = _cross(a0e, a1e, b0e)
    d2 = _cross(a0e, a1e, b1e)
    d3 = _cross(b0e, b1e, a0e)
    d4 = _cross(b0e, b1e, a1e)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    return int(np.count_nonzero(proper))


def _on_segment(p, q, r):
    """q collinear with p-r assumed: True where q lies within the bounding
    box widened by _EPS. The bounds are Python's min and max: where a
    comparison fails, as with NaN, the first of p and r is kept."""
    lo = np.where(r < p, r, p) - _EPS
    hi = np.where(r > p, r, p) + _EPS
    return np.all((lo <= q) & (q <= hi), axis=-1)


def _straddle(a, b):
    return ((a > 0) & (b < 0)) | ((a < 0) & (b > 0))


def segments_intersect(p1, p2, q1, q2):
    """Closed-segment intersection test, touches and collinear overlap
    included, over (..., 2) endpoint arrays broadcast against each other."""
    p1, p2, q1, q2 = map(np.asarray, (p1, p2, q1, q2))
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    return (
        (_straddle(d1, d2) & _straddle(d3, d4))
        | ((np.abs(d1) <= _EPS) & _on_segment(q1, p1, q2))
        | ((np.abs(d2) <= _EPS) & _on_segment(q1, p2, q2))
        | ((np.abs(d3) <= _EPS) & _on_segment(p1, q1, p2))
        | ((np.abs(d4) <= _EPS) & _on_segment(p1, q2, p2))
    )


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Ray-casting containment for a batch of points; boundary counts as inside."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)
    inside = np.zeros(len(pts), dtype=bool)
    on_edge = np.zeros(len(pts), dtype=bool)
    px, py = pts[:, 0], pts[:, 1]
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        straddles = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = np.where(straddles, (x2 - x1) * (py - y1) / (y2 - y1) + x1, 0.0)
        inside ^= straddles & (px < xs)
        seg = np.array([x2 - x1, y2 - y1])
        len2 = seg @ seg
        if len2 <= _EPS:
            d2 = (px - x1) ** 2 + (py - y1) ** 2
        else:
            t = np.clip(((px - x1) * seg[0] + (py - y1) * seg[1]) / len2, 0.0, 1.0)
            d2 = (px - (x1 + t * seg[0])) ** 2 + (py - (y1 + t * seg[1])) ** 2
        on_edge |= d2 <= 1e-18
    return inside | on_edge


def polygon_polyline_intersects(polygon: np.ndarray, polyline: np.ndarray) -> bool:
    """True when the polyline touches or enters the polygon region."""
    poly = np.asarray(polygon, dtype=float)
    line = np.asarray(polyline, dtype=float)
    if len(line) == 0 or len(poly) < 3:
        return False
    if bool(np.any(points_in_polygon(line, poly))):
        return True
    closed = np.vstack([poly, poly[:1]])
    hits = segments_intersect(line[:-1, None], line[1:, None], closed[:-1], closed[1:])
    return bool(np.any(hits))


# metres by which two bounding boxes may miss each other and still meet. A
# proper crossing, a touch within the predicates' _EPS, or a point within
# points_in_polygon's 1e-9 of an edge puts two boxes far closer than this,
# with the rounding of coordinates up to 10^6 m. Only a straddle that the
# predicates read from rounding alone, between nearly collinear segments
# apart along their line, is skipped with the pair.
BOX_MARGIN = 1e-6


def bounding_boxes(polylines) -> np.ndarray:
    """(n, 4) min x, min y, max x, max y of each (k, 2) polyline; the box
    of an empty one meets none."""
    return np.array(
        [[*p.min(axis=0), *p.max(axis=0)] if len(p) else [np.inf, np.inf, -np.inf, -np.inf]
         for p in polylines]
    ).reshape(-1, 4)


def boxes_meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A, B) whether box i of `a` and box j of `b` (`bounding_boxes`) are
    within BOX_MARGIN of each other."""
    lo_a, hi_a, lo_b, hi_b = a[:, None, :2], a[:, None, 2:], b[None, :, :2], b[None, :, 2:]
    return np.all((lo_a <= hi_b + BOX_MARGIN) & (lo_b <= hi_a + BOX_MARGIN), axis=-1)


def polygon_is_simple(polygon: np.ndarray) -> bool:
    """No two non-adjacent edges may intersect (closed ring). Edge pairs go
    through in blocks of at most BLOCK_PAIRS pairs (at least one edge's
    row), so peak memory does not grow with the square of the ring size."""
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)
    if n < 3:
        return False
    end = np.roll(poly, -1, axis=0)
    cols = np.arange(n)
    step = max(1, BLOCK_PAIRS // n)
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))[:, None]
        # edge j > i + 1 pairs with edge i, except edges 0 and n-1 (adjacent)
        i, j = np.nonzero((cols > rows + 1) & (cols - rows < n - 1))
        i += lo
        if np.any(segments_intersect(poly[i], end[i], poly[j], end[j])):
            return False
    return True


class SegmentTable(NamedTuple):
    """The segments of one or more polylines in one flat table.

    Polyline k owns the contiguous slice of segments that starts at
    `starts[k]`; a single-point polyline is one zero-length segment.
    """

    x0: np.ndarray  # (S,) segment start
    y0: np.ndarray
    dx: np.ndarray  # (S,) segment direction, end minus start
    dy: np.ndarray
    len2: np.ndarray  # (S,) squared length, 1.0 where it is at most _EPS
    length: np.ndarray  # (S,)
    arc0: np.ndarray  # (S,) arc position of the segment start
    starts: np.ndarray  # (P,) first segment of each polyline

    @staticmethod
    def from_polylines(polylines, cumlens) -> "SegmentTable":
        """Table of the given polylines, in order; each cumulative arc length
        may be None, and is then measured here."""
        p0, p1, arc0 = [], [], []
        for poly, cumlen in zip(polylines, cumlens):
            pts = np.asarray(poly, dtype=float)
            if len(pts) == 0:
                raise ValueError("cannot project onto an empty polyline")
            if len(pts) == 1:  # one zero-length segment at arc position 0
                p0.append(pts)
                p1.append(pts)
                arc0.append(np.zeros(1))
                continue
            p0.append(pts[:-1])
            p1.append(pts[1:])
            arc0.append((cumulative_arclength(pts) if cumlen is None else cumlen)[:-1])
        counts = np.array([len(a) for a in arc0], dtype=np.intp)
        p0 = np.concatenate([np.zeros((0, 2)), *p0])
        p1 = np.concatenate([np.zeros((0, 2)), *p1])
        arc0 = np.concatenate([np.zeros(0), *arc0])
        d = p1 - p0
        dx, dy = d[:, 0].copy(), d[:, 1].copy()
        len2 = dx * dx + dy * dy
        return SegmentTable(
            x0=p0[:, 0].copy(),
            y0=p0[:, 1].copy(),
            dx=dx,
            dy=dy,
            len2=np.where(len2 <= _EPS, 1.0, len2),
            length=np.sqrt(len2),
            arc0=np.asarray(arc0, dtype=float),
            starts=np.cumsum(counts) - counts,
        )

    def take(self, polylines) -> "SegmentTable":
        """Table of the listed polylines, in the listed order."""
        which = np.asarray(polylines, dtype=np.intp)
        counts = np.diff(np.append(self.starts, len(self.x0)))[which]
        starts = np.cumsum(counts) - counts
        cols = np.arange(int(counts.sum())) + np.repeat(self.starts[which] - starts, counts)
        return SegmentTable(
            self.x0[cols],
            self.y0[cols],
            self.dx[cols],
            self.dy[cols],
            self.len2[cols],
            self.length[cols],
            self.arc0[cols],
            starts,
        )


# point x segment pairs per kernel pass: every temporary of a pass holds at
# most 512 KiB, however large the map. On dense-score, passes of 2^14 pairs
# made the kernel about 15% slower, and passes of 2^18 were no faster.
BLOCK_PAIRS = 1 << 16


def project_to_segments(points: np.ndarray, table: SegmentTable):
    """(P, N) distance and arc-position tables of every point against every
    polyline of the table: the one projection kernel.

    Each point is projected onto each segment (foot parameter clipped to the
    segment), and each polyline reports its nearest segment, the first one
    on ties. Points go through in blocks of at most BLOCK_PAIRS point x
    segment pairs (at least one point), so peak memory does not grow with
    the number of points; a point's result does not depend on its block.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n_seg = len(table.x0)
    if n_seg == 0:
        return np.zeros((0, len(pts))), np.zeros((0, len(pts)))
    step = max(1, BLOCK_PAIRS // n_seg)
    parts = [_project_block(pts[lo : lo + step], table) for lo in range(0, max(len(pts), 1), step)]
    return (
        np.concatenate([dist for dist, _ in parts], axis=1),
        np.concatenate([arc for _, arc in parts], axis=1),
    )


def _foot_distances(px, py, x0, y0, dx, dy, len2):
    """(squared distance, foot parameter) of points against segments, both
    broadcast to one array. Work runs on separate x and y arrays in place,
    in the float order every stored feature depends on: rel·d, then /len2,
    clip, p0 + t·d, the difference to the point and the sum of squares."""
    t = np.subtract(px, x0)
    t *= dx
    e = np.subtract(py, y0)
    e *= dy
    t += e
    t /= len2
    np.clip(t, 0.0, 1.0, out=t)
    np.multiply(t, dx, out=e)
    e += x0
    np.subtract(px, e, out=e)
    e *= e
    f = t * dy
    f += y0
    np.subtract(py, f, out=f)
    f *= f
    e += f
    return e, t


def _project_block(pts: np.ndarray, table: SegmentTable):
    """project_to_segments of one block of points, on (N, S) arrays."""
    n_seg = len(table.x0)
    e, t = _foot_distances(
        pts[:, 0, None], pts[:, 1, None], table.x0, table.y0, table.dx, table.dy, table.len2
    )
    if len(table.starts) == 1:  # the same first minimum, in one pass
        j = np.argmin(e, axis=1)[:, None]
    else:
        # first minimum per slice: of the segments that reach the slice
        # minimum, keep the one farthest from the end of the table
        low = np.minimum.reduceat(e, table.starts, axis=1)
        hit = e == np.repeat(low, np.diff(np.append(table.starts, n_seg)), axis=1)
        if np.isnan(low).any():
            hit |= np.isnan(e)
        from_end = np.arange(n_seg, 0, -1)
        j = n_seg - np.maximum.reduceat(hit * from_end, table.starts, axis=1)
    rows = np.arange(len(pts))[:, None]
    dist = np.sqrt(e[rows, j])
    arc = table.arc0[j] + t[rows, j] * table.length[j]
    return dist.T, arc.T


def project_to_own_polylines(points: np.ndarray, table: SegmentTable, counts):
    """(N,) distance and arc position of each point against its own polyline
    of the table only: the first counts[0] points against polyline 0, the
    next counts[1] against polyline 1, and so on. The block-diagonal form
    of `project_to_segments`, with the same float work and the same first
    nearest segment, so each result equals the one-polyline call's.

    A block pads its polylines to its widest and its point runs to its
    longest, and broadcasts over (polyline, point, segment); a polyline's
    points go through in runs of at most BLOCK_PAIRS // segments, and a
    block holds at most BLOCK_PAIRS padded pairs (at least one run).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    counts = np.asarray(counts, dtype=np.intp)
    widths = np.diff(np.append(table.starts, len(table.x0)))
    first = np.cumsum(counts) - counts
    dist, arc = np.empty(len(pts)), np.empty(len(pts))
    block, width, length = [], 0, 0
    for k in np.flatnonzero(counts).tolist():
        step = max(1, BLOCK_PAIRS // int(widths[k]))
        end = int(first[k] + counts[k])
        for lo in range(int(first[k]), end, step):
            run = (k, lo, min(lo + step, end))
            w, n = max(width, int(widths[k])), max(length, run[2] - lo)
            if block and (len(block) + 1) * w * n > BLOCK_PAIRS:
                _project_own_block(pts, block, table, dist, arc)
                block, w, n = [], int(widths[k]), run[2] - lo
            block.append(run)
            width, length = w, n
    if block:
        _project_own_block(pts, block, table, dist, arc)
    return dist, arc


def _project_own_block(pts, block, table, dist, arc) -> None:
    """project_to_own_polylines of one block of (polyline, first, end) point
    runs, into `dist` and `arc`. Padded points repeat the run's first point
    and are dropped; padded segments repeat the polyline's first segment, so
    they tie with it, and the first nearest segment is a real one."""
    k, lo, hi = np.array(block, dtype=np.intp).T
    widths = np.diff(np.append(table.starts, len(table.x0)))[k]
    n = hi - lo
    p_ok = np.arange(n.max()) < n[:, None]  # (G, L)
    p = np.where(p_ok, lo[:, None] + np.arange(n.max()), lo[:, None])
    s = np.arange(widths.max())
    s = np.where(s < widths[:, None], s, 0) + table.starts[k][:, None]  # (G, W)

    def seg(col):
        return col[s][:, None, :]

    e, t = _foot_distances(
        pts[p, 0][..., None], pts[p, 1][..., None],
        seg(table.x0), seg(table.y0), seg(table.dx), seg(table.dy), seg(table.len2),
    )  # (G, L, W)
    j = np.argmin(e, axis=2)[..., None]
    d = np.sqrt(np.take_along_axis(e, j, axis=2))[..., 0]
    foot = np.take_along_axis(t, j, axis=2)[..., 0]
    j = j[..., 0] + table.starts[k][:, None]
    dist[p[p_ok]] = d[p_ok]
    arc[p[p_ok]] = (table.arc0[j] + foot * table.length[j])[p_ok]


def project_points_to_polyline(points: np.ndarray, poly_points, cumlen=None, counts=None):
    """Distance from each point to a polyline plus the foot's arc position.

    Returns (dist, arc) arrays of shape (N,). A single-point polyline acts as
    a degenerate path: plain point distances, arc position 0.

    With `counts`, `poly_points` lists several polylines and `cumlen` their
    cumulative arc lengths (each may be None): the first counts[0] points go
    onto the first polyline only, the next counts[1] onto the second, and so
    on (`project_to_own_polylines`), each as the one-polyline call would.
    """
    if counts is None:
        poly_points, cumlen, counts = [poly_points], [cumlen], [len(np.atleast_2d(points))]
    return project_to_own_polylines(points, SegmentTable.from_polylines(poly_points, cumlen), counts)
