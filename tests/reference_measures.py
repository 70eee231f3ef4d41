"""Loop versions of the traffic, frame-count, lane-projection, snippet
validation and selection rules.

The traffic and frame measures walk a snippet's detections frame by frame,
one measure at a time, exactly as they were first written; `frames_of`
regroups the snippet's detection columns into per-frame records for them.
The lane measures project each point set onto one lane centerline at a
time, through the einsum `project_points_to_polyline` copied here: the ROI
lane gate and the ego route match each project the ego onto every lane, the
traversal check projects each vehicle track onto every conflict lane and the
reachability check onto every vehicle lane. `interactions` reads its tracks
from `tracks_of`, its own regrouping of `track_rows`. `validate_snippet` is the
per-frame validation loop. `route_events` walks one snippet's route runs
for lane changes, turns and controls, and `detect_nudges` is the frame loop
that scans for excursions; both read a snippet's `match_route`. The library
computes the same values as reductions and predicates over the flat
columns, runs of equal values (`scene.runs`), prefix sums over a whole
scoring batch and one call of its segment-table kernel per point set; the
equivalence tests compare the two bit for bit, and the validation findings
item for item.

`infra_row` is the infrastructure row as it tested each map element on its
own: a projection call per intersection and crosswalk ring, a distance loop
over the traffic controls and a squared-distance block over the height
samples. The library reads every element's distance from one batch table
and counts through masks, and the tests compare the rows with `==`.

`select_challenging` and `select_diverse` are the selection phases that
rescore every alive candidate each round and update every cached
min-distance against each new pick; the library ranks each task once and
grows the diverse set lazily, and the tests compare picks and audit entries
with `==`.

`load_forecasts`, `snippet_entropy` and `al_select` are the forecast
baseline as it held one frozen `ForecastEntry` per record in a dict of
frames; the library streams the records into flat columns and scores each
snippet in one array pass, and the tests compare loaded rows, scores, picks
and audit entries with `==`. `_walk` is the baselines' own non-overlap
walk, and `random_select` and `al_select` run it; the library's baselines
share `selection.walk` with the challenging phase.

`curve_complexity` and `curvature_profile` are the curve measure on one
path at a time: deduplicate, measure arc length, resample with
`np.linspace` and `np.interp`, then the derivative stencils and the two
means. The library runs one pass over a whole scoring batch of padded paths,
and the tests compare its values with `==`.

`Path.from_points`, `ego_step_speeds` and `ego_instant_curvature` are the ego
measures on one snippet at a time: deduplicate the poses and measure their
arc length, divide each step by its time step, and divide the wrapped
heading differences by the arc length again. The library measures every
ego of a scoring batch in one padded pass, and the tests compare its values
with `==`.

`segments_intersect` and `_on_segment` are the closed-segment test on one
pair of segments, and `polygon_polyline_intersects` and `polygon_is_simple`
the double loops over segment pairs that call it; the library applies one
array predicate to every pair at once, and the tests compare its results
with `==`.
"""

from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from logcurator import geometry, sdv
from logcurator.baselines import LOG_2PI_E, ForecastError
from logcurator.geometry import _cross, cumulative_arclength, dedupe_points, points_in_polygon
from logcurator.scene import DETECTION_CLASSES, Finding, ValidationReport, read_rows
from logcurator.selection import AuditEntry, dissimilarity, take_pick
from logcurator.traffic import STATIC_SPEED

FRAME_CLASSES = ("vehicle", "pedestrian", "bicyclist")
_EPS = 1e-12

Frame = namedtuple("Frame", "index timestamp ego_pose geo detections")
Detection = namedtuple("Detection", "track_id label center yaw size speed")


def frames_of(s):
    """The snippet's columns as one Frame per frame holding its Detection
    rows in order, every value a Python int, float or str."""
    per_frame = [[] for _ in range(s.num_frames)]
    for k, track, label, center, yaw, size, speed in zip(
        s.det_frame.tolist(),
        s.det_track.tolist(),
        s.det_label.tolist(),
        s.det_center.tolist(),
        s.det_yaw.tolist(),
        s.det_size.tolist(),
        s.det_speed.tolist(),
    ):
        per_frame[k].append(
            Detection(s.track_ids[track], s.classes[label], tuple(center), yaw, tuple(size), speed)
        )
    return [
        Frame(index, timestamp, tuple(pose), tuple(geo), tuple(dets))
        for index, timestamp, pose, geo, dets in zip(
            s.index.tolist(), s.timestamp.tolist(), s.ego_pose.tolist(), s.geo.tolist(), per_frame
        )
    ]


def ego_xy(s):
    """Ego positions as a (T, 2) array."""
    return np.array([f.ego_pose[:2] for f in frames_of(s)], dtype=float)


# The per-frame snippet validation the library ran before its column
# predicates, verbatim but for reading the frames through `frames_of`.


def validate_snippet(s, m):
    """Check snippet-internal invariants; the map argument anchors referential
    checks and is accepted even when no map-dependent rule applies yet."""
    del m
    findings = []
    frames = frames_of(s)

    def bad(rule, detail):
        findings.append(Finding(s.snippet_id, rule, detail))

    first, last = s.frame_range
    if last - first + 1 != len(frames):
        bad("frame_range", f"range {s.frame_range} does not cover {len(frames)} frames")
    prev_ts = None
    track_label = {}
    for k, f in enumerate(frames):
        if f.index != first + k:
            bad("frame_index", f"frame {k} has index {f.index}, expected {first + k}")
        if prev_ts is not None and not f.timestamp > prev_ts:
            bad("timestamps", f"frame {f.index} timestamp {f.timestamp} not increasing")
        prev_ts = f.timestamp
        if not (-np.pi <= f.ego_pose[2] < np.pi):
            bad("heading", f"frame {f.index} heading {f.ego_pose[2]} outside [-pi, pi)")
        if not (-90.0 <= f.geo[0] <= 90.0 and -180.0 <= f.geo[1] <= 180.0):
            bad("geo", f"frame {f.index} geo {f.geo} out of range")
        for v in (*f.ego_pose, *f.geo, f.timestamp):
            if not np.isfinite(v):
                bad("finite", f"frame {f.index} has non-finite value {v}")
                break
        for d in f.detections:
            if d.label not in DETECTION_CLASSES:
                bad("class", f"frame {f.index} track {d.track_id} class {d.label!r}")
            if not (d.size[0] > 0 and d.size[1] > 0):
                bad("size", f"frame {f.index} track {d.track_id} size {d.size}")
            if not d.speed >= 0:
                bad("speed", f"frame {f.index} track {d.track_id} speed {d.speed}")
            if not np.all(np.isfinite([*d.center, d.yaw, *d.size, d.speed])):
                bad("finite", f"frame {f.index} track {d.track_id} non-finite field")
            seen = track_label.get(d.track_id)
            if seen is None:
                track_label[d.track_id] = d.label
            elif seen != d.label:
                bad("track_class", f"track {d.track_id} switches class {seen} -> {d.label}")
    return ValidationReport(tuple(findings))


# The einsum projection the library used before its flat segment-table
# kernel, kept verbatim as that kernel's oracle.


def project_points_to_polyline(points: np.ndarray, poly_points: np.ndarray, cumlen=None):
    """Distance from each point to a polyline plus the foot's arc position.

    Returns (dist, arc) arrays of shape (N,). A single-point polyline acts as
    a degenerate path: plain point distances, arc position 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(poly_points, dtype=float)
    if len(poly) == 0:
        raise ValueError("cannot project onto an empty polyline")
    if len(poly) == 1:
        dist = np.linalg.norm(pts - poly[0], axis=1)
        return dist, np.zeros(len(pts))
    if cumlen is None:
        cumlen = cumulative_arclength(poly)
    p0 = poly[:-1]
    d = poly[1:] - poly[:-1]
    len2 = np.einsum("ij,ij->i", d, d)
    len2 = np.where(len2 <= _EPS, 1.0, len2)
    rel = pts[:, None, :] - p0[None, :, :]
    t = np.clip(np.einsum("nsj,sj->ns", rel, d) / len2[None, :], 0.0, 1.0)
    proj = p0[None, :, :] + t[:, :, None] * d[None, :, :]
    dist2 = np.einsum("nsj,nsj->ns", pts[:, None, :] - proj, pts[:, None, :] - proj)
    j = np.argmin(dist2, axis=1)
    rows = np.arange(len(pts))
    seg_len = np.sqrt(np.einsum("ij,ij->i", d, d))
    dist = np.sqrt(dist2[rows, j])
    arc = cumlen[j] + t[rows, j] * seg_len[j]
    return dist, arc


# The per-snippet ego measures the library ran before its one ego pass per
# scoring batch, kept verbatim as that pass's oracle: the ego path with its
# repeated poses dropped and its arc length, the step speeds, and the
# frame curvature column.


class Path(NamedTuple):
    """Polyline with cached cumulative arc length."""

    points: np.ndarray  # (N, 2)
    arclength: np.ndarray  # (N,), arclength[0] == 0

    @staticmethod
    def from_points(points) -> "Path":
        pts = dedupe_points(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"path points must be (N, 2), got {pts.shape}")
        return Path(pts, cumulative_arclength(pts))

    @property
    def length(self) -> float:
        return float(self.arclength[-1]) if len(self.arclength) else 0.0


def ego_step_speeds(ego: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(T-1,) ego speeds over each step, from pose displacements."""
    return np.linalg.norm(np.diff(ego, axis=0), axis=1) / np.diff(ts)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def ego_instant_curvature(ego: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """|dh/ds| from wrapped heading differences; 0 where the ego barely moves."""
    n = len(ego)
    out = np.zeros(n)
    if n < 2:
        return out
    s = cumulative_arclength(ego)
    lo = np.concatenate([[0], np.arange(n - 1)])
    hi = np.concatenate([np.arange(1, n), [n - 1]])
    ds = s[hi] - s[lo]
    dh = _wrap_angle(headings[hi] - headings[lo])
    np.divide(dh, ds, out=out, where=ds > 1e-9)
    return np.abs(out)


# The per-path curve measure the library ran once per track, ego path and
# lane before its one pass per scoring batch, kept verbatim as its oracle.


class CurvatureProfile(NamedTuple):
    """Signed curvature and its arc-length derivative at resampled stations."""

    arclength: np.ndarray  # (K,)
    kappa: np.ndarray  # (K,), positive for left turns
    kappa_dot: np.ndarray  # (K,)


def _as_path(path_or_points) -> Path:
    if isinstance(path_or_points, Path):
        return path_or_points
    return Path.from_points(path_or_points)


def resample_arclength(path_or_points, K: int) -> Path:
    """Resample a polyline at K stations uniformly spaced in arc length.

    Interpolation is piecewise linear, so resampled points lie on the input
    chords: for a circle sampled every 1 degree the radial error is bounded
    by the chord sagitta, about 3.8e-4 of the radius times r.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    path = _as_path(path_or_points)
    if len(path.points) < 2 or path.length <= 0.0:
        raise ValueError("resampling needs a polyline with positive length")
    t = np.linspace(0.0, path.length, K)
    x = np.interp(t, path.arclength, path.points[:, 0])
    y = np.interp(t, path.arclength, path.points[:, 1])
    return Path(np.column_stack([x, y]), t)


def _first_derivative(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (s[2:] - s[:-2])
    out[0] = (f[1] - f[0]) / (s[1] - s[0])
    out[-1] = (f[-1] - f[-2]) / (s[-1] - s[-2])
    return out


def _second_derivative(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.empty_like(f)
    h1 = s[1:-1] - s[:-2]
    h2 = s[2:] - s[1:-1]
    out[1:-1] = 2.0 * (h1 * (f[2:] - f[1:-1]) - h2 * (f[1:-1] - f[:-2])) / (h1 * h2 * (h1 + h2))
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def curvature_profile(path_or_points, K: int = 100) -> CurvatureProfile:
    """Signed curvature kappa(s) and kappa_dot(s) on a K-point resampling.

    kappa = (x' y'' - y' x'') / (x'^2 + y'^2)^(3/2) with derivatives taken
    against arc length; left turns are positive. Stations where the local
    speed degenerates report zero curvature.
    """
    if K < 3:
        raise ValueError(f"K must be >= 3 for curvature, got {K}")
    rs = resample_arclength(path_or_points, K)
    s = rs.arclength
    dx = _first_derivative(rs.points[:, 0], s)
    dy = _first_derivative(rs.points[:, 1], s)
    ddx = _second_derivative(rs.points[:, 0], s)
    ddy = _second_derivative(rs.points[:, 1], s)
    speed2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.where(speed2 > _EPS, (dx * ddy - dy * ddx) / np.power(speed2, 1.5), 0.0)
    return CurvatureProfile(s, kappa, _first_derivative(kappa, s))


def curve_complexity(path_or_points, K: int = 100) -> float:
    """Mean absolute curvature plus mean absolute curvature rate.

    Degenerate inputs (fewer than two distinct points, zero length) score 0;
    an exactly straight polyline scores exactly 0.0.
    """
    path = _as_path(path_or_points)
    if len(path.points) < 2 or path.length <= 0.0:
        return 0.0
    pts = path.points
    first_distinct = int(np.flatnonzero(np.any(pts != pts[0], axis=1))[0])
    d = pts[first_distinct] - pts[0]
    cross = (pts[:, 0] - pts[0, 0]) * d[1] - (pts[:, 1] - pts[0, 1]) * d[0]
    if not np.any(cross):
        return 0.0
    prof = curvature_profile(path, K)
    return float(np.mean(np.abs(prof.kappa)) + np.mean(np.abs(prof.kappa_dot)))


# The scalar closed-segment test and the pair loops the library ran before
# its one array predicate, kept verbatim as that predicate's oracle.


def _on_segment(p, q, r) -> bool:
    """q collinear with p-r assumed; True when q lies within the bounding box."""
    return (
        min(p[0], r[0]) - _EPS <= q[0] <= max(p[0], r[0]) + _EPS
        and min(p[1], r[1]) - _EPS <= q[1] <= max(p[1], r[1]) + _EPS
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Closed-segment intersection test, touches and collinear overlap included."""
    d1 = _cross(np.asarray(q1), np.asarray(q2), np.asarray(p1))
    d2 = _cross(np.asarray(q1), np.asarray(q2), np.asarray(p2))
    d3 = _cross(np.asarray(p1), np.asarray(p2), np.asarray(q1))
    d4 = _cross(np.asarray(p1), np.asarray(p2), np.asarray(q2))
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if abs(d1) <= _EPS and _on_segment(q1, p1, q2):
        return True
    if abs(d2) <= _EPS and _on_segment(q1, p2, q2):
        return True
    if abs(d3) <= _EPS and _on_segment(p1, q1, p2):
        return True
    if abs(d4) <= _EPS and _on_segment(p1, q2, p2):
        return True
    return False


def polygon_polyline_intersects(polygon: np.ndarray, polyline: np.ndarray) -> bool:
    """True when the polyline touches or enters the polygon region."""
    poly = np.asarray(polygon, dtype=float)
    line = np.asarray(polyline, dtype=float)
    if len(line) == 0 or len(poly) < 3:
        return False
    if bool(np.any(points_in_polygon(line, poly))):
        return True
    closed = np.vstack([poly, poly[:1]])
    for i in range(len(line) - 1):
        for j in range(len(poly)):
            if segments_intersect(line[i], line[i + 1], closed[j], closed[j + 1]):
                return True
    return False


def polygon_is_simple(polygon: np.ndarray) -> bool:
    """No two non-adjacent edges may intersect (closed ring)."""
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)
    if n < 3:
        return False
    edges = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if segments_intersect(edges[i][0], edges[i][1], edges[j][0], edges[j][1]):
                return False
    return True


def _in_gate(det, ego_k, r2):
    if r2 is None:
        return True
    dx = det.center[0] - ego_k[0]
    dy = det.center[1] - ego_k[1]
    return dx * dx + dy * dy <= r2


def _r2(roi_radius):
    return None if roi_radius is None else roi_radius * roi_radius


def track_rows(s, roi_radius=None):
    """track_id -> [(frame offset, center, speed, label, in gate)], ids sorted."""
    ego = ego_xy(s)
    r2 = _r2(roi_radius)
    obs = {}
    for k, frame in enumerate(frames_of(s)):
        for det in frame.detections:
            inside = _in_gate(det, ego[k], r2)
            obs.setdefault(det.track_id, []).append((k, det.center, det.speed, det.label, inside))
    return {tid: obs[tid] for tid in sorted(obs)}


def crowdedness(s, roi_radius=None, static_speed=STATIC_SPEED):
    tracks = track_rows(s, roi_radius)
    n = s.num_frames
    static_counts = np.zeros(n)
    dynamic_counts = np.zeros(n)
    for rows in tracks.values():
        static = float(np.mean(np.array([r[2] for r in rows], dtype=float))) < static_speed
        for k, _, _, _, inside in rows:
            if not inside:
                continue
            if static:
                static_counts[k] += 1
            else:
                dynamic_counts[k] += 1
    return float(np.mean(static_counts)), float(np.mean(dynamic_counts))


def class_diversity(s, roi_radius=None):
    ego = ego_xy(s)
    r2 = _r2(roi_radius)
    total = 0.0
    for k, frame in enumerate(frames_of(s)):
        counts = {}
        n_in = 0
        for det in frame.detections:
            if not _in_gate(det, ego[k], r2):
                continue
            n_in += 1
            counts[det.label] = counts.get(det.label, 0) + 1
        if n_in == 0:
            continue
        term = 1.0
        for c in counts.values():
            term *= 1.0 + c
        total += term / n_in
    return total / s.num_frames if s.num_frames else 0.0


def spatial_variance(s, roi_radius=None):
    ego = ego_xy(s)
    r2 = _r2(roi_radius)
    dists = []
    for k, frame in enumerate(frames_of(s)):
        for det in frame.detections:
            dx = det.center[0] - ego[k, 0]
            dy = det.center[1] - ego[k, 1]
            d2 = dx * dx + dy * dy
            if r2 is not None and d2 > r2:
                continue
            dists.append(np.sqrt(d2))
    if len(dists) < 2:
        return 0.0
    return float(np.var(dists))


def speed_diversity(s, roi_radius=None):
    speeds = [
        np.array([r[2] for r in rows], dtype=float)
        for rows in track_rows(s, roi_radius).values()
        if any(r[4] for r in rows)
    ]
    if not speeds:
        return 0.0
    means = np.array([float(np.mean(v)) for v in speeds])
    inner = sum(float(np.var(v)) for v in speeds)
    return float(np.var(means)) + inner


def frame_class_columns(s, roi_radius=None):
    """(T, 5): in-gate total, vehicle, pedestrian, bicyclist counts, class term."""
    ego = ego_xy(s)
    r2 = _r2(roi_radius)
    out = []
    for k, frame in enumerate(frames_of(s)):
        counts = {label: 0 for label in FRAME_CLASSES}
        for det in frame.detections:
            if _in_gate(det, ego[k], r2):
                counts[det.label] += 1
        total = sum(counts.values())
        if total:
            term = 1.0
            for c in counts.values():
                term *= 1.0 + c
            term /= total
        else:
            term = 0.0
        out.append([float(total)] + [float(counts[c]) for c in FRAME_CLASSES] + [term])
    return np.array(out, dtype=float).reshape(-1, 5)


def included_lanes(index, ego, radius):
    """ROI lane mask: lanes with some ego pose within `radius`."""
    mask = np.zeros(len(index.lane_pts), dtype=bool)
    for i, pts in enumerate(index.lane_pts):
        if len(pts) == 0:
            continue
        dist, _ = project_points_to_polyline(ego, pts, index.lane_cumlen[i])
        mask[i] = bool(np.min(dist) <= radius)
    return mask


def _polygon_in_roi(poly, ego, radius) -> bool:
    if np.any(points_in_polygon(ego, poly)):
        return True
    ring = np.vstack([poly, poly[:1]])
    dist, _ = geometry.project_points_to_polyline(ego, ring)
    return bool(np.min(dist) <= radius)


def infra_row(s, index, roi_radius, resample_points):
    """The infrastructure row of snippet `s`, one map element at a time."""
    m = index.scene_map
    ego = ego_xy(s)
    lane_in = included_lanes(index, ego, roi_radius)
    vehicle_in = lane_in & ~index.lane_is_bike
    bike_in = lane_in & index.lane_is_bike
    curves = index.lane_curve_complexity(resample_points)

    cm = index.crossing_matrix
    row = {
        "curve_mean": float(np.mean(curves[vehicle_in])) if np.any(vehicle_in) else 0.0,
        "crossing_total": float(cm[np.ix_(vehicle_in, vehicle_in)].sum()),
        "bike_curve": float(np.mean(curves[bike_in])) if np.any(bike_in) else 0.0,
        "bike_crossing": float(cm[np.ix_(bike_in, lane_in)].sum()),
    }

    polys = [np.asarray(i.polygon, dtype=float) for i in m.intersections]
    row["at_intersection"] = float(any(np.any(points_in_polygon(ego, p)) for p in polys))
    roads = 0
    inter_lanes = 0
    for inter, poly in zip(m.intersections, polys):
        if _polygon_in_roi(poly, ego, roi_radius):
            roads += inter.incoming_roads
            inter_lanes += sum(inter.lanes_per_road)
    row["intersection_roads"] = float(roads)
    row["intersection_lanes"] = float(inter_lanes)

    lights = 0
    signs = 0
    for control in m.traffic_controls:
        pos = np.asarray(control.position, dtype=float)
        if np.min(np.linalg.norm(ego - pos, axis=1)) <= roi_radius:
            if control.kind == "traffic_light":
                lights += 1
            else:
                signs += 1
    row["traffic_lights"] = float(lights)
    row["signs"] = float(signs)

    overlaps = 0
    vehicle_cols = np.flatnonzero(vehicle_in)
    for ci, poly in enumerate(m.crosswalks):
        poly = np.asarray(poly, dtype=float).reshape(-1, 2)
        if len(vehicle_cols) and _polygon_in_roi(poly, ego, roi_radius):
            overlaps += int(index.crosswalk_lane_hits[ci, vehicle_cols].sum())
    row["crosswalk_lane_overlaps"] = float(overlaps)

    row["height_var"] = 0.0
    hs = np.asarray(m.height_samples, dtype=float).reshape(-1, 3)
    if len(hs):
        d2 = (hs[:, None, 0] - ego[None, :, 0]) ** 2 + (hs[:, None, 1] - ego[None, :, 1]) ** 2
        in_roi = np.min(d2, axis=1) <= roi_radius * roi_radius
        if np.any(in_roi):
            row["height_var"] = float(np.var(hs[in_roi, 2]))
    return row


def _nearest_vehicle_lane(index, points):
    veh = index.vehicle_indices
    dists = np.empty((len(veh), len(points)))
    arcs = np.empty_like(dists)
    for row, li in enumerate(veh):
        dists[row], arcs[row] = project_points_to_polyline(
            points, index.lane_pts[li], index.lane_cumlen[li]
        )
    best = np.argmin(dists, axis=0)
    cols = np.arange(len(points))
    return np.array(veh, dtype=int)[best], dists[best, cols], arcs[best, cols]


RouteMatch = namedtuple("RouteMatch", "assignments lateral valid runs traversed")


def lane_width(index, li, fallback):
    w = index.scene_map.lanes[li].width
    return fallback if w is None else w


def match_route(s, index, gate=sdv.MAP_MATCH_GATE, min_frac=sdv.MAP_MATCH_MIN_FRAC):
    ego = ego_xy(s)
    n = len(ego)
    if not index.vehicle_indices:
        return RouteMatch(np.full(n, -1, dtype=int), np.full(n, np.inf), False, (), ())
    assignments, lateral, _ = _nearest_vehicle_lane(index, ego)
    frac = float(np.mean(lateral <= gate))
    runs = []
    start = 0
    for t in range(1, n + 1):
        if t == n or assignments[t] != assignments[start]:
            runs.append((int(assignments[start]), start, t))
            start = t
    traversed = []
    for lane_idx, _, _ in runs:
        if lane_idx not in traversed:
            traversed.append(lane_idx)
    return RouteMatch(assignments, lateral, frac >= min_frac, tuple(runs), tuple(traversed))


def route_events(rec, index, config) -> tuple:
    """(lane_changes, turns, controls_on_route) along the matched route.

    A lane change is a transition into the previous lane's left or right
    neighbor held for at least `config.lane_change_min_frames`; turns count
    maximal runs on lanes tagged left or right; controls count distinct
    controls governing any traversed lane.
    """
    m = index.scene_map
    match = rec.match
    lane_changes = 0
    for (a, _, _), (b, sb, eb) in zip(match.runs, match.runs[1:]):
        if a < 0 or b < 0:
            continue
        b_id = index.lane_ids[b]
        lane_a = m.lanes[a]
        neighbors = (lane_a.left_neighbor, lane_a.right_neighbor)
        if b_id in neighbors and eb - sb >= config.lane_change_min_frames:
            lane_changes += 1
    turns = sum(
        1 for (li, _, _) in match.runs if li >= 0 and m.lanes[li].turn in ("left", "right")
    )
    traversed_ids = {index.lane_ids[li] for li in match.traversed if li >= 0}
    controls = sum(1 for c in m.traffic_controls if traversed_ids & set(c.lane_ids))
    return lane_changes, turns, controls


Track = namedtuple("Track", "track_id label positions speeds static")


def tracks_of(s, static_speed=STATIC_SPEED):
    """One ungated Track per track of `track_rows(s)`: the label of its
    first observation, its positions and speeds in frame order, and
    `crowdedness`'s static rule."""
    out = []
    for tid, rows in track_rows(s).items():
        speeds = np.array([r[2] for r in rows], dtype=float)
        static = float(np.mean(speeds)) < static_speed
        out.append(Track(tid, rows[0][3], np.array([r[1] for r in rows], dtype=float), speeds, static))
    return out


def interactions(
    s,
    index,
    near_dist=10.0,
    horizon=5.0,
    gate=sdv.MAP_MATCH_GATE,
    lane_width_fallback=3.6,
    static_speed=STATIC_SPEED,
):
    """(near_static, near_dynamic, conflict_traversals, conflict_reachable)."""
    match = match_route(s, index, gate)
    ego_path = geometry.dedupe_points(ego_xy(s))
    tracks = tracks_of(s, static_speed)
    near_static = 0
    near_dynamic = 0
    for t in tracks:
        dist, _ = project_points_to_polyline(t.positions, ego_path)
        if float(np.min(dist)) < near_dist:
            if t.static:
                near_static += 1
            else:
                near_dynamic += 1

    conflict = sdv._conflict_lanes(index, match.traversed)
    traversing = set()
    vehicles = [t for t in tracks if t.label == "vehicle"]
    for t in vehicles:
        for li in conflict:
            half = 0.5 * lane_width(index, li, lane_width_fallback)
            dist, _ = project_points_to_polyline(
                t.positions, index.lane_pts[li], index.lane_cumlen[li]
            )
            if float(np.min(dist)) <= half:
                traversing.add(t.track_id)
                break

    reachable = 0
    if conflict and index.vehicle_indices:
        reach = sdv._entry_distances(index, conflict)
        for t in vehicles:
            if t.track_id in traversing:
                continue
            lanes, lat, arc = _nearest_vehicle_lane(index, t.positions)
            ok = lat <= gate
            dist_to_entry = np.where(
                np.isfinite(reach[lanes]), np.maximum(reach[lanes] - arc, 0.0), np.inf
            )
            if bool(np.any(ok & (t.speeds * horizon >= dist_to_entry))):
                reachable += 1
    return near_static, near_dynamic, len(traversing), reachable


def detect_nudges(rec, index, config):
    """Count lateral in-lane excursions around a nearby object, by the
    frame loop the library first ran."""
    match = rec.match
    n = len(match.assignments)
    if n == 0:
        return 0
    half_ego = 0.5 * config.ego_width
    fallback = config.lane_width_fallback
    thresh = np.array(
        [
            0.5 * lane_width(index, li, fallback) - half_ego if li >= 0 else np.inf
            for li in match.assignments
        ]
    )
    exceed = match.lateral > thresh
    min_bound_frames = config.nudge_min_bound_frames
    det_frame = rec.snippet.det_frame

    count = 0
    t = 0
    while t < n:
        if not exceed[t]:
            t += 1
            continue
        start = t
        lane = match.assignments[start]
        while t < n and exceed[t] and match.assignments[t] == lane:
            t += 1
        end = t
        pre = start - min_bound_frames
        post = end + min_bound_frames
        if pre < 0 or post > n:
            continue
        if np.any(exceed[pre:start]) or np.any(match.assignments[pre:start] != lane):
            continue
        if np.any(exceed[end:post]) or np.any(match.assignments[end:post] != lane):
            continue
        during = (det_frame >= start) & (det_frame < end)
        if np.any(rec.path_dist[during] <= config.nudge_object_dist):
            count += 1
    return count


# The selection phases as the library first ran them, verbatim.


def select_challenging(ids, matrix, valid, tasks, adjacency):
    """Greedy round-robin task picks; returns (per-task id lists, audit)."""
    alive = {sid for sid, ok in zip(ids, valid) if ok}
    index_of = {sid: i for i, sid in enumerate(ids)}
    picked = {t.name: [] for t in tasks}
    audit = []
    remaining = {t.name: t.budget for t in tasks}
    iteration = 0
    while any(remaining[t.name] > 0 for t in tasks) and alive:
        progressed = False
        for t in tasks:
            if remaining[t.name] <= 0 or not alive:
                continue
            cand = sorted(alive)
            scores = np.array([matrix[index_of[sid]] @ t.weights for sid in cand])
            best = int(np.argmax(scores))
            pick = cand[best]
            eliminated = take_pick(pick, alive, adjacency)
            picked[t.name].append(pick)
            remaining[t.name] -= 1
            audit.append(
                AuditEntry("challenging", iteration, t.name, pick, float(scores[best]), eliminated)
            )
            progressed = True
        if not progressed:
            break
        iteration += 1
    return picked, audit


def select_diverse(ids, frame_mats, valid, selected, k_div, adjacency, directed, seed_norms):
    """Farthest-point growth of the diverse set; returns (ids, audit).

    Candidate min-distances to the selected set are cached and only updated
    against each new pick, which leaves the argmax unchanged relative to a
    full recomputation.
    """
    alive = {sid for sid, ok in zip(ids, valid) if ok} - set(selected)
    for sid in selected:
        alive -= adjacency.get(sid, set())
    anchor = list(selected)
    picked = []
    audit = []
    mindist = {}
    for i in range(k_div):
        if not alive:
            break
        cand = sorted(alive)
        if not anchor:
            norms = np.array([seed_norms[sid] for sid in cand])
            best = int(np.argmax(norms))
            pick = cand[best]
            value = float(norms[best])
            is_seed = True
        else:
            for sid in cand:
                if sid not in mindist:
                    mindist[sid] = min(
                        dissimilarity(frame_mats[sid], frame_mats[other], directed)
                        for other in anchor
                    )
            dists = np.array([mindist[sid] for sid in cand])
            best = int(np.argmax(dists))
            pick = cand[best]
            value = float(dists[best])
            is_seed = False
        eliminated = take_pick(pick, alive, adjacency)
        mindist.pop(pick, None)
        for sid in list(mindist):
            if sid not in alive:
                mindist.pop(sid)
                continue
            d = dissimilarity(frame_mats[sid], frame_mats[pick], directed)
            if d < mindist[sid]:
                mindist[sid] = d
        anchor.append(pick)
        picked.append(pick)
        audit.append(AuditEntry("diverse", i, None, pick, value, eliminated, seed=is_seed))
    return picked, audit


# The forecast baseline as the library first ran it, verbatim: one frozen
# entry per record, grouped into a dict of frames per snippet.


@dataclass(frozen=True, slots=True)
class ForecastEntry:
    actor_id: str
    timestep: int
    mu: tuple  # (x, y)
    cov: tuple  # (sxx, sxy, syy)


@dataclass(frozen=True, slots=True)
class GaussianForecast:
    snippet_id: str
    horizon: int
    frames: dict  # frame_index -> tuple of ForecastEntry


def entry_entropy(entry: ForecastEntry) -> float:
    """Differential entropy of one 2D Gaussian, in nats."""
    sxx, sxy, syy = entry.cov
    det = sxx * syy - sxy * sxy
    if not (sxx > 0.0 and det > 0.0):
        raise ForecastError(
            f"covariance for actor {entry.actor_id} step {entry.timestep} is not positive definite"
        )
    return LOG_2PI_E + 0.5 * float(np.log(det))


def frame_entropy(entries) -> float:
    """Total forecast entropy of one frame (sum over actors and timesteps)."""
    return float(sum(entry_entropy(e) for e in entries))


def snippet_entropy(forecast: GaussianForecast) -> float:
    total = 0.0
    for frame_index in sorted(forecast.frames):
        try:
            total += frame_entropy(forecast.frames[frame_index])
        except ForecastError as exc:
            raise ForecastError(
                f"snippet {forecast.snippet_id} frame {frame_index}: {exc}"
            ) from exc
    return total


def load_forecasts(path: str) -> dict:
    """Parse a forecast NDJSON file into {snippet_id: GaussianForecast}."""
    rows = read_rows(path, ForecastError, "forecast file")
    header = next(rows)[1]
    if not isinstance(header, dict) or header.get("kind") != "forecast_header":
        raise ForecastError("first record must be the forecast header")
    try:
        horizon = int(header.get("horizon", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ForecastError(f"forecast file {path} line 1: malformed horizon: {exc}") from exc
    frames_by_snippet: dict[str, dict] = {}
    for lineno, obj in rows:
        if not isinstance(obj, dict) or obj.get("kind") != "forecast":
            raise ForecastError(f"forecast file {path} line {lineno}: expected a forecast record")
        try:
            sid = str(obj["snippet_id"])
            frame_index = int(obj["frame_index"])
            entry = ForecastEntry(
                actor_id=str(obj["actor_id"]),
                timestep=int(obj["timestep"]),
                mu=(float(obj["mu"][0]), float(obj["mu"][1])),
                cov=(float(obj["cov"][0]), float(obj["cov"][1]), float(obj["cov"][2])),
            )
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ForecastError(
                f"forecast file {path} line {lineno}: malformed forecast record: {exc}"
            ) from exc
        frames_by_snippet.setdefault(sid, {}).setdefault(frame_index, []).append(entry)
    return {
        sid: GaussianForecast(
            sid, horizon, {fi: tuple(entries) for fi, entries in frames.items()}
        )
        for sid, frames in frames_by_snippet.items()
    }


# The baseline walk as the library first ran it, verbatim.


def _walk(order, adjacency, k, audit_maker):
    picked = []
    audit = []
    alive = set(order)
    for sid in order:
        if len(picked) >= k:
            break
        if sid not in alive:
            continue
        eliminated = take_pick(sid, alive, adjacency)
        audit.append(audit_maker(len(picked), sid, eliminated))
        picked.append(sid)
    return picked, audit


def random_select(ids, adjacency, k: int, seed: int):
    """Seeded uniform walk over the pool, skipping overlaps, until k picks."""
    ordered = sorted(ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    order = [ordered[i] for i in perm]
    return _walk(
        order,
        adjacency,
        k,
        lambda i, sid, elim: AuditEntry("baseline", i, "rn", sid, None, elim),
    )


def al_select(ids, forecasts: dict, adjacency, k: int):
    """Highest-entropy-first walk; every pool snippet needs a forecast."""
    ordered = sorted(ids)
    missing = [sid for sid in ordered if sid not in forecasts]
    if missing:
        raise ForecastError(f"no forecasts for snippet(s): {', '.join(missing[:8])}")
    scores = {sid: snippet_entropy(forecasts[sid]) for sid in ordered}
    order = sorted(ordered, key=lambda sid: (-scores[sid], sid))
    return _walk(
        order,
        adjacency,
        k,
        lambda i, sid, elim: AuditEntry("baseline", i, "al", sid, scores[sid], elim),
    )
