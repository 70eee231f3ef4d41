"""Domain types for driving-log snippets, scene maps, and pool files.

A pool file is newline-delimited JSON: one header record naming the map
sidecar and the snippet length, then one record per snippet. All records are
written in canonical form (sorted keys, compact separators) so that a
load/save round trip reproduces the file byte for byte.
"""

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import geometry

DETECTION_CLASSES = ("vehicle", "pedestrian", "bicyclist")
CONTROL_KINDS = ("traffic_light", "stop_sign", "yield_sign")
LANE_TURNS = ("straight", "left", "right")
SCHEMA_VERSION = 1


class PoolFormatError(ValueError):
    """Raised when a pool, map, or record cannot be parsed."""


class PoolValidationError(ValueError):
    """Raised when parsed content violates a domain invariant."""

    def __init__(self, findings):
        self.findings = list(findings)
        lines = "; ".join(str(f) for f in self.findings[:8])
        more = "" if len(self.findings) <= 8 else f" (+{len(self.findings) - 8} more)"
        super().__init__(f"{len(self.findings)} validation finding(s): {lines}{more}")


@dataclass(frozen=True, slots=True)
class Finding:
    snippet_id: str | None
    rule: str
    detail: str

    def __str__(self):
        where = self.snippet_id if self.snippet_id is not None else "<pool>"
        return f"{where}: {self.rule}: {self.detail}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    findings: tuple = ()

    @property
    def ok(self):
        return not self.findings


@dataclass(frozen=True, slots=True)
class Detection:
    """One detected object in one frame.

    `speed` is the reported scalar speed of the track at this frame; motion
    classification (static vs dynamic) uses the mean of this field over the
    snippet, not frame-to-frame displacement.
    """

    track_id: str
    label: str
    center: tuple
    yaw: float
    size: tuple
    speed: float


@dataclass(frozen=True, slots=True)
class Frame:
    index: int
    timestamp: float
    ego_pose: tuple  # (x, y, heading), heading in [-pi, pi)
    geo: tuple  # (lat, lon) degrees
    detections: tuple


@dataclass(frozen=True, slots=True)
class Snippet:
    snippet_id: str
    log_id: str
    frame_range: tuple  # inclusive (first, last) frame index within the log
    frames: tuple

    @property
    def num_frames(self):
        return len(self.frames)

    def ego_xy(self):
        """Ego positions as an (T, 2) array."""
        return np.array([f.ego_pose[:2] for f in self.frames], dtype=float)

    def ego_headings(self):
        return np.array([f.ego_pose[2] for f in self.frames], dtype=float)

    def timestamps(self):
        return np.array([f.timestamp for f in self.frames], dtype=float)


@dataclass(frozen=True, slots=True)
class Lane:
    lane_id: str
    centerline: tuple
    successors: tuple = ()
    left_neighbor: str | None = None
    right_neighbor: str | None = None
    is_bike_lane: bool = False
    turn: str = "straight"
    width: float | None = None


@dataclass(frozen=True, slots=True)
class Intersection:
    polygon: tuple
    incoming_roads: int
    lanes_per_road: tuple


@dataclass(frozen=True, slots=True)
class TrafficControl:
    kind: str
    position: tuple
    lane_ids: tuple


@dataclass(frozen=True, slots=True)
class SceneMap:
    lanes: tuple = ()
    intersections: tuple = ()
    traffic_controls: tuple = ()
    crosswalks: tuple = ()
    height_samples: tuple = ()  # (x, y, z) triples


@dataclass(frozen=True, slots=True)
class SnippetPool:
    snippets: tuple
    scene_map: SceneMap
    snippet_length: int
    map_name: str = "scene.map.json"

    def by_id(self):
        return {s.snippet_id: s for s in self.snippets}


def snippets_overlap(a: Snippet, b: Snippet) -> bool:
    """True when two snippets share any frame of the same source log.

    Symmetric and reflexive for any snippet with a nonempty frame range.
    """
    if a.log_id != b.log_id:
        return False
    return a.frame_range[0] <= b.frame_range[1] and b.frame_range[0] <= a.frame_range[1]


def canonical_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory and rename into place."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pair(v, what):
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise PoolFormatError(f"{what} must be a 2-element array, got {v!r}")
    return (float(v[0]), float(v[1]))


def _detection_from_obj(obj) -> Detection:
    try:
        return Detection(
            track_id=str(obj["track_id"]),
            label=str(obj["class"]),
            center=_pair(obj["center"], "detection center"),
            yaw=float(obj["yaw"]),
            size=_pair(obj["size"], "detection size"),
            speed=float(obj["speed"]),
        )
    except KeyError as exc:
        raise PoolFormatError(f"detection missing field {exc}") from exc


def _detection_to_obj(d: Detection):
    return {
        "track_id": d.track_id,
        "class": d.label,
        "center": [d.center[0], d.center[1]],
        "yaw": d.yaw,
        "size": [d.size[0], d.size[1]],
        "speed": d.speed,
    }


def _frame_from_obj(obj) -> Frame:
    try:
        pose = obj["ego_pose"]
        if not isinstance(pose, (list, tuple)) or len(pose) != 3:
            raise PoolFormatError(f"ego_pose must have 3 elements, got {pose!r}")
        return Frame(
            index=int(obj["index"]),
            timestamp=float(obj["timestamp"]),
            ego_pose=(float(pose[0]), float(pose[1]), float(pose[2])),
            geo=_pair(obj["geo"], "frame geo"),
            detections=tuple(_detection_from_obj(d) for d in obj["detections"]),
        )
    except KeyError as exc:
        raise PoolFormatError(f"frame missing field {exc}") from exc


def _frame_to_obj(f: Frame):
    return {
        "index": f.index,
        "timestamp": f.timestamp,
        "ego_pose": [f.ego_pose[0], f.ego_pose[1], f.ego_pose[2]],
        "geo": [f.geo[0], f.geo[1]],
        "detections": [_detection_to_obj(d) for d in f.detections],
    }


def _snippet_from_obj(obj) -> Snippet:
    try:
        fr = obj["frame_range"]
        if not isinstance(fr, (list, tuple)) or len(fr) != 2:
            raise PoolFormatError(f"frame_range must have 2 elements, got {fr!r}")
        return Snippet(
            snippet_id=str(obj["snippet_id"]),
            log_id=str(obj["log_id"]),
            frame_range=(int(fr[0]), int(fr[1])),
            frames=tuple(_frame_from_obj(f) for f in obj["frames"]),
        )
    except KeyError as exc:
        raise PoolFormatError(f"snippet missing field {exc}") from exc


def _snippet_to_obj(s: Snippet):
    return {
        "kind": "snippet",
        "snippet_id": s.snippet_id,
        "log_id": s.log_id,
        "frame_range": [s.frame_range[0], s.frame_range[1]],
        "frames": [_frame_to_obj(f) for f in s.frames],
    }


def _lane_from_obj(obj) -> Lane:
    try:
        pts = tuple(_pair(p, "lane point") for p in obj["centerline"])
        return Lane(
            lane_id=str(obj["id"]),
            centerline=pts,
            successors=tuple(str(x) for x in obj.get("successors", [])),
            left_neighbor=obj.get("left_neighbor"),
            right_neighbor=obj.get("right_neighbor"),
            is_bike_lane=bool(obj.get("is_bike_lane", False)),
            turn=str(obj.get("turn", "straight")),
            width=None if obj.get("width") is None else float(obj["width"]),
        )
    except KeyError as exc:
        raise PoolFormatError(f"lane missing field {exc}") from exc


def _lane_to_obj(lane: Lane):
    obj = {
        "id": lane.lane_id,
        "centerline": [[p[0], p[1]] for p in lane.centerline],
        "successors": list(lane.successors),
        "left_neighbor": lane.left_neighbor,
        "right_neighbor": lane.right_neighbor,
        "is_bike_lane": lane.is_bike_lane,
        "turn": lane.turn,
        "width": lane.width,
    }
    return obj


def map_from_obj(obj) -> SceneMap:
    if not isinstance(obj, dict):
        raise PoolFormatError("map must be a JSON object")
    try:
        lanes = tuple(_lane_from_obj(o) for o in obj.get("lanes", []))
        intersections = tuple(
            Intersection(
                polygon=tuple(_pair(p, "intersection point") for p in o["polygon"]),
                incoming_roads=int(o["incoming_roads"]),
                lanes_per_road=tuple(int(x) for x in o["lanes_per_road"]),
            )
            for o in obj.get("intersections", [])
        )
        controls = tuple(
            TrafficControl(
                kind=str(o["kind"]),
                position=_pair(o["position"], "control position"),
                lane_ids=tuple(str(x) for x in o["lane_ids"]),
            )
            for o in obj.get("traffic_controls", [])
        )
        crosswalks = tuple(
            tuple(_pair(p, "crosswalk point") for p in poly)
            for poly in obj.get("crosswalks", [])
        )
        heights = tuple(
            (float(h[0]), float(h[1]), float(h[2])) for h in obj.get("height_samples", [])
        )
    except KeyError as exc:
        raise PoolFormatError(f"map missing field {exc}") from exc
    return SceneMap(lanes, intersections, controls, crosswalks, heights)


def map_to_obj(m: SceneMap):
    return {
        "schema_version": SCHEMA_VERSION,
        "lanes": [_lane_to_obj(l) for l in m.lanes],
        "intersections": [
            {
                "polygon": [[p[0], p[1]] for p in i.polygon],
                "incoming_roads": i.incoming_roads,
                "lanes_per_road": list(i.lanes_per_road),
            }
            for i in m.intersections
        ],
        "traffic_controls": [
            {"kind": c.kind, "position": [c.position[0], c.position[1]], "lane_ids": list(c.lane_ids)}
            for c in m.traffic_controls
        ],
        "crosswalks": [[[p[0], p[1]] for p in poly] for poly in m.crosswalks],
        "height_samples": [[h[0], h[1], h[2]] for h in m.height_samples],
    }


def validate_map(m: SceneMap) -> ValidationReport:
    findings = []
    ids = [l.lane_id for l in m.lanes]
    if len(set(ids)) != len(ids):
        findings.append(Finding(None, "map.lane_ids", "duplicate lane ids"))
    known = set(ids)
    for lane in m.lanes:
        if len(lane.centerline) < 2:
            findings.append(
                Finding(None, "map.centerline", f"lane {lane.lane_id} has fewer than 2 points")
            )
        if lane.turn not in LANE_TURNS:
            findings.append(Finding(None, "map.turn", f"lane {lane.lane_id} turn {lane.turn!r}"))
        if lane.width is not None and not lane.width > 0:
            findings.append(Finding(None, "map.width", f"lane {lane.lane_id} width {lane.width}"))
        for ref in (*lane.successors, lane.left_neighbor, lane.right_neighbor):
            if ref is not None and ref not in known:
                findings.append(
                    Finding(None, "map.reference", f"lane {lane.lane_id} references missing {ref!r}")
                )
    for i, inter in enumerate(m.intersections):
        if len(inter.polygon) < 3:
            findings.append(Finding(None, "map.polygon", f"intersection {i} has <3 vertices"))
        elif not geometry.polygon_is_simple(np.asarray(inter.polygon, dtype=float)):
            findings.append(Finding(None, "map.polygon", f"intersection {i} self-intersects"))
        if inter.incoming_roads != len(inter.lanes_per_road):
            findings.append(
                Finding(None, "map.roads", f"intersection {i} incoming_roads != len(lanes_per_road)")
            )
    for c in m.traffic_controls:
        if c.kind not in CONTROL_KINDS:
            findings.append(Finding(None, "map.control", f"unknown control kind {c.kind!r}"))
        for ref in c.lane_ids:
            if ref not in known:
                findings.append(Finding(None, "map.control", f"control references missing {ref!r}"))
    for j, poly in enumerate(m.crosswalks):
        if len(poly) < 3:
            findings.append(Finding(None, "map.crosswalk", f"crosswalk {j} has <3 vertices"))
        elif not geometry.polygon_is_simple(np.asarray(poly, dtype=float)):
            findings.append(Finding(None, "map.crosswalk", f"crosswalk {j} self-intersects"))
    return ValidationReport(tuple(findings))


def validate_snippet(s: Snippet, m: SceneMap) -> ValidationReport:
    """Check snippet-internal invariants; the map argument anchors referential
    checks and is accepted even when no map-dependent rule applies yet."""
    del m
    findings = []

    def bad(rule, detail):
        findings.append(Finding(s.snippet_id, rule, detail))

    first, last = s.frame_range
    if last - first + 1 != len(s.frames):
        bad("frame_range", f"range {s.frame_range} does not cover {len(s.frames)} frames")
    prev_ts = None
    track_label = {}
    for k, f in enumerate(s.frames):
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


def save_map(m: SceneMap, path: str) -> None:
    write_atomic(path, canonical_dumps(map_to_obj(m)) + "\n")


def load_map(path: str) -> SceneMap:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise PoolFormatError(f"cannot read map file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PoolFormatError(f"map file {path} is not valid JSON: {exc}") from exc
    try:
        m = map_from_obj(obj)
    except (TypeError, ValueError) as exc:  # PoolFormatError included
        raise PoolFormatError(f"map file {path}: {exc}") from exc
    report = validate_map(m)
    if not report.ok:
        raise PoolValidationError(report.findings)
    return m


def save_pool(pool: SnippetPool, path: str) -> None:
    """Write the pool NDJSON and its map sidecar (canonical bytes, atomic)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    save_map(pool.scene_map, os.path.join(directory, pool.map_name))
    header = {
        "kind": "pool_header",
        "schema_version": SCHEMA_VERSION,
        "map_path": pool.map_name,
        "snippet_length": pool.snippet_length,
    }
    lines = [canonical_dumps(header)]
    lines.extend(canonical_dumps(_snippet_to_obj(s)) for s in pool.snippets)
    write_atomic(path, "\n".join(lines) + "\n")


def load_pool(path: str) -> SnippetPool:
    """Parse and validate a pool file; raises on the first malformed record
    or, after a full pass, on any accumulated validation findings."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise PoolFormatError(f"cannot read pool file {path}: {exc}") from exc
    rows = [ln for ln in lines if ln.strip()]
    if not rows:
        raise PoolFormatError(f"pool file {path} is empty")
    try:
        header = json.loads(rows[0])
    except json.JSONDecodeError as exc:
        raise PoolFormatError(f"pool header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "pool_header":
        raise PoolFormatError("first record must be the pool header")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise PoolFormatError(f"unsupported schema_version {header.get('schema_version')!r}")
    try:
        map_name = str(header["map_path"])
        snippet_length = int(header["snippet_length"])
    except KeyError as exc:
        raise PoolFormatError(f"pool file {path} line 1: header missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PoolFormatError(f"pool file {path} line 1: malformed header field: {exc}") from exc
    if snippet_length < 1:
        raise PoolFormatError(f"pool file {path} line 1: snippet_length {snippet_length} is below 1")
    map_path = os.path.join(os.path.dirname(os.path.abspath(path)), map_name)
    scene_map = load_map(map_path)

    snippets = []
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            obj = json.loads(row)
        except json.JSONDecodeError as exc:
            raise PoolFormatError(f"pool file {path} line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("kind") != "snippet":
            raise PoolFormatError(f"pool file {path} line {lineno}: expected a snippet record")
        try:
            snippets.append(_snippet_from_obj(obj))
        except (TypeError, ValueError) as exc:  # PoolFormatError included
            raise PoolFormatError(f"pool file {path} line {lineno}: {exc}") from exc
        if not snippets[-1].frames:
            raise PoolFormatError(f"pool file {path} line {lineno}: snippet has no frames")

    findings = []
    seen = set()
    for s in snippets:
        if s.snippet_id in seen:
            findings.append(Finding(s.snippet_id, "pool.ids", "duplicate snippet_id"))
        seen.add(s.snippet_id)
        if s.num_frames != snippet_length:
            findings.append(
                Finding(s.snippet_id, "pool.length", f"{s.num_frames} frames, header says {snippet_length}")
            )
        findings.extend(validate_snippet(s, scene_map).findings)
    if findings:
        raise PoolValidationError(findings)
    return SnippetPool(tuple(snippets), scene_map, snippet_length, map_name=map_name)


class MapIndex:
    """Precomputed geometry caches shared by every snippet scored on one map.

    Pairwise lane crossing counts and crosswalk hits are computed once here;
    per-snippet measures then reduce over ROI subsets of these tables.
    """

    def __init__(self, scene_map: SceneMap):
        self.scene_map = scene_map
        self.lane_ids = [l.lane_id for l in scene_map.lanes]
        self.id_to_index = {lid: i for i, lid in enumerate(self.lane_ids)}
        self.lane_pts = []
        self.lane_cumlen = []
        for lane in scene_map.lanes:
            pts = geometry.dedupe_points(np.asarray(lane.centerline, dtype=float))
            self.lane_pts.append(pts)
            self.lane_cumlen.append(geometry.cumulative_arclength(pts))
        self.lane_length = np.array([c[-1] for c in self.lane_cumlen])
        # every lane's segments in lane order, and the vehicle lanes' in theirs
        self.segments = geometry.SegmentTable.from_polylines(self.lane_pts, self.lane_cumlen)
        self.lane_is_bike = np.array([l.is_bike_lane for l in scene_map.lanes], dtype=bool)
        self.vehicle_indices = [i for i, b in enumerate(self.lane_is_bike) if not b]
        self.vehicle_segments = self.segments.take(self.vehicle_indices)
        self.bike_indices = [i for i, b in enumerate(self.lane_is_bike) if b]
        self.successor_indices = [
            [self.id_to_index[s] for s in lane.successors if s in self.id_to_index]
            for lane in scene_map.lanes
        ]

        n = len(scene_map.lanes)
        self.crossing_matrix = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(i + 1, n):
                c = geometry.count_polyline_crossings(self.lane_pts[i], self.lane_pts[j])
                self.crossing_matrix[i, j] = c
                self.crossing_matrix[j, i] = c

        self.crosswalk_polys = [np.asarray(p, dtype=float) for p in scene_map.crosswalks]
        self.crosswalk_lane_hits = np.zeros((len(self.crosswalk_polys), n), dtype=bool)
        for ci, poly in enumerate(self.crosswalk_polys):
            for li in range(n):
                self.crosswalk_lane_hits[ci, li] = geometry.polygon_polyline_intersects(
                    poly, self.lane_pts[li]
                )

        self.intersection_polys = [np.asarray(i.polygon, dtype=float) for i in scene_map.intersections]
        self.control_positions = (
            np.array([c.position for c in scene_map.traffic_controls], dtype=float)
            if scene_map.traffic_controls
            else np.zeros((0, 2))
        )
        hs = np.asarray(scene_map.height_samples, dtype=float).reshape(-1, 3)
        self.height_xy = hs[:, :2]
        self.height_z = hs[:, 2]
        self._curve_cache = {}

    def lane_curve_complexity(self, K: int) -> np.ndarray:
        if K not in self._curve_cache:
            self._curve_cache[K] = np.array(
                [
                    geometry.curve_complexity(pts, K) if len(pts) >= 2 else 0.0
                    for pts in self.lane_pts
                ]
            )
        return self._curve_cache[K]

    def lane_width(self, index: int, fallback: float) -> float:
        w = self.scene_map.lanes[index].width
        return fallback if w is None else w

    def project_to_lanes(self, points: np.ndarray, table: geometry.SegmentTable) -> tuple:
        """(lanes, N) distance and arc-position tables of every point against
        every lane of `table`: `segments`, `vehicle_segments` or a
        `segments.take(lanes)`. The only projection onto lane centerlines,
        one kernel call over the table's lane slices."""
        return geometry.project_to_segments(points, table)
