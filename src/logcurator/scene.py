"""Domain types for driving-log snippets, scene maps, and pool files.

A pool file is newline-delimited JSON: one header record naming the map
sidecar and the snippet length, then one record per snippet. All records are
written in canonical form (sorted keys, compact separators) so that a
load/save round trip reproduces the file byte for byte.
"""

import hashlib
import itertools
import json
import math
import os
import tempfile
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import geometry

DETECTION_CLASSES = ("vehicle", "pedestrian", "bicyclist")
CONTROL_KINDS = ("traffic_light", "stop_sign", "yield_sign")
LANE_TURNS = ("straight", "left", "right")
SCHEMA_VERSION = 1
NUMBER_TYPES = frozenset((int, float))  # what json.loads makes of a JSON number
# the scenarios `synthgen` builds, named here so that `cli` can offer them
# without importing the generator
TEMPLATES = ("straight_road", "curved_road", "four_way_intersection", "hilly")
PLANS = ("cruise", "speed_ramp", "lane_change", "turn", "nudge")
VALIDATE_ROWS = 1 << 10  # frame and detection rows per validation chunk of `load_pool`


class PoolFormatError(ValueError):
    """Raised when a pool, map, or record cannot be parsed."""


class OutputError(OSError):
    """Raised when an output file cannot be written."""


class ScenarioError(ValueError):
    """Raised when a scenario spec is internally infeasible."""


class ForecastError(ValueError):
    """Raised for malformed forecast files or covariances without a finite entropy."""


class PoolValidationError(ValueError):
    """Raised when parsed content violates a domain invariant."""

    def __init__(self, findings, source=None):
        self.findings = list(findings)
        lines = "; ".join(str(f) for f in self.findings[:8])
        more = "" if len(self.findings) <= 8 else f" (+{len(self.findings) - 8} more)"
        where = "" if source is None else f"{source}: "
        super().__init__(f"{where}{len(self.findings)} validation finding(s): {lines}{more}")


class Finding(NamedTuple):
    snippet_id: str | None
    rule: str
    detail: str

    def __str__(self):
        where = self.snippet_id if self.snippet_id is not None else "<pool>"
        return f"{where}: {self.rule}: {self.detail}"


class ValidationReport(NamedTuple):
    findings: tuple = ()

    @property
    def ok(self):
        return not self.findings


def _empty(*shape, dtype=float):
    """An empty column that every Snippet built without it shares, so it is
    read-only."""
    column = np.zeros((0, *shape), dtype=dtype)
    column.flags.writeable = False
    return column


class Snippet(NamedTuple):
    """One snippet as columns: T rows per frame, and D rows per detection in
    frame then detection order. `det_speed` is the reported scalar speed of
    the track at that frame; motion classification (static vs dynamic) uses
    its mean over the snippet, not frame-to-frame displacement. The columns
    default to empty: an overlap check needs only the ids and frame range."""

    snippet_id: str
    log_id: str
    frame_range: tuple  # inclusive (first, last) frame index within the log
    index: np.ndarray = _empty(dtype=int)  # (T,) frame index within the log
    timestamp: np.ndarray = _empty()  # (T,)
    ego_pose: np.ndarray = _empty(3)  # (T, 3) x, y, heading in [-pi, pi)
    geo: np.ndarray = _empty(2)  # (T, 2) lat, lon degrees
    track_ids: tuple = ()  # sorted distinct track ids
    classes: tuple = DETECTION_CLASSES  # then any unknown class, sorted
    det_frame: np.ndarray = _empty(dtype=int)  # (D,) frame offset within the snippet
    det_track: np.ndarray = _empty(dtype=int)  # (D,) index into track_ids
    det_label: np.ndarray = _empty(dtype=int)  # (D,) index into classes
    det_center: np.ndarray = _empty(2)  # (D, 2)
    det_yaw: np.ndarray = _empty()  # (D,)
    det_size: np.ndarray = _empty(2)  # (D, 2)
    det_speed: np.ndarray = _empty()  # (D,)

    @property
    def num_frames(self):
        return len(self.index)

    def frame_starts(self) -> list:
        """T + 1 row offsets: frame k's detections are rows
        starts[k]:starts[k + 1] of the detection columns."""
        return [0, *np.cumsum(np.bincount(self.det_frame, minlength=self.num_frames)).tolist()]


class Lane(NamedTuple):
    lane_id: str
    centerline: tuple
    successors: tuple = ()
    left_neighbor: str | None = None
    right_neighbor: str | None = None
    is_bike_lane: bool = False
    turn: str = "straight"
    width: float | None = None


class Intersection(NamedTuple):
    polygon: tuple
    incoming_roads: int
    lanes_per_road: tuple


class TrafficControl(NamedTuple):
    kind: str
    position: tuple
    lane_ids: tuple


class SceneMap(NamedTuple):
    lanes: tuple = ()
    intersections: tuple = ()
    traffic_controls: tuple = ()
    crosswalks: tuple = ()
    height_samples: tuple = ()  # (x, y, z) triples


class SnippetPool(NamedTuple):
    snippets: tuple
    scene_map: SceneMap
    snippet_length: int
    map_name: str = "scene.map.json"
    pool_sha256: str | None = None  # of the pool bytes `load_pool` parsed
    map_sha256: str | None = None  # of the map bytes it parsed


def snippets_overlap(a: Snippet, b: Snippet) -> bool:
    """True when two snippets share any frame of the same source log.

    Symmetric and reflexive for any snippet with a nonempty frame range.
    """
    if a.log_id != b.log_id:
        return False
    return a.frame_range[0] <= b.frame_range[1] and b.frame_range[0] <= a.frame_range[1]


def runs(keys) -> list:
    """(start, end) of each maximal run of equal consecutive values of
    column `keys`, end exclusive; an empty column has none."""
    keys = np.asarray(keys)
    starts = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()] if len(keys) else []
    return list(zip(starts, [*starts[1:], len(keys)]))


def canonical_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace, round-trip floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory and rename into place,
    creating the parent directory first. The file gets the mode `open`
    gives a new file, 0o666 less the umask. A file that cannot be written
    raises OutputError naming `path`; no temp file is left behind."""
    tmp = None
    try:
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0o077)  # reading the umask sets it: set it back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp made it 0o600
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _output_error(path, exc) from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def remove_output(path: str) -> None:
    """Remove output file `path` if there is one; failing that raises
    OutputError, as `write_atomic` does."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _output_error(path, exc) from exc


def _output_error(path: str, exc) -> OutputError:
    # strerror alone: the temp file that an OSError may name is gone
    return OutputError(f"cannot write {path}: {getattr(exc, 'strerror', None) or exc}")


def write_json(path: str, obj) -> None:
    """The one writer of a JSON file: `obj` as one canonical line, atomically."""
    write_atomic(path, canonical_dumps(obj) + "\n")


def write_rows(path: str, kind: str, fields: dict, rows) -> None:
    """The one writer of an NDJSON file, in the layout `read_header` reads:
    a `kind` header of SCHEMA_VERSION with `fields`, then one canonical line
    per object of `rows`, an iterable that is consumed lazily."""
    header = {"kind": kind, "schema_version": SCHEMA_VERSION, **fields}
    write_atomic(path, "\n".join(map(canonical_dumps, itertools.chain([header], rows))) + "\n")


def _parse(text: str, error, problem: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or nested too deep
        raise error(f"{problem}: {exc}") from exc


_scan_once = json.JSONDecoder().scan_once  # the C scanner that json.loads runs


def read_json(path: str, error, what: str, digest=None):
    """The one reader of every JSON input file: file `path` parsed as one
    JSON value; `read_rows` reads NDJSON. A file that cannot be read, is
    empty, or holds bytes that are not UTF-8 or text that is not JSON
    (nested too deep included) raises `error` naming `what`, the path and
    the line. A `digest` (a hashlib object) is updated with the bytes that
    are parsed."""
    return _parse(_read_text(path, error, what, digest), error, f"{what} {path} is not valid JSON")


def read_rows(path: str, error, what: str, digest=None):
    """(line, record) for every nonblank line of NDJSON file `path`, header
    first. Rows are split at "\n" only (a trailing "\r" is dropped), and a
    line is its line in the file, blank lines counted."""
    empty = True
    for n, row in enumerate(_read_text(path, error, what, digest).split("\n"), start=1):
        row = row.removesuffix("\r")
        if not row.strip(" \t\r"):  # blank: JSON whitespace only
            continue
        # a row that the scanner reads as one JSON value from its first
        # character to its last is what json.loads would return; any other
        # row goes to json.loads, for its error text
        try:
            obj, end = _scan_once(row, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(row):
            problem = "header is not valid JSON" if empty else "invalid JSON"
            obj = _parse(row, error, f"{what} {path} line {n}: {problem}")
        empty = False
        yield n, obj
    if empty:
        raise error(f"{what} {path} is empty")


def read_header(path: str, error, what: str, kind: str, integers=(), digest=None) -> tuple:
    """NDJSON file `path` as (where, header, values, rows): its header
    record, which must be a `kind` object of schema_version 1; `where`,
    naming the file and the header's line; the header's `integers` fields,
    each by the number rule; and the rest of `read_rows`."""
    rows = read_rows(path, error, what, digest)
    line, header = next(rows)
    where = f"{what} {path} line {line}"
    if not isinstance(header, dict) or header.get("kind") != kind:
        raise error(f"{where}: first record must be the {kind.replace('_', ' ')}")
    try:
        version, *values = (
            _number(header[key], key, dtype=int, error=error) for key in ("schema_version", *integers)
        )
    except KeyError as exc:
        raise error(f"{where}: header missing field {exc}") from exc
    except error as exc:
        raise error(f"{where}: malformed header field: {exc}") from exc
    if version != SCHEMA_VERSION:
        raise error(f"{where}: unsupported schema_version {version}")
    return where, header, values, rows


def _read_text(path: str, error, what: str, digest=None) -> str:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if digest is not None:
            digest.update(data)
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{what} {path} line {line} is not UTF-8 text: {exc}") from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise error(f"cannot read {what} {path}: {exc}") from exc


def _fields(records, keys, what) -> tuple:
    """The values of `keys` across `records`, one tuple per key."""
    try:
        return tuple(zip(*map(itemgetter(*keys), records))) or ((),) * len(keys)
    except KeyError as exc:
        raise PoolFormatError(f"{what} missing field {exc}") from exc
    except TypeError as exc:
        raise PoolFormatError(f"every {what} must be an object: {exc}") from exc


def _column(values, what, width=None, dtype=float, error=PoolFormatError) -> np.ndarray:
    """`values`, a JSON array, as an array of shape (n,), or (n, width)
    when `width` is given: the one conversion of parsed JSON numbers. Every
    value must be a JSON number, and an integral one when `dtype` is int
    (4.0 reads as 4): anything but an array, or a string, a boolean, null
    or a fraction where an integer belongs, raises `error`."""
    kind = f"an array of {width} numbers" if width else "an integer" if dtype is int else "a number"
    if not isinstance(values, (list, tuple)):
        raise error(f"expected an array in which every {what} is {kind}")
    shape = (len(values),) if width is None else (len(values), width)
    if not values:
        return np.zeros(shape, dtype=dtype)
    try:
        # numpy would read "2.5" and true as numbers and null as NaN
        numbers = NUMBER_TYPES.issuperset(
            map(type, itertools.chain.from_iterable(values) if width else values)
        )
        arr = np.array(values, dtype=None if dtype is int else float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"every {what} must be {kind}: {exc}") from exc
    if dtype is int and arr.dtype.kind == "f":  # 4.0 reads as 4, 4.7 stays a float
        if np.all((np.abs(arr) < 2.0**63) & (arr == np.trunc(arr))):
            arr = arr.astype(int)
    if not numbers or arr.shape != shape or arr.dtype.kind != np.dtype(dtype).kind:
        raise error(f"every {what} must be {kind}")
    return arr


def _number(value, what, dtype=float, error=PoolFormatError):
    """One JSON number by `_column`'s rule, as a Python int or float."""
    return _column([value], what, dtype=dtype, error=error).item()


def _strings(values, what, error=PoolFormatError):
    """`values`, a JSON array, checked to hold JSON strings only: the one
    rule for ids and names. Anything but an array, or a value that is not a
    string, raises `error`; nothing is turned into text with str()."""
    if not isinstance(values, (list, tuple)):
        raise error(f"expected an array in which every {what} is a string")
    if not {str}.issuperset(map(type, values)):
        raise error(f"every {what} must be a string")
    return values


def _string(value, what, error=PoolFormatError) -> str:
    """One JSON string by `_strings`'s rule."""
    return _strings([value], what, error)[0]


def _array(values, what) -> list:
    """`values` when it is a JSON array; anything else raises PoolFormatError."""
    if not isinstance(values, list):
        raise PoolFormatError(f"{what} must be an array")
    return values


def _points(values, what, width=2) -> tuple:
    """A JSON array of points as a tuple of float tuples."""
    return tuple(map(tuple, _column(values, what, width).tolist()))


def snippet_from_obj(obj) -> Snippet:
    """The columns of one snippet record, as a pool line holds it."""
    try:
        sid, log_id = _string(obj["snippet_id"], "snippet_id"), _string(obj["log_id"], "log_id")
        bounds, frames = obj["frame_range"], obj["frames"]
    except KeyError as exc:
        raise PoolFormatError(f"snippet missing field {exc}") from exc
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise PoolFormatError(f"frame_range must have 2 elements, got {bounds!r}")
    if not isinstance(frames, list) or not frames:
        raise PoolFormatError("snippet has no frames: frames must be a nonempty array")
    index, timestamp, pose, geo, per_frame = _fields(
        frames, ("index", "timestamp", "ego_pose", "geo", "detections"), "frame"
    )
    if not all(isinstance(dets, list) for dets in per_frame):
        raise PoolFormatError("every frame's detections must be an array")
    tracks, labels, center, yaw, size, speed = _fields(
        [d for dets in per_frame for d in dets],
        ("track_id", "class", "center", "yaw", "size", "speed"),
        "detection",
    )
    tracks, labels = _strings(tracks, "detection track_id"), _strings(labels, "detection class")
    track_ids = tuple(sorted(set(tracks)))
    classes = DETECTION_CLASSES + tuple(sorted(set(labels).difference(DETECTION_CLASSES)))

    def codes(values, names):
        lookup = {name: i for i, name in enumerate(names)}
        return np.fromiter(map(lookup.__getitem__, values), dtype=int, count=len(values))

    return Snippet(
        snippet_id=sid,
        log_id=log_id,
        frame_range=tuple(_column(bounds, "frame_range bound", dtype=int).tolist()),
        index=_column(index, "frame index", dtype=int),
        timestamp=_column(timestamp, "frame timestamp"),
        ego_pose=_column(pose, "frame ego_pose", 3),
        geo=_column(geo, "frame geo", 2),
        track_ids=track_ids,
        classes=classes,
        det_frame=np.repeat(np.arange(len(frames)), list(map(len, per_frame))),
        det_track=codes(tracks, track_ids),
        det_label=codes(labels, classes),
        det_center=_column(center, "detection center", 2),
        det_yaw=_column(yaw, "detection yaw"),
        det_size=_column(size, "detection size", 2),
        det_speed=_column(speed, "detection speed"),
    )


def snippet_to_obj(s: Snippet):
    """The pool record of one snippet; `snippet_from_obj` reads it back."""
    dets = [
        {"track_id": t, "class": c, "center": xy, "yaw": yaw, "size": size, "speed": speed}
        for t, c, xy, yaw, size, speed in zip(
            [s.track_ids[i] for i in s.det_track.tolist()],
            [s.classes[i] for i in s.det_label.tolist()],
            s.det_center.tolist(),
            s.det_yaw.tolist(),
            s.det_size.tolist(),
            s.det_speed.tolist(),
        )
    ]
    starts = s.frame_starts()
    frames = [
        {"index": i, "timestamp": t, "ego_pose": pose, "geo": geo, "detections": dets[a:b]}
        for i, t, pose, geo, a, b in zip(
            s.index.tolist(), s.timestamp.tolist(), s.ego_pose.tolist(), s.geo.tolist(),
            starts, starts[1:],
        )
    ]
    return {
        "kind": "snippet",
        "snippet_id": s.snippet_id,
        "log_id": s.log_id,
        "frame_range": list(s.frame_range),
        "frames": frames,
    }


def _lane_from_obj(obj) -> Lane:
    def neighbor(key):  # null when the lane has none
        ref = obj.get(key)
        return ref if ref is None else _string(ref, f"lane {key}")

    try:
        lane_id = _string(obj["id"], "lane id")
        width, bike = obj.get("width"), obj.get("is_bike_lane", False)
        if type(bike) is not bool:
            raise PoolFormatError(f"lane {lane_id} is_bike_lane must be true or false")
        return Lane(
            lane_id=lane_id,
            centerline=_points(obj["centerline"], "lane point"),
            successors=tuple(_strings(obj.get("successors", []), "lane successor")),
            left_neighbor=neighbor("left_neighbor"),
            right_neighbor=neighbor("right_neighbor"),
            is_bike_lane=bike,
            turn=_string(obj.get("turn", "straight"), "lane turn"),
            width=None if width is None else _number(width, "lane width"),
        )
    except KeyError as exc:
        raise PoolFormatError(f"lane missing field {exc}") from exc


def _lane_to_obj(lane: Lane):
    return {
        "id": lane.lane_id,
        "centerline": [[p[0], p[1]] for p in lane.centerline],
        "successors": list(lane.successors),
        "left_neighbor": lane.left_neighbor,
        "right_neighbor": lane.right_neighbor,
        "is_bike_lane": lane.is_bike_lane,
        "turn": lane.turn,
        "width": lane.width,
    }


def map_from_obj(obj) -> SceneMap:
    if not isinstance(obj, dict):
        raise PoolFormatError("map must be a JSON object")

    def items(key):
        return _array(obj.get(key, []), f"map field {key!r}")

    try:
        lanes = tuple(_lane_from_obj(o) for o in items("lanes"))
        intersections = tuple(
            Intersection(
                polygon=_points(o["polygon"], "intersection point"),
                incoming_roads=_number(o["incoming_roads"], "intersection's incoming_roads", dtype=int),
                lanes_per_road=tuple(
                    _column(o["lanes_per_road"], "lanes_per_road entry", dtype=int).tolist()
                ),
            )
            for o in items("intersections")
        )
        controls = tuple(
            TrafficControl(
                kind=_string(o["kind"], "control kind"),
                position=_points([o["position"]], "control position")[0],
                lane_ids=tuple(_strings(o["lane_ids"], "control lane id")),
            )
            for o in items("traffic_controls")
        )
        crosswalks = tuple(_points(poly, "crosswalk point") for poly in items("crosswalks"))
        heights = _points(obj.get("height_samples", []), "height sample", 3)
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

    def bad(rule, detail):
        findings.append(Finding(None, rule, detail))

    def finite(what, values):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            bad("map.finite", f"{what} has a non-finite value")

    def ring(rule, what, poly):  # an intersection or crosswalk polygon
        finite(what, poly)
        if len(poly) < 3:
            bad(rule, f"{what} has <3 vertices")
        elif not geometry.polygon_is_simple(np.asarray(poly, dtype=float)):
            bad(rule, f"{what} self-intersects")

    ids = [l.lane_id for l in m.lanes]
    if len(set(ids)) != len(ids):
        bad("map.lane_ids", "duplicate lane ids")
    known = set(ids)
    for lane in m.lanes:
        finite(f"lane {lane.lane_id} centerline", lane.centerline)
        if lane.width is not None:
            finite(f"lane {lane.lane_id} width", lane.width)
        if len(lane.centerline) < 2:
            bad("map.centerline", f"lane {lane.lane_id} has fewer than 2 points")
        if lane.turn not in LANE_TURNS:
            bad("map.turn", f"lane {lane.lane_id} turn {lane.turn!r}")
        if lane.width is not None and not lane.width > 0:
            bad("map.width", f"lane {lane.lane_id} width {lane.width}")
        for ref in (*lane.successors, lane.left_neighbor, lane.right_neighbor):
            if ref is not None and ref not in known:
                bad("map.reference", f"lane {lane.lane_id} references missing {ref!r}")
    for i, inter in enumerate(m.intersections):
        ring("map.polygon", f"intersection {i}", inter.polygon)
        if inter.incoming_roads != len(inter.lanes_per_road):
            bad("map.roads", f"intersection {i} incoming_roads != len(lanes_per_road)")
    for j, c in enumerate(m.traffic_controls):
        finite(f"control {j}", c.position)
        if c.kind not in CONTROL_KINDS:
            bad("map.control", f"unknown control kind {c.kind!r}")
        for ref in c.lane_ids:
            if ref not in known:
                bad("map.control", f"control references missing {ref!r}")
    for j, poly in enumerate(m.crosswalks):
        ring("map.crosswalk", f"crosswalk {j}", poly)
    for j, sample in enumerate(m.height_samples):
        finite(f"height sample {j}", sample)
    return ValidationReport(tuple(findings))


def concat(snippets) -> Snippet:
    """The columns of `snippets` end to end, as one snippet whose ids no
    caller reads. Frame and track codes are offset into the joined columns
    and `track_ids` is the joined tuple, so no two snippets share a frame or
    a track; label codes stay each snippet's own. A lone snippet is its own
    join."""
    if len(snippets) == 1:
        return snippets[0]

    def join(name):
        return np.concatenate([getattr(s, name) for s in snippets])

    def offsets(sizes):  # each snippet's first code, once per detection
        return np.repeat(np.cumsum(sizes) - sizes, [len(s.det_frame) for s in snippets])

    return Snippet(
        "", "", (), *map(join, ("index", "timestamp", "ego_pose", "geo")),
        tuple(itertools.chain.from_iterable(s.track_ids for s in snippets)), DETECTION_CLASSES,
        join("det_frame") + offsets(np.array([s.num_frames for s in snippets], dtype=int)),
        join("det_track") + offsets(np.array([len(s.track_ids) for s in snippets], dtype=int)),
        *map(join, ("det_label", "det_center", "det_yaw", "det_size", "det_speed")),
    )


def chunks(items, size, cap: int):
    """`items` in order, in runs whose `size`s sum to at most `cap`; a run
    holds at least one item."""
    run, total = [], 0
    for item in items:
        n = size(item)
        if run and total + n > cap:
            yield run
            run, total = [], 0
        run.append(item)
        total += n
    if run:
        yield run


def _check(snippets) -> list:
    """The findings of each of `snippets`, one list per snippet. Every rule
    is one predicate over a column of the snippets joined (`concat`); text
    is formatted only for the rows it flags. A snippet's findings follow
    frame order; within a frame the frame rules come first, then each
    detection's rules, in detection order."""
    s = concat(snippets)
    frames = [t.num_frames for t in snippets]
    starts = np.cumsum(frames) - frames  # each snippet's first frame row
    owner = np.repeat(np.arange(len(snippets)), frames).tolist()  # of each frame row
    first = [t.frame_range[0] for t in snippets]
    ts, heading, lat, lon, index = s.timestamp, s.ego_pose[:, 2], s.geo[:, 0], s.geo[:, 1], s.index.tolist()
    frame_values = np.column_stack([s.ego_pose, s.geo, ts])
    size, speed, label, track, det_frame = s.det_size, s.det_speed, s.det_label, s.det_track, s.det_frame
    det_values = np.column_stack([s.det_center, s.det_yaw, size, speed])
    first_label = label[np.unique(track, return_index=True)[1]]
    later = np.append(False, ~(ts[1:] > ts[:-1]))
    later[starts[starts < len(ts)]] = False  # a snippet's first frame has no predecessor

    def local(k):  # frame row k within its snippet
        return k - int(starts[owner[k]])

    def at(j):
        return f"frame {index[det_frame[j]]} track {s.track_ids[track[j]]}"

    def named(j, code):
        return snippets[owner[det_frame[j]]].classes[code]

    # (rule, flagged rows, text of a row, whether rows are detections)
    rules = (
        ("frame_index", s.index != np.repeat(np.subtract(first, starts), frames) + np.arange(len(index)),
         lambda k: f"frame {local(k)} has index {index[k]}, expected {first[owner[k]] + local(k)}", False),
        ("timestamps", later,
         lambda k: f"frame {index[k]} timestamp {float(ts[k])} not increasing", False),
        ("heading", ~((-np.pi <= heading) & (heading < np.pi)),
         lambda k: f"frame {index[k]} heading {float(heading[k])} outside [-pi, pi)", False),
        ("geo", ~((-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)),
         lambda k: f"frame {index[k]} geo {tuple(s.geo[k].tolist())} out of range", False),
        ("finite", ~np.all(np.isfinite(frame_values), axis=1),
         lambda k: f"frame {index[k]} has non-finite value "
         f"{next(v for v in frame_values[k].tolist() if not math.isfinite(v))}", False),
        ("class", label >= len(DETECTION_CLASSES),
         lambda j: f"{at(j)} class {named(j, label[j])!r}", True),
        ("size", ~((size[:, 0] > 0) & (size[:, 1] > 0)),
         lambda j: f"{at(j)} size {tuple(size[j].tolist())}", True),
        ("speed", ~(speed >= 0), lambda j: f"{at(j)} speed {float(speed[j])}", True),
        ("finite", ~np.all(np.isfinite(det_values), axis=1),
         lambda j: f"{at(j)} non-finite field", True),
        ("track_class", label != first_label[track],
         lambda j: f"track {s.track_ids[track[j]]} switches class "
         f"{named(j, first_label[track[j]])} -> {named(j, label[j])}", True),
    )
    found = [
        [] if t.frame_range[1] - t.frame_range[0] + 1 == t.num_frames
        else [Finding(t.snippet_id, "frame_range", f"range {t.frame_range} does not cover {t.num_frames} frames")]
        for t in snippets
    ]
    for (k, _, _), r, row in sorted(
        ((int(det_frame[row]), row, r) if per_det else (row, -1, r), r, row)
        for r, (_, bad, _, per_det) in enumerate(rules)
        for row in np.flatnonzero(bad).tolist()
    ):
        found[owner[k]].append(Finding(snippets[owner[k]].snippet_id, rules[r][0], rules[r][2](row)))
    return found


def save_map(m: SceneMap, path: str) -> None:
    write_json(path, map_to_obj(m))


def load_map(path: str, digest=None) -> SceneMap:
    obj = read_json(path, PoolFormatError, "map file", digest=digest)
    try:
        m = map_from_obj(obj)
    except (TypeError, ValueError, OverflowError) as exc:  # PoolFormatError included
        raise PoolFormatError(f"map file {path}: {exc}") from exc
    report = validate_map(m)
    if not report.ok:
        raise PoolValidationError(report.findings, f"map file {path}")
    return m


def sidecar_path(pool_path: str, map_name: str) -> str:
    """Where the map sidecar that a pool header names lives."""
    return os.path.join(os.path.dirname(os.path.abspath(pool_path)), map_name)


def file_sha256(path: str, what: str) -> str:
    """Hex sha256 of the bytes of file `path`, read in 64 KiB chunks; a file
    that cannot be read raises PoolFormatError naming `what` and the path."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 16):
                digest.update(chunk)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise PoolFormatError(f"cannot read {what} {path}: {exc}") from exc
    return digest.hexdigest()


def save_pool(pool: SnippetPool, path: str) -> None:
    """Write the pool NDJSON, then its map sidecar (canonical bytes, atomic).
    When the map cannot be written the new pool is removed again, so a
    failed save leaves no new file."""
    header = {"map_path": pool.map_name, "snippet_length": pool.snippet_length}
    write_rows(path, "pool_header", header, map(snippet_to_obj, pool.snippets))
    try:
        save_map(pool.scene_map, sidecar_path(path, pool.map_name))
    except BaseException:
        remove_output(path)
        raise


def load_pool(path: str) -> SnippetPool:
    """Parse and validate a pool file; raises on the first malformed record
    or, after a full pass, on any accumulated validation findings. The
    pool carries the sha256 of the pool and map bytes it parsed."""
    pool_digest, map_digest = hashlib.sha256(), hashlib.sha256()
    where, header, (snippet_length,), rows = read_header(
        path, PoolFormatError, "pool file", "pool_header", ("snippet_length",), pool_digest
    )
    try:
        map_name = _string(header["map_path"], "map_path")
    except KeyError as exc:
        raise PoolFormatError(f"{where}: header missing field {exc}") from exc
    except PoolFormatError as exc:
        raise PoolFormatError(f"{where}: malformed header field: {exc}") from exc
    if snippet_length < 1:
        raise PoolFormatError(f"{where}: snippet_length {snippet_length} is below 1")
    scene_map = load_map(sidecar_path(path, map_name), map_digest)

    def parsed():
        for lineno, obj in rows:
            if not isinstance(obj, dict) or obj.get("kind") != "snippet":
                raise PoolFormatError(f"pool file {path} line {lineno}: expected a snippet record")
            try:
                yield snippet_from_obj(obj)
            except PoolFormatError as exc:
                raise PoolFormatError(f"pool file {path} line {lineno}: {exc}") from exc

    # chunks are checked as they are parsed, and findings raised only after
    # the last record: a malformed record is reported first
    snippets, findings, seen = [], [], set()
    for chunk in chunks(parsed(), lambda s: s.num_frames + len(s.det_frame), VALIDATE_ROWS):
        for s, found in zip(chunk, _check(chunk)):
            if s.snippet_id in seen:
                findings.append(Finding(s.snippet_id, "pool.ids", "duplicate snippet_id"))
            seen.add(s.snippet_id)
            if s.num_frames != snippet_length:
                detail = f"{s.num_frames} frames, header says {snippet_length}"
                findings.append(Finding(s.snippet_id, "pool.length", detail))
            findings += found
        snippets += chunk
    if findings:
        raise PoolValidationError(findings, f"pool file {path}")
    digests = pool_digest.hexdigest(), map_digest.hexdigest()
    return SnippetPool(tuple(snippets), scene_map, snippet_length, map_name, *digests)


class MapIndex:
    """Precomputed geometry caches shared by every snippet scored on one map.

    Pairwise lane crossing counts and crosswalk hits are computed once here;
    per-snippet measures then reduce over ROI subsets of these tables.
    """

    def __init__(self, scene_map: SceneMap):
        self.scene_map = scene_map
        self.lane_ids = [l.lane_id for l in scene_map.lanes]
        id_to_index = {lid: i for i, lid in enumerate(self.lane_ids)}
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
        self.successor_indices = [
            [id_to_index[s] for s in lane.successors if s in id_to_index]
            for lane in scene_map.lanes
        ]
        # (L,) each lane's left and right neighbor, -1 for none; whether it turns
        self.left, self.right = (
            np.array([id_to_index.get(getattr(l, side), -1) for l in scene_map.lanes], dtype=np.intp)
            for side in ("left_neighbor", "right_neighbor")
        )
        self.turning = np.array([l.turn in ("left", "right") for l in scene_map.lanes], dtype=bool)
        # (C, L) the lanes each traffic control governs
        controls = scene_map.traffic_controls
        self.control_lanes = np.array(
            [[lid in c.lane_ids for lid in self.lane_ids] for c in controls], dtype=bool
        ).reshape(len(controls), len(self.lane_ids))

        # only the pairs whose bounding boxes meet (geometry.boxes_meet) are tested
        n = len(scene_map.lanes)
        self.crossing_matrix = np.zeros((n, n), dtype=int)
        lane_box = geometry.bounding_boxes(self.lane_pts)
        for i, j in zip(*np.nonzero(np.triu(geometry.boxes_meet(lane_box, lane_box), 1))):
            c = geometry.count_polyline_crossings(self.lane_pts[i], self.lane_pts[j])
            self.crossing_matrix[i, j] = self.crossing_matrix[j, i] = c
        self.crosswalk_polys = [np.asarray(p, dtype=float).reshape(-1, 2) for p in scene_map.crosswalks]
        self.crosswalk_lane_hits = np.zeros((len(self.crosswalk_polys), n), dtype=bool)
        walk_box = geometry.bounding_boxes(self.crosswalk_polys)
        for ci, li in zip(*np.nonzero(geometry.boxes_meet(walk_box, lane_box))):
            poly, lane = self.crosswalk_polys[ci], self.lane_pts[li]
            self.crosswalk_lane_hits[ci, li] = geometry.polygon_polyline_intersects(poly, lane)

        self.intersection_polys = [np.asarray(i.polygon, dtype=float) for i in scene_map.intersections]
        hs = np.asarray(scene_map.height_samples, dtype=float).reshape(-1, 3)
        self.height_z = hs[:, 2]
        # every non-lane element as one polyline of one table: the closed
        # intersection and crosswalk rings, and each traffic control and
        # height sample as one point (a zero-length segment)
        kinds = {
            "intersection": [np.vstack([p, p[:1]]) for p in self.intersection_polys],
            "crosswalk": [np.vstack([p, p[:1]]) for p in self.crosswalk_polys],
            "control": [np.reshape(c.position, (1, 2)) for c in scene_map.traffic_controls],
            "height": list(hs[:, None, :2]),
        }
        polys = [p for group in kinds.values() for p in group]
        self.elements = geometry.SegmentTable.from_polylines(polys, [None] * len(polys))
        ends = np.cumsum([len(group) for group in kinds.values()]).tolist()
        self.element_rows = {k: slice(e - len(g), e) for (k, g), e in zip(kinds.items(), ends)}
        # (E, 4) what each element in the ROI adds to the roads, intersection
        # lanes, traffic lights and signs
        lights = [c.kind == "traffic_light" for c in scene_map.traffic_controls]
        self.element_counts = np.array(
            [(i.incoming_roads, sum(i.lanes_per_road), 0, 0) for i in scene_map.intersections]
            + [(0, 0, 0, 0)] * len(self.crosswalk_polys)
            + [(0, 0, light, not light) for light in lights]
            + [(0, 0, 0, 0)] * len(hs),
            dtype=int,
        ).reshape(-1, 4)
        self._curve_cache = {}

    def lane_curve_complexity(self, K: int) -> np.ndarray:
        """(L,) curve complexity of each lane centerline, one pass per K."""
        if K not in self._curve_cache:
            self._curve_cache[K] = geometry.curve_complexities(self.lane_pts, K)[0]
        return self._curve_cache[K]

    def lane_widths(self, fallback: float) -> np.ndarray:
        """(L,) width of each lane, `fallback` where the map gives none."""
        widths = [fallback if l.width is None else l.width for l in self.scene_map.lanes]
        return np.array(widths, dtype=float)
