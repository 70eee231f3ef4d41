"""Feature schema, vector assembly, normalization, and pool scoring.

Snippet vectors follow one canonical dimension order shared by weights,
normalization stats, and the feature store. Pool-level passes iterate
snippets sorted by snippet_id so every accumulated float is independent of
the order records appear in the pool file, and identical at any worker
count.
"""

import os
from typing import NamedTuple

import numpy as np

from . import geometry, sdv, traffic
from .infra import infra_features
from .scene import DETECTION_CLASSES, SCHEMA_VERSION, MapIndex, PoolFormatError, SceneMap, Snippet
from .scene import SnippetPool
from .scene import _column, file_sha256, read_header, read_json, remove_output, sidecar_path
from .scene import chunks, concat, write_json, write_rows
from .sdv import RouteMatch, sdv_features
from .traffic import traffic_features

SNIPPET_FEATURES = (
    ("curve_mean", "1/m + 1/m^2"),
    ("crossing_total", "count"),
    ("at_intersection", "flag"),
    ("intersection_roads", "count"),
    ("intersection_lanes", "count"),
    ("traffic_lights", "count"),
    ("signs", "count"),
    ("bike_curve", "1/m + 1/m^2"),
    ("bike_crossing", "count"),
    ("crosswalk_lane_overlaps", "count"),
    ("height_var", "m^2"),
    ("crowd_static", "count/frame"),
    ("crowd_dynamic", "count/frame"),
    ("class_div", "score"),
    ("dist_var", "m^2"),
    ("actor_path_mean", "1/m + 1/m^2"),
    ("actor_path_max", "1/m + 1/m^2"),
    ("speed_div", "m^2/s^2"),
    ("sdv_path", "1/m + 1/m^2"),
    ("sdv_speed_var", "m^2/s^2"),
    ("lane_changes", "count"),
    ("turns", "count"),
    ("controls_on_route", "count"),
    ("near_path_static", "count"),
    ("near_path_dynamic", "count"),
    ("conflict_traversals", "count"),
    ("conflict_reachable", "count"),
    ("nudges", "count"),
)
SNIPPET_FEATURE_NAMES = tuple(name for name, _ in SNIPPET_FEATURES)
SNIPPET_DIM = len(SNIPPET_FEATURES)

FRAME_FEATURES = (
    ("det_total", "count"),
    ("det_vehicle", "count"),
    ("det_pedestrian", "count"),
    ("det_bicyclist", "count"),
    ("class_term", "score"),
    ("ego_curvature", "1/m"),
    ("ego_speed", "m/s"),
    ("at_intersection", "flag"),
    ("geo_lat", "deg"),
    ("geo_lon", "deg"),
)
FRAME_FEATURE_NAMES = tuple(name for name, _ in FRAME_FEATURES)
FRAME_DIM = len(FRAME_FEATURES)

PROVENANCE = "provenance.json"
RESCORE = "rescore the pool with `score` to reuse its features"


class FeatureVector(NamedTuple):
    snippet_id: str
    values: np.ndarray  # (SNIPPET_DIM,)
    valid: bool


class SnippetArrays(NamedTuple):
    """One snippet as every measure reads it, built once by `batch_arrays`."""

    snippet: Snippet
    ego_curve: float  # curve complexity of the ego path; 0.0 below sdv.MIN_PATH_LENGTH
    ego_speed: np.ndarray  # (T - 1,) ego speed over each step (`ego_pass`)
    ego_curvature: np.ndarray  # (T,) |dh/ds| at each pose (`ego_pass`)
    sdv_speed_var: float  # population variance of ego_speed
    actor_path: tuple  # (mean, max) curve of the tracks seen in gate with >= 3 distinct
    # positions; (0.0, 0.0) without any
    speed_div: float  # the seen tracks' mean speed variance plus their speed variances' sum
    dist_var: float  # population variance of the in-gate detections' distances to the ego
    class_counts: tuple  # traffic.class_counts(det): (T, classes) counts, (T,) term
    crowd: tuple  # (static, dynamic) in-gate observations per frame
    label_mix: np.ndarray  # (2, classes, 2) tracks, then in-gate observations, by first label, static or not
    path_dist: np.ndarray  # (D,) distance of each detection to the ego path (poses deduplicated)
    lane_dist: np.ndarray  # (L,) the ego's nearest approach to each lane
    element_dist: np.ndarray  # (E,) the ego's nearest approach to each of index.elements
    in_intersection: np.ndarray  # (I, T) ego inside each intersection polygon
    in_crosswalk: np.ndarray  # (C, T) ego inside each crosswalk polygon
    match: RouteMatch
    interactions: tuple  # (near_static, near_dynamic, conflict_traversals, conflict_reachable)


ZERO_SPREAD = 1e-12  # a std at or below this is zero spread


class NormalizationStats(NamedTuple):
    mean: np.ndarray
    std: np.ndarray
    flagged: tuple  # dimensions with zero spread, passed through uncentered-scale

    def apply(self, values: np.ndarray) -> np.ndarray:
        divisor = self.std.copy()
        if self.flagged:
            divisor[list(self.flagged)] = 1.0
        return (values - self.mean) / divisor


class FeatureBundle(NamedTuple):
    ids: list
    matrix: np.ndarray  # (N, SNIPPET_DIM), rows follow ids
    valid: np.ndarray  # (N,) bool
    frame_mats: dict  # snippet_id -> (T, FRAME_DIM)
    snippet_stats: NormalizationStats
    frame_stats: NormalizationStats


def fit_normalization(matrix: np.ndarray, mode: str) -> NormalizationStats:
    """Column-wise population z-score stats; 'none' yields the identity."""
    dim = matrix.shape[1] if matrix.ndim == 2 else 0
    if mode == "none" or len(matrix) == 0:
        return NormalizationStats(np.zeros(dim), np.ones(dim), ())
    if mode != "zscore":
        raise ValueError(f"unknown normalization mode {mode!r}")
    mean = np.mean(matrix, axis=0)
    std = np.std(matrix, axis=0)
    flagged = tuple(int(i) for i in np.flatnonzero(std <= ZERO_SPREAD))
    return NormalizationStats(mean, std, flagged)


# point x segment pairs per scoring batch: each snippet counts its ego poses
# against every lane and map element segment, and its detections against
# every vehicle lane segment and against its own ego path. A batch holds at
# least one snippet, so the tables of a batch stay bounded however large
# the pool or the map.
BATCH_PAIRS = 1 << 15


def _snippet_pairs(s: Snippet, index: MapIndex) -> int:
    """The pairs one snippet adds to a batch (`BATCH_PAIRS`); its ego path
    has at most max(T - 1, 1) segments."""
    path_segs = max(s.num_frames - 1, 1)
    ego_segs = len(index.segments.x0) + len(index.elements.x0)
    det_segs = len(index.vehicle_segments.x0) + path_segs
    return s.num_frames * ego_segs + len(s.det_center) * det_segs


def _batches(snippets, index: MapIndex):
    """`snippets` in order, in runs of at most BATCH_PAIRS pairs."""
    return chunks(snippets, lambda s: _snippet_pairs(s, index), BATCH_PAIRS)


def batch_arrays(snippets, index: MapIndex, config, zones=None):
    """Yield the SnippetArrays of each snippet, in order.

    Snippets go through in batches (`_batches`) of joined columns
    (`scene.concat`). Each batch makes four kernel calls: every ego pose
    against every lane and against every non-lane map element, every
    detection against its own ego path, and, in `sdv.interactions`, the
    vehicle-track detections of the snippets with conflict lanes against
    every vehicle lane. The ROI gate, the track groups, the class and crowd
    counts, the polygon tests, the lane and element minima, the route
    argmin and the interaction counts run once per batch too, and each
    record is sliced from them: all of it is elementwise, integer or
    min/argmin work, so no result depends on its batch. So do one ego pass
    (`ego_pass`), whose arc lengths are row-wise sums, one curve pass
    (`geometry.curve_complexities`) over every track seen in gate and every
    ego path of at least `sdv.MIN_PATH_LENGTH`, whose row means are per
    path, and the means and variances of each track's speeds and of each
    snippet's track means, gated distances, ego speeds and track curves
    (`traffic.run_moments`, row-wise too). Only the left-to-right sum of
    each snippet's track speed variances stays per snippet. `zones` maps
    each traversed-lane tuple to its ConflictZone, filled as routes come
    in."""
    zones = {} if zones is None else zones
    for batch in _batches(snippets, index):
        yield from _batch_arrays(batch, index, config, zones)


def _bounds(sizes) -> tuple:
    """(starts, ends) of consecutive runs of `sizes`, as lists."""
    ends = np.cumsum(sizes, dtype=int).tolist()
    return [0, *ends[:-1]], ends


def ego_pass(pose: np.ndarray, timestamp: np.ndarray, sizes) -> tuple:
    """(arc, keep, speed, curvature) of each of the N joined ego poses
    (N, 3) and timestamps of a scoring batch, whose snippet k holds the next
    sizes[k] >= 1 rows: the arc length of the snippet's ego path up to the
    pose; whether the pose is the first or its xy differs from the one
    before (the deduplicated path); the step into the pose over its time
    step (0.0 at the first); and |dh/ds|, the wrapped heading difference
    over the arc length between its neighbours, one-sided at the ends and
    0.0 where that arc length is at most 1e-9 m.

    The egos go through as one (snippets, width) array, each row padded
    with its own last pose and timestamp: a padded step adds an exact 0.0
    to the row-wise `cumsum`, and the first padded column, or the clamp at
    the widest row, gives each row its one-sided end.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    cols = np.arange(sizes.max())
    real = cols < sizes[:, None]
    rows = np.minimum(cols, sizes[:, None] - 1) + (np.cumsum(sizes) - sizes)[:, None]
    p, t = pose[rows], timestamp[rows]  # (snippets, width, 3) and (snippets, width)
    d = p[:, 1:] - p[:, :-1]
    step = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
    arc = np.zeros(real.shape)
    np.cumsum(step, axis=1, out=arc[:, 1:])
    keep = np.ones(real.shape, dtype=bool)
    keep[:, 1:] = (p[:, 1:, :2] != p[:, :-1, :2]).any(axis=2)
    speed = np.zeros(real.shape)
    np.divide(step, t[:, 1:] - t[:, :-1], out=speed[:, 1:], where=real[:, 1:])
    lo, hi = np.maximum(cols - 1, 0), np.minimum(cols + 1, len(cols) - 1)
    ds = arc[:, hi] - arc[:, lo]
    dh = (p[:, hi, 2] - p[:, lo, 2] + np.pi) % (2.0 * np.pi) - np.pi
    curvature = np.divide(dh, ds, out=np.zeros(real.shape), where=ds > 1e-9)
    return arc[real], keep[real], speed[real], np.abs(curvature[real])


def _batch_arrays(batch: list, index: MapIndex, config, zones: dict) -> list:
    b, n = concat(batch), len(batch)
    ego = np.ascontiguousarray(b.ego_pose[:, :2])
    (t0, t1), (d0, d1), (k0, k1) = (
        _bounds([len(getattr(s, col)) for s in batch]) for col in ("index", "det_frame", "track_ids")
    )
    unknown = np.flatnonzero(b.det_label >= len(DETECTION_CLASSES))
    if len(unknown):  # `load_pool` refuses these; a library caller may not
        i = int(np.searchsorted(d1, unknown[0], side="right"))
        s, j = batch[i], int(unknown[0]) - d0[i]
        raise ValueError(
            f"snippet {s.snippet_id!r}: frame {s.index[s.det_frame[j]]} track {s.track_ids[s.det_track[j]]} "
            f"has detection class {s.classes[s.det_label[j]]!r}, not one of {', '.join(DETECTION_CLASSES)}"
        )
    arc, keep, speed, curvature = ego_pass(b.ego_pose, b.timestamp, np.subtract(t1, t0))
    kept = np.cumsum(keep)[np.subtract(t1, 1)].tolist()[:-1]  # path ends in the kept rows
    ego_dist, ego_arc = geometry.project_to_segments(ego, index.segments)
    elem_dist, _ = geometry.project_to_segments(ego, index.elements)
    # the block-diagonal kernel through the name the per-layer profiler times
    path_dist, _ = geometry.project_points_to_polyline(
        b.det_center, np.split(ego[keep], kept), np.split(arc[keep], kept),
        counts=[len(s.det_center) for s in batch],
    )
    det = traffic.detection_arrays(b, config.roi_radius)
    tracks = traffic.build_track_paths(det)
    static = tracks.mean_speed < config.static_speed
    counts, term = traffic.class_counts(det)
    seen = np.flatnonzero(tracks.seen)
    moving = np.flatnonzero(arc[np.subtract(t1, 1)] >= sdv.MIN_PATH_LENGTH).tolist()
    pos, ends = b.det_center[tracks.rows], np.append(tracks.first[1:], len(tracks.rows))
    curves, few = geometry.curve_complexities(
        [pos[a:e] for a, e in zip(tracks.first[seen].tolist(), ends[seen].tolist())]
        + [ego[t0[i]:t1[i]] for i in moving],
        config.resample_points,
    )
    ego_curve = np.zeros(n)
    ego_curve[moving] = curves[len(seen):]
    # the tracks whose curves count: seen in gate, three distinct positions
    kept = ~few[: len(seen)]
    track_curves = curves[: len(seen)][kept]
    (s0, s1), (c0, c1) = np.searchsorted(seen, [k0, k1]), np.searchsorted(seen[kept], [k0, k1])
    path_max, curved = np.zeros(n), c1 > c0
    if curved.any():
        path_max[curved] = np.maximum.reduceat(track_curves, c0[curved])
    actor_path = list(zip(traffic.run_moments(track_curves, c1 - c0)[0].tolist(), path_max.tolist()))
    spread = traffic.run_moments(tracks.mean_speed[seen], s1 - s0)[1].tolist()
    inner = tracks.speed_var[seen].tolist()  # summed left to right, as Python's sum
    speed_div = [v + sum(inner[a:e]) for v, a, e in zip(spread, s0.tolist(), s1.tolist())]
    gated = np.bincount(np.repeat(np.arange(n), np.subtract(d1, d0))[det.in_roi], minlength=n)
    dist_var = traffic.run_moments(det.dist[det.in_roi], gated)[1].tolist()
    sdv_speed_var = traffic.run_moments(np.delete(speed, t0), np.subtract(t1, t0) - 1)[1].tolist()
    # each track's (snippet, first label, motion) cell, motion 0 static and
    # 1 dynamic: the mix counts tracks, then in-gate observations, per cell
    owner = np.repeat(np.arange(n), np.subtract(k1, k0))
    cell = (owner * len(DETECTION_CLASSES) + tracks.label) * 2 + ~static
    label_mix = np.stack([
        np.bincount(c, minlength=2 * len(DETECTION_CLASSES) * n).reshape(n, -1, 2)
        for c in (cell, cell[b.det_track[det.in_roi]])
    ], axis=1)
    crowds = label_mix[:, 1].sum(axis=1) / np.subtract(t1, t0)[:, None]  # integer sums: exact
    inside = [  # (polygons, T): the ego in each intersection, and in each crosswalk
        np.array([geometry.points_in_polygon(ego, p) for p in polys], dtype=bool).reshape(-1, len(ego))
        for polys in (index.intersection_polys, index.crosswalk_polys)
    ]
    matches = sdv.match_route((ego_dist, ego_arc), t0, b.det_frame, path_dist, index, config)
    for route in {m.traversed for m in matches} - zones.keys():
        zones[route] = sdv.conflict_zone(index, route, config)
    interacting = sdv.interactions(
        b, tracks, static, path_dist, [zones[m.traversed] for m in matches], k0, index, config
    )
    return [
        SnippetArrays(
            snippet=s,
            ego_curve=curve,
            ego_speed=speed[t0[i] + 1:t1[i]],
            ego_curvature=curvature[t0[i]:t1[i]],
            sdv_speed_var=sdv_speed_var[i],
            actor_path=actor_path[i],
            speed_div=speed_div[i],
            dist_var=dist_var[i],
            class_counts=(counts[t0[i]:t1[i]], term[t0[i]:t1[i]]),
            crowd=tuple(crowd),
            label_mix=label_mix[i],
            path_dist=path_dist[d0[i]:d1[i]],
            lane_dist=lane_dist,
            element_dist=element_dist,
            in_intersection=inside[0][:, t0[i]:t1[i]],
            in_crosswalk=inside[1][:, t0[i]:t1[i]],
            match=match,
            interactions=tuple(interactions),
        )
        for i, (s, curve, crowd, lane_dist, element_dist, match, interactions) in enumerate(zip(
            batch, ego_curve.tolist(), crowds.tolist(), np.minimum.reduceat(ego_dist, t0, axis=1).T,
            np.minimum.reduceat(elem_dist, t0, axis=1).T, matches, interacting.tolist(),
        ))
    ]


def snippet_arrays(s: Snippet, index: MapIndex, config) -> SnippetArrays:
    """The SnippetArrays of one snippet: `batch_arrays` of a batch of one."""
    return next(batch_arrays([s], index, config))


def assemble_frame_vectors(rec: SnippetArrays) -> np.ndarray:
    """(T, FRAME_DIM) per-frame descriptors used by the diversity distance:
    the record's columns, stacked; a frame's speed is that of the step out of
    it, and the last frame repeats the last step's."""
    counts, term = rec.class_counts  # columns follow DETECTION_CLASSES
    speed = rec.ego_speed  # 0.0 alone in a one-frame snippet
    return np.column_stack(
        [
            counts.sum(axis=1),
            counts,
            term,
            rec.ego_curvature,
            np.append(speed, speed[-1:] if len(speed) else 0.0),
            rec.in_intersection.any(axis=0),
            rec.snippet.geo,
        ]
    )


def compute_snippet_features(rec: SnippetArrays, index: MapIndex, config):
    """(FeatureVector, frame matrix) for one snippet; the infra, traffic, SDV
    and frame measures all read the one record `batch_arrays` built, and
    their name-keyed rows go into SNIPPET_FEATURES order."""
    row = infra_features(rec, index, config)
    row.update(traffic_features(rec, config))
    row.update(sdv_features(rec, index, config))
    values = np.array([row[name] for name in SNIPPET_FEATURE_NAMES], dtype=float)
    vec = FeatureVector(rec.snippet.snippet_id, values, rec.match.valid)
    return vec, assemble_frame_vectors(rec)


_WORKER_STATE: dict = {}


def _init_worker(scene_map: SceneMap, config) -> None:
    _WORKER_STATE["index"] = MapIndex(scene_map)
    _WORKER_STATE["config"] = config
    _WORKER_STATE["zones"] = {}


def _score(snippets, index: MapIndex, config, zones=None) -> list:
    return [
        compute_snippet_features(rec, index, config)
        for rec in batch_arrays(snippets, index, config, zones)
    ]


def _worker_compute(chunk: list) -> list:
    state = _WORKER_STATE
    return _score(chunk, state["index"], state["config"], state["zones"])


def score_pool(pool: SnippetPool, config, jobs: int = 1) -> FeatureBundle:
    """Score every snippet and fit pool-level normalization stats."""
    ordered = sorted(pool.snippets, key=lambda s: s.snippet_id)
    if jobs <= 1:
        results = _score(ordered, MapIndex(pool.scene_map), config)
    else:
        # imported here: multiprocessing costs every one-worker command start-up time
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(ordered) // (jobs * 4))
        chunks = [ordered[lo : lo + size] for lo in range(0, len(ordered), size)]
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(pool.scene_map, config)
        ) as pool_exec:
            results = [r for part in pool_exec.map(_worker_compute, chunks) for r in part]
    ids = [s.snippet_id for s in ordered]
    matrix = (
        np.stack([vec.values for vec, _ in results]) if results else np.zeros((0, SNIPPET_DIM))
    )
    valid = np.array([vec.valid for vec, _ in results], dtype=bool)
    frame_mats = {sid: mat for sid, (_, mat) in zip(ids, results)}
    snippet_stats = fit_normalization(matrix, config.normalization)
    frame_stack = (
        np.concatenate([frame_mats[sid] for sid in ids])
        if ids
        else np.zeros((0, FRAME_DIM))
    )
    frame_stats = fit_normalization(frame_stack, config.normalization)
    return FeatureBundle(ids, matrix, valid, frame_mats, snippet_stats, frame_stats)


def _stats_to_obj(stats: NormalizationStats):
    return {"mean": stats.mean.tolist(), "std": stats.std.tolist(), "flagged": list(stats.flagged)}


def pool_provenance(pool: SnippetPool, scoring: dict) -> dict:
    """The fingerprint of a scored pool: the sha256 of the pool and map
    bytes `load_pool` parsed, the map name and snippet length, the scoring
    config fields, and one [snippet_id, log_id, frame_range] row per
    snippet."""
    return {
        "kind": "store_provenance",
        "schema_version": 1,
        "pool_sha256": pool.pool_sha256,
        "map_name": pool.map_name,
        "map_sha256": pool.map_sha256,
        "snippet_length": pool.snippet_length,
        "config": scoring,
        "snippets": [
            [s.snippet_id, s.log_id, list(s.frame_range)]
            for s in sorted(pool.snippets, key=lambda s: s.snippet_id)
        ],
    }


def write_features(directory: str, bundle: FeatureBundle, provenance=None) -> None:
    """Write the store; `provenance` (`pool_provenance`) goes last, and any
    older one is removed first, so no store cut short pairs an old
    fingerprint with new feature files."""
    provenance_path = os.path.join(directory, PROVENANCE)
    remove_output(provenance_path)
    write_rows(
        os.path.join(directory, "snippet_features.jsonl"),
        "snippet_features_header",
        {"dimension": SNIPPET_DIM, "names": list(SNIPPET_FEATURE_NAMES)},
        (
            {"kind": "snippet_features", "snippet_id": sid, "valid": valid, "values": row.tolist()}
            for sid, valid, row in zip(bundle.ids, bundle.valid.tolist(), bundle.matrix)
        ),
    )
    write_rows(
        os.path.join(directory, "frame_features.jsonl"),
        "frame_features_header",
        {"dimension": FRAME_DIM, "names": list(FRAME_FEATURE_NAMES)},
        (
            {"kind": "frame_features", "snippet_id": sid, "values": bundle.frame_mats[sid].tolist()}
            for sid in bundle.ids
        ),
    )
    write_json(
        os.path.join(directory, "normalization.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "snippet": _stats_to_obj(bundle.snippet_stats),
            "frame": _stats_to_obj(bundle.frame_stats),
        },
    )
    if provenance is not None:
        write_json(provenance_path, provenance)


def read_provenance(directory: str, pool_path: str, scoring: dict) -> tuple:
    """(overlap records, snippet length) of the pool the store in
    `directory` was scored from, read from its provenance.json without
    parsing the pool: `score` validated exactly these bytes. The pool file,
    its map sidecar and the `scoring` config fields must match what
    provenance.json fingerprints; a mismatch, or a missing or malformed
    provenance.json, raises PoolFormatError naming it."""
    path = os.path.join(directory, PROVENANCE)
    try:
        obj = read_json(path, PoolFormatError, "feature file")
    except PoolFormatError as exc:
        raise PoolFormatError(f"{exc}; {RESCORE}") from exc

    def fail(problem):
        return PoolFormatError(f"feature file {path}: {problem}; {RESCORE}")

    types = {
        "schema_version": int, "pool_sha256": str, "map_name": str, "map_sha256": str,
        "snippet_length": int, "config": dict, "snippets": list,
    }
    if not isinstance(obj, dict) or obj.get("kind") != "store_provenance":
        raise fail("not a store_provenance object")
    for key, kind in types.items():
        if type(obj.get(key)) is not kind:
            raise fail(f"{key!r} must be a JSON {kind.__name__}")
    if obj["schema_version"] != 1 or obj["snippet_length"] < 1:
        raise fail("needs schema_version 1 and a snippet_length of at least 1")
    rows = obj["snippets"]
    if not all(
        type(r) is list and len(r) == 3 and type(r[0]) is str and type(r[1]) is str
        and type(r[2]) is list and len(r[2]) == 2 and all(type(v) is int for v in r[2])
        for r in rows
    ) or any(a[0] >= b[0] for a, b in zip(rows, rows[1:])):
        raise fail("'snippets' must be [snippet_id, log_id, [first, last]] rows sorted by id")

    if file_sha256(pool_path, "pool file") != obj["pool_sha256"]:
        raise PoolFormatError(
            f"feature directory {directory} does not cover the pool {pool_path}: "
            f"{path} fingerprints other pool bytes; {RESCORE}"
        )
    map_path = sidecar_path(pool_path, obj["map_name"])
    if file_sha256(map_path, "map file") != obj["map_sha256"]:
        raise fail(f"map file {map_path} changed after scoring")
    stored = obj["config"]
    changed = sorted(
        key for key in scoring.keys() | stored.keys()
        if type(scoring.get(key)) is not type(stored.get(key)) or scoring.get(key) != stored.get(key)
    )
    if changed:
        was = ", ".join(f"{key}={stored.get(key)!r}" for key in changed)
        now = ", ".join(f"{key}={scoring.get(key)!r}" for key in changed)
        raise fail(f"scored with {was}, the config has {now}")
    records = tuple(Snippet(sid, log_id, tuple(bounds)) for sid, log_id, bounds in rows)
    return records, obj["snippet_length"]


def read_features(directory: str) -> FeatureBundle:
    """Load a feature store; any missing, unparseable or inconsistent file
    raises PoolFormatError naming it. Every number goes through the number
    rule of `scene._column`, and must be finite."""

    def rows_of(name, names, width=None):
        """(snippet_id, valid, values) of a feature file's rows, each an
        object of its kind with a string snippet_id and a nonempty array of
        finite values, one per name: flat, or in rows of `width`. Each row
        is converted as it is read and its parsed object dropped; the file's
        first `valid` that is not a boolean raises once every row is read."""
        path = os.path.join(directory, name)
        kind = name.removesuffix(".jsonl")
        where, head, _, rows = read_header(path, PoolFormatError, "feature file", f"{kind}_header")
        if head.get("names") != list(names):
            raise PoolFormatError(f"{where}: schema does not match this build")

        def at(row, sid):
            return f"feature file {path} row {row}, snippet {sid!r}"

        out, invalid = [], None
        for row, r in rows:
            sid = r.get("snippet_id") if isinstance(r, dict) else None
            if not isinstance(sid, str) or r.get("kind") != kind:
                raise PoolFormatError(f"{at(row, sid)}: needs kind {kind!r} and a string snippet_id")
            try:
                values = _column(r.get("values"), "value", width)
            except PoolFormatError:  # again, for the text that names the row
                _column(r.get("values"), f"value of {at(row, sid)}", width)
                raise
            if not (values.size and values.shape[-1] == len(names) and np.isfinite(values).all()):
                raise PoolFormatError(f"{at(row, sid)}: values must be finite, {len(names)} per row")
            valid = r.get("valid")
            if invalid is None and not isinstance(valid, bool):
                invalid = at(row, sid)
            out.append((sid, valid, values))
        return out, invalid

    srows, invalid = rows_of("snippet_features.jsonl", SNIPPET_FEATURE_NAMES)
    if invalid is not None:
        raise PoolFormatError(f"{invalid}: needs a boolean valid")
    ids = [sid for sid, _, _ in srows]
    matrix = np.stack([v for _, _, v in srows]) if srows else np.zeros((0, SNIPPET_DIM))
    valid = np.array([v for _, v, _ in srows], dtype=bool)
    del srows

    frows, _ = rows_of("frame_features.jsonl", FRAME_FEATURE_NAMES, FRAME_DIM)
    frame_mats = {sid: v for sid, _, v in frows}
    if sorted(sid for sid, _, _ in frows) != sorted(ids):
        missing = sorted(set(ids) - set(frame_mats))
        raise PoolFormatError(
            f"feature file {os.path.join(directory, 'frame_features.jsonl')} does not hold "
            "exactly one row per snippet" + (f"; missing {', '.join(missing)}" if missing else "")
        )

    norm_path = os.path.join(directory, "normalization.json")
    nobj = read_json(norm_path, PoolFormatError, "feature file")

    def stats(key, width):
        obj = nobj.get(key) if isinstance(nobj, dict) else None
        obj = obj if isinstance(obj, dict) else {}
        at = f"of feature file {norm_path}"
        mean = _column(obj.get("mean"), f"{key!r} mean value {at}")
        std = _column(obj.get("std"), f"{key!r} std value {at}")
        flagged = _column(obj.get("flagged"), f"{key!r} flagged dimension {at}", dtype=int).tolist()
        if not (len(mean) == len(std) == width and np.isfinite([mean, std]).all()) or any(
            not 0 <= i < width for i in flagged
        ):
            raise PoolFormatError(
                f"feature file {norm_path}: {key!r} needs {width} finite mean and std values "
                f"and flagged dimensions below {width}"
            )
        zero = sorted(set(np.flatnonzero(std <= ZERO_SPREAD).tolist()) - set(flagged))
        if zero:
            raise PoolFormatError(
                f"feature file {norm_path}: {key!r} std has zero spread in dimension(s) "
                f"{', '.join(map(str, zero))}, which flagged does not list"
            )
        return NormalizationStats(mean, std, tuple(flagged))

    snippet_stats, frame_stats = stats("snippet", SNIPPET_DIM), stats("frame", FRAME_DIM)
    return FeatureBundle(ids, matrix, valid, frame_mats, snippet_stats, frame_stats)


def schema_description():
    return {
        "snippet": [
            {"index": i, "name": name, "unit": unit}
            for i, (name, unit) in enumerate(SNIPPET_FEATURES)
        ],
        "frame": [
            {"index": i, "name": name, "unit": unit}
            for i, (name, unit) in enumerate(FRAME_FEATURES)
        ],
    }
