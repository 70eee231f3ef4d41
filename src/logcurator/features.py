"""Feature schema, batch scoring, normalization, and the feature store.

Snippet vectors follow one canonical dimension order shared by weights,
normalization stats, and the feature store: the infra, traffic and SDV
blocks side by side. Snippets are scored a batch at a time straight into
columns (`batch_arrays`), and `compute_snippet_features` slices one
snippet's row and frame matrix out of its batch. Pool-level passes iterate
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
from .sdv import sdv_features
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


class ScoredBatch(NamedTuple):
    """The measures of the n snippets of one scoring batch, in its order
    (`batch_arrays`)."""

    ids: list  # the snippets' ids
    values: np.ndarray  # (n, SNIPPET_DIM) snippet measures
    valid: np.ndarray  # (n,) bool: the ego matched the map (`sdv.match_route`)
    frames: np.ndarray  # (T, FRAME_DIM) the snippets' frame matrices, joined
    ends: list  # (n,) where each snippet's rows end in `frames`
    label_mix: np.ndarray  # (n, 2, classes, 2) tracks, then in-gate observations, by first label, static or not


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


# What a scoring batch holds, in float64 values: each ego pose and each
# detection is one row of the joined columns and of what is derived from
# them, and the kernels return a distance and an arc length per ego pose
# for every lane and element polyline, and per detection for every vehicle
# lane. With the kernel blocks cut to 512 pairs, a batch's tracemalloc peak
# less those outputs was 190-390 B per row on the benchmark pools, so a row
# counts ROW_VALUES = 64 values (512 B). The kernels' pairwise temporaries
# have bounds of their own (`geometry.BLOCK_PAIRS` pairs, and
# `geometry.CURVE_VALUES` values in the curve pass), so a batch is bounded
# at a few kernel blocks' worth of values. A batch holds at least one
# snippet, so its tables stay bounded however large the pool or the map.
ROW_VALUES = 64
BATCH_VALUES = 4 * geometry.BLOCK_PAIRS


def _snippet_values(s: Snippet, index: MapIndex) -> int:
    """The float64 values one snippet adds to a batch (`BATCH_VALUES`)."""
    poses, dets = s.num_frames, len(s.det_center)
    polylines = len(index.segments.starts) + len(index.elements.starts)
    tables = poses * polylines + dets * len(index.vehicle_segments.starts)
    return ROW_VALUES * (poses + dets) + 2 * tables


def _batches(snippets, index: MapIndex):
    """`snippets` in order, in runs of at most BATCH_VALUES values
    (`_snippet_values`); a run holds at least one snippet."""
    return chunks(snippets, lambda s: _snippet_values(s, index), BATCH_VALUES)


def batch_arrays(snippets, index: MapIndex, config, zones=None):
    """Yield the ScoredBatch of each batch of `snippets`, in order.

    Snippets go through in batches (`_batches`) of joined columns
    (`scene.concat`), each bounded by what it holds: its rows and its
    kernel outputs, at most BATCH_VALUES float64 values. Each batch makes
    four kernel calls: every ego pose against every lane and against every
    non-lane map element, every detection against its own ego path, and,
    in `sdv.interactions`, the vehicle-track detections of the snippets
    with conflict lanes against every vehicle lane. The ROI gate, the
    track groups, the class and crowd counts, the polygon tests, the lane
    and element minima, the route argmin and the interaction counts run
    once per batch too, as do one ego pass (`ego_pass`), whose arc lengths
    are row-wise sums, and one curve pass (`geometry.curve_complexities`)
    over every track seen in gate and every ego path of at least
    `sdv.MIN_PATH_LENGTH`. The kernels and the curve pass work in blocks of
    their own (`geometry.BLOCK_PAIRS`, `geometry.CURVE_VALUES`). The measure
    blocks, `infra_features`, `traffic_features` and `sdv_features`, and the
    frame matrix (`assemble_frame_vectors`) are each one call per batch.
    Their integer, elementwise and min/argmin work and their row-wise or
    per-path float reductions give no value that depends on the batch.
    `zones` maps each traversed-lane tuple to its ConflictZone, filled as
    routes come in."""
    zones = {} if zones is None else zones
    for batch in _batches(snippets, index):
        yield _batch_arrays(batch, index, config, zones)


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
    rows, real = traffic.padded_rows(sizes)
    cols = np.arange(real.shape[1])
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


def _batch_arrays(batch: list, index: MapIndex, config, zones: dict) -> ScoredBatch:
    b, n = concat(batch), len(batch)
    ego = np.ascontiguousarray(b.ego_pose[:, :2])
    sizes = np.array([(s.num_frames, len(s.det_frame), len(s.track_ids)) for s in batch], dtype=np.intp)
    (t0, t1), (d0, d1), (k0, k1) = (_bounds(col) for col in sizes.T)
    unknown = np.flatnonzero(b.det_label >= len(DETECTION_CLASSES))
    if len(unknown):  # `load_pool` refuses these; a library caller may not
        i = int(np.searchsorted(d1, unknown[0], side="right"))
        s, j = batch[i], int(unknown[0]) - d0[i]
        raise ValueError(
            f"snippet {s.snippet_id!r}: frame {s.index[s.det_frame[j]]} track {s.track_ids[s.det_track[j]]} "
            f"has detection class {s.classes[s.det_label[j]]!r}, not one of {', '.join(DETECTION_CLASSES)}"
        )
    arc, keep, speed, curvature = ego_pass(b.ego_pose, b.timestamp, sizes[:, 0])
    kept = np.cumsum(keep)[np.subtract(t1, 1)].tolist()[:-1]  # path ends in the kept rows
    ego_dist, ego_arc = geometry.project_to_segments(ego, index.segments)
    elem_dist, _ = geometry.project_to_segments(ego, index.elements)
    # the block-diagonal kernel through the name the per-layer profiler times
    path_dist, _ = geometry.project_points_to_polyline(
        b.det_center, np.split(ego[keep], kept), np.split(arc[keep], kept), counts=sizes[:, 1].tolist()
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
    # each track's (snippet, first label, motion) cell, motion 0 static and
    # 1 dynamic: the mix counts tracks, then in-gate observations, per cell
    owner = np.repeat(np.arange(n), sizes[:, 2])
    cell = (owner * len(DETECTION_CLASSES) + tracks.label) * 2 + ~static
    label_mix = np.stack([
        np.bincount(c, minlength=2 * len(DETECTION_CLASSES) * n).reshape(n, -1, 2)
        for c in (cell, cell[b.det_track[det.in_roi]])
    ], axis=1)
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
    # each snippet's nearest approach to each lane and element, and whether
    # it entered each intersection and crosswalk
    reached = [np.minimum.reduceat(d, t0, axis=1).T for d in (ego_dist, elem_dist)]
    reached += [np.logical_or.reduceat(p, t0, axis=1).T for p in inside]
    values = np.hstack([
        infra_features(*reached, index, config),
        traffic_features(det, tracks, curves[: len(seen)], few[: len(seen)], term, label_mix, sizes, (k0, k1)),
        sdv_features(ego_curve, speed, (t0, t1), matches, interacting),
    ])
    valid = np.array([m.valid for m in matches], dtype=bool)
    frames = assemble_frame_vectors(counts, term, curvature, speed, inside[0].any(axis=0), b.geo, t1)
    return ScoredBatch([s.snippet_id for s in batch], values, valid, frames, t1, label_mix)


def assemble_frame_vectors(counts, term, curvature, speed, at_intersection, geo, ends) -> np.ndarray:
    """(T, FRAME_DIM) per-frame descriptors of a scoring batch's T joined
    frames, used by the diversity distance: the class counts and term
    (`traffic.class_counts`), the ego pass's curvature and step speeds
    (`ego_pass`), whether the ego is in an intersection, and the geo
    columns, stacked. A frame's speed is that of the step out of it; the
    last frame of each snippet, which `ends` ends, repeats its last step's,
    and a one-frame snippet's is its own 0.0."""
    out, last = np.arange(1, len(speed) + 1), np.subtract(ends, 1)
    out[last] = last
    return np.column_stack([counts.sum(axis=1), counts, term, curvature, speed[out], at_intersection, geo])


def compute_snippet_features(scored: ScoredBatch, i: int):
    """(FeatureVector, frame matrix) of snippet i of a scored batch: its row
    of the batch's values and its rows of the joined frame matrix. Scoring
    passes each snippet through this one call, so a profiler that wraps it
    sees every snippet and its validity."""
    lo = scored.ends[i - 1] if i else 0
    vec = FeatureVector(scored.ids[i], scored.values[i], bool(scored.valid[i]))
    return vec, scored.frames[lo : scored.ends[i]]


_WORKER_STATE: dict = {}


def _init_worker(scene_map: SceneMap, config) -> None:
    _WORKER_STATE["index"] = MapIndex(scene_map)
    _WORKER_STATE["config"] = config
    _WORKER_STATE["zones"] = {}


def _score(snippets, index: MapIndex, config, zones=None) -> list:
    return [
        compute_snippet_features(scored, i)
        for scored in batch_arrays(snippets, index, config, zones)
        for i in range(len(scored.ids))
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
