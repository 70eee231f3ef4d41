"""Feature schema, vector assembly, normalization, and pool scoring.

Snippet vectors follow one canonical dimension order shared by weights,
normalization stats, and the feature store. Pool-level passes iterate
snippets sorted by snippet_id so every accumulated float is independent of
the order records appear in the pool file, and identical at any worker
count.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import geometry, traffic
from .infra import infra_features
from .scene import MapIndex, SceneMap, Snippet, SnippetPool, canonical_dumps, write_atomic
from .sdv import ego_step_speeds, sdv_features
from .traffic import Detections, traffic_features

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


@dataclass(frozen=True, slots=True)
class FeatureVector:
    snippet_id: str
    values: np.ndarray  # (SNIPPET_DIM,)
    valid: bool


@dataclass(frozen=True, slots=True)
class FrameFeature:
    snippet_id: str
    frame_index: int
    values: np.ndarray  # (FRAME_DIM,)


@dataclass(frozen=True, slots=True)
class NormalizationStats:
    mean: np.ndarray
    std: np.ndarray
    flagged: tuple  # dimensions with zero spread, passed through uncentered-scale

    def apply(self, values: np.ndarray) -> np.ndarray:
        divisor = self.std.copy()
        if self.flagged:
            divisor[list(self.flagged)] = 1.0
        return (values - self.mean) / divisor


@dataclass
class FeatureBundle:
    ids: list
    matrix: np.ndarray  # (N, SNIPPET_DIM), rows follow ids
    valid: np.ndarray  # (N,) bool
    frame_mats: dict  # snippet_id -> (T, FRAME_DIM)
    snippet_stats: NormalizationStats
    frame_stats: NormalizationStats


def fit_normalization(matrix: np.ndarray, mode: str = "zscore") -> NormalizationStats:
    """Column-wise population z-score stats; 'none' yields the identity."""
    dim = matrix.shape[1] if matrix.ndim == 2 else 0
    if mode == "none" or len(matrix) == 0:
        return NormalizationStats(np.zeros(dim), np.ones(dim), ())
    if mode != "zscore":
        raise ValueError(f"unknown normalization mode {mode!r}")
    mean = np.mean(matrix, axis=0)
    std = np.std(matrix, axis=0)
    flagged = tuple(int(i) for i in np.flatnonzero(std <= 1e-12))
    return NormalizationStats(mean, std, flagged)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _ego_instant_curvature(ego: np.ndarray, headings: np.ndarray) -> np.ndarray:
    """|dh/ds| from wrapped heading differences; 0 where the ego barely moves."""
    n = len(ego)
    out = np.zeros(n)
    if n < 2:
        return out
    s = geometry.cumulative_arclength(ego)
    lo = np.concatenate([[0], np.arange(n - 1)])
    hi = np.concatenate([np.arange(1, n), [n - 1]])
    ds = s[hi] - s[lo]
    dh = _wrap_angle(headings[hi] - headings[lo])
    np.divide(dh, ds, out=out, where=ds > 1e-9)
    return np.abs(out)


def _ego_speeds(ego: np.ndarray, ts: np.ndarray) -> np.ndarray:
    n = len(ego)
    if n < 2:
        return np.zeros(n)
    step = ego_step_speeds(ego, ts)
    return np.concatenate([step, step[-1:]])


def assemble_frame_vectors(
    s: Snippet, m: SceneMap, det: Detections, index: MapIndex | None = None
) -> list:
    """Per-frame descriptors used by the diversity distance; `det` holds the
    snippet's detections, gated by `traffic.detection_arrays`."""
    if index is None:
        index = MapIndex(m)
    ego = s.ego_xy()
    in_inter = np.zeros(len(ego), dtype=bool)
    for poly in index.intersection_polys:
        in_inter |= geometry.points_in_polygon(ego, poly)
    counts, term = traffic.class_counts(det)  # columns follow DETECTION_CLASSES
    mat = np.column_stack(
        [
            counts.sum(axis=1),
            counts,
            term,
            _ego_instant_curvature(ego, s.ego_headings()),
            _ego_speeds(ego, s.timestamps()),
            in_inter,
            np.array([f.geo for f in s.frames], dtype=float),
        ]
    )
    return [FrameFeature(s.snippet_id, f.index, row) for f, row in zip(s.frames, mat)]


def frame_matrix(frame_features: list) -> np.ndarray:
    if not frame_features:
        return np.zeros((0, FRAME_DIM))
    return np.stack([f.values for f in frame_features])


def compute_snippet_features(
    s: Snippet,
    m: SceneMap,
    config,
    index: MapIndex | None = None,
    det: Detections | None = None,
    tracks: list | None = None,
):
    """(FeatureVector, frame matrix) for one snippet.

    The snippet's detections are read and gated once; the traffic, SDV and
    frame measures all reduce over that one set of arrays and tracks, and
    the ROI lane gate and the route match over one ego-to-lane table.
    A caller that already holds the detection arrays (gated at
    `config.roi_radius`) and their tracks passes them as `det` and `tracks`.
    """
    if index is None:
        index = MapIndex(m)
    if det is None:
        det = traffic.detection_arrays(s, config.roi_radius)
    if tracks is None:
        tracks = traffic.build_track_paths(det)
    ego_table = index.project_to_lanes(s.ego_xy(), range(len(index.lane_pts)))
    inf = infra_features(s, m, config.roi_radius, config.resample_points, index, ego_table)
    tra = traffic_features(det, tracks, config.resample_points, config.static_speed)
    sdv = sdv_features(
        s,
        m,
        K=config.resample_points,
        near_dist=config.near_dist,
        horizon=config.horizon,
        gate=config.map_match_gate,
        min_frac=config.map_match_min_frac,
        lane_change_min_frames=config.lane_change_min_frames,
        ego_width=config.ego_width,
        lane_width_fallback=config.lane_width_fallback,
        nudge_object_dist=config.nudge_object_dist,
        nudge_min_bound_frames=config.nudge_min_bound_frames,
        static_speed=config.static_speed,
        index=index,
        tracks=tracks,
        ego_table=ego_table,
    )
    values = np.array(
        [
            inf.curve_mean,
            inf.crossing_total,
            inf.at_intersection,
            inf.intersection_roads,
            inf.intersection_lanes,
            inf.traffic_lights,
            inf.signs,
            inf.bike_curve,
            inf.bike_crossing,
            inf.crosswalk_lane_overlaps,
            inf.height_var,
            tra.crowd_static,
            tra.crowd_dynamic,
            tra.class_div,
            tra.dist_var,
            tra.actor_path_mean,
            tra.actor_path_max,
            tra.speed_div,
            sdv.sdv_path,
            sdv.sdv_speed_var,
            sdv.lane_changes,
            sdv.turns,
            sdv.controls_on_route,
            sdv.near_path_static,
            sdv.near_path_dynamic,
            sdv.conflict_traversals,
            sdv.conflict_reachable,
            sdv.nudges,
        ]
    )
    vec = FeatureVector(s.snippet_id, values, sdv.valid)
    return vec, frame_matrix(assemble_frame_vectors(s, m, det, index=index))


_WORKER_STATE: dict = {}


def _init_worker(scene_map: SceneMap, config) -> None:
    _WORKER_STATE["map"] = scene_map
    _WORKER_STATE["index"] = MapIndex(scene_map)
    _WORKER_STATE["config"] = config


def _worker_compute(s: Snippet):
    return compute_snippet_features(
        s, _WORKER_STATE["map"], _WORKER_STATE["config"], index=_WORKER_STATE["index"]
    )


def score_pool(pool: SnippetPool, config, jobs: int = 1) -> FeatureBundle:
    """Score every snippet and fit pool-level normalization stats."""
    ordered = sorted(pool.snippets, key=lambda s: s.snippet_id)
    if jobs <= 1:
        index = MapIndex(pool.scene_map)
        results = [compute_snippet_features(s, pool.scene_map, config, index=index) for s in ordered]
    else:
        chunk = max(1, len(ordered) // (jobs * 4))
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(pool.scene_map, config)
        ) as pool_exec:
            results = list(pool_exec.map(_worker_compute, ordered, chunksize=chunk))
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
    return {
        "mean": [float(v) for v in stats.mean],
        "std": [float(v) for v in stats.std],
        "flagged": [int(i) for i in stats.flagged],
    }


def _stats_from_obj(obj) -> NormalizationStats:
    return NormalizationStats(
        np.asarray(obj["mean"], dtype=float),
        np.asarray(obj["std"], dtype=float),
        tuple(int(i) for i in obj["flagged"]),
    )


def write_features(directory: str, bundle: FeatureBundle) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = [
        canonical_dumps(
            {
                "kind": "snippet_features_header",
                "schema_version": 1,
                "dimension": SNIPPET_DIM,
                "names": list(SNIPPET_FEATURE_NAMES),
            }
        )
    ]
    for i, sid in enumerate(bundle.ids):
        lines.append(
            canonical_dumps(
                {
                    "kind": "snippet_features",
                    "snippet_id": sid,
                    "valid": bool(bundle.valid[i]),
                    "values": [float(v) for v in bundle.matrix[i]],
                }
            )
        )
    write_atomic(os.path.join(directory, "snippet_features.jsonl"), "\n".join(lines) + "\n")

    lines = [
        canonical_dumps(
            {
                "kind": "frame_features_header",
                "schema_version": 1,
                "dimension": FRAME_DIM,
                "names": list(FRAME_FEATURE_NAMES),
            }
        )
    ]
    for sid in bundle.ids:
        mat = bundle.frame_mats[sid]
        lines.append(
            canonical_dumps(
                {
                    "kind": "frame_features",
                    "snippet_id": sid,
                    "values": [[float(v) for v in row] for row in mat],
                }
            )
        )
    write_atomic(os.path.join(directory, "frame_features.jsonl"), "\n".join(lines) + "\n")

    obj = {
        "schema_version": 1,
        "snippet": _stats_to_obj(bundle.snippet_stats),
        "frame": _stats_to_obj(bundle.frame_stats),
    }
    write_atomic(os.path.join(directory, "normalization.json"), canonical_dumps(obj) + "\n")


def read_features(directory: str) -> FeatureBundle:
    """Load a feature store; any missing, unparseable or inconsistent file
    raises PoolFormatError naming it."""
    from .scene import PoolFormatError

    def load(name, parse):
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                return parse(fh.read())
        except OSError as exc:
            raise PoolFormatError(f"cannot read feature file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise PoolFormatError(f"feature file {path} is not valid JSON: {exc}") from exc

    def jsonl(text):
        return [json.loads(ln) for ln in text.splitlines() if ln.strip()]

    snippet_path = os.path.join(directory, "snippet_features.jsonl")

    def snippet_row(row, r):
        """(snippet_id, valid, values) of one snippet row, checked."""
        sid = r.get("snippet_id") if isinstance(r, dict) else None
        where = f"feature file {snippet_path} row {row}, snippet {sid!r}"
        if not isinstance(sid, str) or not isinstance(r.get("valid"), bool):
            raise PoolFormatError(f"{where}: needs a string snippet_id and a boolean valid")
        try:
            values = np.array(r["values"], dtype=float)
        except (KeyError, TypeError, ValueError):
            values = None
        if values is None or values.shape != (SNIPPET_DIM,) or not np.all(np.isfinite(values)):
            raise PoolFormatError(f"{where}: values must be {SNIPPET_DIM} finite numbers")
        return sid, r["valid"], values

    srows = load("snippet_features.jsonl", jsonl)
    if not srows or srows[0].get("kind") != "snippet_features_header":
        raise PoolFormatError("snippet_features.jsonl must start with its header")
    if tuple(srows[0].get("names", ())) != SNIPPET_FEATURE_NAMES:
        raise PoolFormatError("snippet feature schema does not match this build")
    rows = [snippet_row(row, r) for row, r in enumerate(srows[1:], start=2)]
    ids = [sid for sid, _, _ in rows]
    matrix = np.stack([values for _, _, values in rows]) if rows else np.zeros((0, SNIPPET_DIM))
    valid = np.array([ok for _, ok, _ in rows], dtype=bool)

    frows = load("frame_features.jsonl", jsonl)
    if not frows or frows[0].get("kind") != "frame_features_header":
        raise PoolFormatError("frame_features.jsonl must start with its header")
    frame_path = os.path.join(directory, "frame_features.jsonl")
    frame_ids = [r["snippet_id"] for r in frows[1:]]
    if sorted(frame_ids) != sorted(ids):
        missing = sorted(set(ids) - set(frame_ids))
        raise PoolFormatError(
            f"feature file {frame_path} does not hold exactly one row per snippet"
            + (f"; missing {', '.join(missing)}" if missing else "")
        )
    frame_mats = {}
    for r in frows[1:]:
        if any(len(row) != FRAME_DIM for row in r["values"]):
            raise PoolFormatError(
                f"feature file {frame_path}: frames of {r['snippet_id']} "
                f"must have {FRAME_DIM} values each"
            )
        frame_mats[r["snippet_id"]] = np.array(r["values"], dtype=float).reshape(-1, FRAME_DIM)

    nobj = load("normalization.json", json.loads)
    return FeatureBundle(
        ids,
        matrix,
        valid,
        frame_mats,
        _stats_from_obj(nobj["snippet"]),
        _stats_from_obj(nobj["frame"]),
    )


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
