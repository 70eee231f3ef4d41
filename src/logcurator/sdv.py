"""Ego-behavior complexity measures: route shape, events, interactions.

The ego is matched per frame to the nearest vehicle lane centerline. A
snippet whose match distance exceeds the gate on more than the allowed
fraction of frames is flagged invalid (unrankable) but still scored, so the
caller decides what to exclude. Conflict lanes are non-traversed vehicle
lanes properly crossing a traversed one; reachability walks the lane
successor graph by along-lane distance. Interactions and nudges use every
observation of every track; the ROI flag on a track is never read, so
gated and ungated tracks give the same values.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .scene import MapIndex, SceneMap, Snippet
from .traffic import STATIC_SPEED, build_track_paths, detection_arrays

MAP_MATCH_GATE = 3.0
MAP_MATCH_MIN_FRAC = 0.9
REACH_CAP = 500.0


@dataclass(frozen=True, slots=True)
class RouteMatch:
    assignments: np.ndarray  # (T,) lane index, -1 when the map has no vehicle lanes
    lateral: np.ndarray  # (T,) distance to the assigned centerline
    arc: np.ndarray  # (T,) arc position along the assigned lane
    frac_matched: float
    valid: bool
    runs: tuple  # ((lane_index, start, end_exclusive), ...)
    traversed: tuple  # distinct lane indices in first-visit order


@dataclass(frozen=True, slots=True)
class SdvFeatures:
    sdv_path: float
    sdv_speed_var: float
    lane_changes: float
    turns: float
    controls_on_route: float
    near_path_static: float
    near_path_dynamic: float
    conflict_traversals: float
    conflict_reachable: float
    nudges: float
    valid: bool


def nearest_lane(dist: np.ndarray, arc: np.ndarray, lanes) -> tuple:
    """(lane, lateral, arc) of the nearest listed lane per point, first on ties."""
    best = np.argmin(dist, axis=0)
    cols = np.arange(dist.shape[1])
    return np.array(lanes, dtype=int)[best], dist[best, cols], arc[best, cols]


def match_route(
    s: Snippet,
    index: MapIndex,
    gate: float = MAP_MATCH_GATE,
    min_frac: float = MAP_MATCH_MIN_FRAC,
    ego_table: tuple | None = None,
) -> RouteMatch:
    """Nearest vehicle lane per ego pose; `ego_table` as in `infra_features`."""
    ego = s.ego_xy()
    n = len(ego)
    veh = index.vehicle_indices
    if not veh:
        return RouteMatch(
            np.full(n, -1, dtype=int),
            np.full(n, np.inf),
            np.zeros(n),
            0.0,
            False,
            (),
            (),
        )
    if ego_table is None:
        ego_table = index.project_to_lanes(ego, range(len(index.lane_pts)))
    dist, arc = ego_table
    assignments, lateral, arc = nearest_lane(dist[veh], arc[veh], veh)
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
    return RouteMatch(assignments, lateral, arc, frac, frac >= min_frac, tuple(runs), tuple(traversed))


def sdv_path_complexity(s: Snippet, K: int = 100) -> float:
    """Curve complexity of the ego trajectory; near-stationary egos score 0."""
    path = geometry.Path.from_points(s.ego_xy())
    if len(path.points) < 2 or path.length < 1.0:
        return 0.0
    return geometry.curve_complexity(path, K)


def ego_step_speeds(ego: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(T-1,) ego speeds over each step, from pose displacements."""
    return np.linalg.norm(np.diff(ego, axis=0), axis=1) / np.diff(ts)


def sdv_speed_variance(s: Snippet) -> float:
    """Population variance of per-step ego speeds."""
    ego = s.ego_xy()
    if len(ego) < 2:
        return 0.0
    return float(np.var(ego_step_speeds(ego, s.timestamps())))


def route_events(
    s: Snippet,
    m: SceneMap,
    min_frames: int = 10,
    gate: float = MAP_MATCH_GATE,
    index: MapIndex | None = None,
    match: RouteMatch | None = None,
) -> tuple:
    """(lane_changes, turns, controls_on_route) along the matched route.

    A lane change is a transition into the previous lane's left or right
    neighbor held for at least min_frames; turns count maximal runs on lanes
    tagged left or right; controls count distinct controls governing any
    traversed lane.
    """
    if index is None:
        index = MapIndex(m)
    if match is None:
        match = match_route(s, index, gate)
    lane_changes = 0
    for (a, _, _), (b, sb, eb) in zip(match.runs, match.runs[1:]):
        if a < 0 or b < 0:
            continue
        b_id = index.lane_ids[b]
        lane_a = m.lanes[a]
        if (lane_a.left_neighbor == b_id or lane_a.right_neighbor == b_id) and eb - sb >= min_frames:
            lane_changes += 1
    turns = sum(
        1 for (li, _, _) in match.runs if li >= 0 and m.lanes[li].turn in ("left", "right")
    )
    traversed_ids = {index.lane_ids[li] for li in match.traversed if li >= 0}
    controls = sum(1 for c in m.traffic_controls if traversed_ids & set(c.lane_ids))
    return lane_changes, turns, controls


def _conflict_lanes(index: MapIndex, traversed: tuple) -> list:
    used = set(traversed)
    out = []
    for li in index.vehicle_indices:
        if li in used:
            continue
        if any(index.crossing_matrix[li, tj] > 0 for tj in used):
            out.append(li)
    return out


def _entry_distances(index: MapIndex, conflict: list, cap: float = REACH_CAP) -> np.ndarray:
    """Along-lane distance from each lane's start to the nearest conflict
    entry through the successor graph; inf when unreachable within cap."""
    n = len(index.lane_pts)
    reach = np.full(n, np.inf)
    conflict_set = set(conflict)
    for li in conflict:
        reach[li] = 0.0
    for _ in range(n):
        changed = False
        for p in range(n):
            if p in conflict_set:
                continue
            succ = index.successor_indices[p]
            if not succ:
                continue
            best = min(reach[si] for si in succ)
            cand = index.lane_length[p] + best
            if cand <= cap and cand < reach[p] - 1e-12:
                reach[p] = cand
                changed = True
        if not changed:
            break
    return reach


def interactions(
    s: Snippet,
    m: SceneMap,
    near_dist: float = 10.0,
    horizon: float = 5.0,
    gate: float = MAP_MATCH_GATE,
    lane_width_fallback: float = 3.6,
    static_speed: float = STATIC_SPEED,
    index: MapIndex | None = None,
    match: RouteMatch | None = None,
    tracks: list | None = None,
) -> tuple:
    """(near_static, near_dynamic, conflict_traversals, conflict_reachable)."""
    if index is None:
        index = MapIndex(m)
    if match is None:
        match = match_route(s, index, gate)
    if tracks is None:
        tracks = build_track_paths(detection_arrays(s))
    ego_path = geometry.dedupe_points(s.ego_xy())

    near_static = 0
    near_dynamic = 0
    for t in tracks:
        dist, _ = geometry.project_points_to_polyline(t.positions, ego_path)
        if float(np.min(dist)) < near_dist:
            if t.is_static(static_speed):
                near_static += 1
            else:
                near_dynamic += 1

    conflict = _conflict_lanes(index, match.traversed)
    traversing = set()
    vehicles = [t for t in tracks if t.label == "vehicle"]
    for t in vehicles:
        for li in conflict:
            half = 0.5 * index.lane_width(li, lane_width_fallback)
            dist, _ = index.project_to_lanes(t.positions, [li])
            if float(np.min(dist)) <= half:
                traversing.add(t.track_id)
                break

    reachable = 0
    if conflict and index.vehicle_indices:
        reach = _entry_distances(index, conflict)
        veh_lanes = index.vehicle_indices
        for t in vehicles:
            if t.track_id in traversing:
                continue
            dist, arc = index.project_to_lanes(t.positions, veh_lanes)
            lanes, lat, arc = nearest_lane(dist, arc, veh_lanes)
            ok = lat <= gate
            dist_to_entry = np.where(
                np.isfinite(reach[lanes]), np.maximum(reach[lanes] - arc, 0.0), np.inf
            )
            if bool(np.any(ok & (t.speeds * horizon >= dist_to_entry))):
                reachable += 1

    return near_static, near_dynamic, len(traversing), reachable


def detect_nudges(
    s: Snippet,
    m: SceneMap,
    ego_width: float = 2.0,
    lane_width_fallback: float = 3.6,
    object_dist: float = 5.0,
    min_bound_frames: int = 10,
    index: MapIndex | None = None,
    match: RouteMatch | None = None,
    tracks: list | None = None,
) -> int:
    """Count lateral in-lane excursions around a nearby object.

    An excursion is a maximal run of frames whose lateral offset exceeds the
    assigned lane's half width minus half the ego width, with the assignment
    unchanged, bounded on both sides by min_bound_frames of in-lane driving
    on the same lane, and with some detection within object_dist of the ego
    path during the run.
    """
    if index is None:
        index = MapIndex(m)
    if match is None:
        match = match_route(s, index)
    if tracks is None:
        tracks = build_track_paths(detection_arrays(s))
    n = len(match.assignments)
    if n == 0:
        return 0
    half_ego = 0.5 * ego_width
    thresh = np.array(
        [
            0.5 * index.lane_width(li, lane_width_fallback) - half_ego if li >= 0 else np.inf
            for li in match.assignments
        ]
    )
    exceed = match.lateral > thresh
    ego_path = geometry.dedupe_points(s.ego_xy())

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
        for tr in tracks:
            sel = (tr.frames >= start) & (tr.frames < end)
            if not np.any(sel):
                continue
            dist, _ = geometry.project_points_to_polyline(tr.positions[sel], ego_path)
            if float(np.min(dist)) <= object_dist:
                count += 1
                break
    return count


def sdv_features(
    s: Snippet,
    m: SceneMap,
    K: int = 100,
    near_dist: float = 10.0,
    horizon: float = 5.0,
    gate: float = MAP_MATCH_GATE,
    min_frac: float = MAP_MATCH_MIN_FRAC,
    lane_change_min_frames: int = 10,
    ego_width: float = 2.0,
    lane_width_fallback: float = 3.6,
    nudge_object_dist: float = 5.0,
    nudge_min_bound_frames: int = 10,
    static_speed: float = STATIC_SPEED,
    index: MapIndex | None = None,
    tracks: list | None = None,
    ego_table: tuple | None = None,
) -> SdvFeatures:
    if index is None:
        index = MapIndex(m)
    if tracks is None:
        tracks = build_track_paths(detection_arrays(s))
    match = match_route(s, index, gate, min_frac, ego_table=ego_table)
    lane_changes, turns, controls = route_events(
        s, m, lane_change_min_frames, gate, index=index, match=match
    )
    near_s, near_d, conf_trav, conf_reach = interactions(
        s,
        m,
        near_dist,
        horizon,
        gate,
        lane_width_fallback,
        static_speed,
        index=index,
        match=match,
        tracks=tracks,
    )
    nudges = detect_nudges(
        s,
        m,
        ego_width,
        lane_width_fallback,
        nudge_object_dist,
        nudge_min_bound_frames,
        index=index,
        match=match,
        tracks=tracks,
    )
    return SdvFeatures(
        sdv_path=sdv_path_complexity(s, K),
        sdv_speed_var=sdv_speed_variance(s),
        lane_changes=float(lane_changes),
        turns=float(turns),
        controls_on_route=float(controls),
        near_path_static=float(near_s),
        near_path_dynamic=float(near_d),
        conflict_traversals=float(conf_trav),
        conflict_reachable=float(conf_reach),
        nudges=float(nudges),
        valid=match.valid,
    )
