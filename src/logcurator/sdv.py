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

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import geometry
from .scene import MapIndex, Snippet, runs
from .traffic import variance

if TYPE_CHECKING:
    from .features import SnippetArrays

MAP_MATCH_GATE = 3.0
MAP_MATCH_MIN_FRAC = 0.9
REACH_CAP = 500.0
# metres of ego path below which a snippet's ego path scores 0 curve
# complexity (near-stationary egos)
MIN_PATH_LENGTH = 1.0


class RouteMatch(NamedTuple):
    assignments: np.ndarray  # (T,) lane index, -1 when the map has no vehicle lanes
    lateral: np.ndarray  # (T,) distance to the assigned centerline
    valid: bool
    runs: tuple  # ((lane_index, start, end_exclusive), ...)
    traversed: tuple  # distinct lane indices in first-visit order


def nearest_lane(dist: np.ndarray, arc: np.ndarray, lanes) -> tuple:
    """(lane, lateral, arc) of the nearest listed lane per point, first on ties."""
    best = np.argmin(dist, axis=0)
    cols = np.arange(dist.shape[1])
    return np.array(lanes, dtype=int)[best], dist[best, cols], arc[best, cols]


def match_route(ego_table: tuple, starts: list, index: MapIndex, config) -> list:
    """The RouteMatch of each snippet of a batch, whose poses are columns
    starts[k]: of the batch's ego-to-every-lane table
    `geometry.project_to_segments(ego, index.segments)`: the nearest vehicle
    lane per pose, one argmin and one gate count for the whole batch."""
    dist, arc = ego_table
    ends = [*starts[1:], dist.shape[1]]
    sizes, veh = np.subtract(ends, starts), index.vehicle_indices
    if not veh:
        return [RouteMatch(np.full(n, -1, dtype=int), np.full(n, np.inf), False, (), ()) for n in sizes]
    lanes, lateral, _ = nearest_lane(dist[veh], arc[veh], veh)
    gated = np.add.reduceat(lateral <= config.map_match_gate, starts, dtype=np.intp)
    owner = np.repeat(np.arange(len(starts)), sizes)
    spans = [[] for _ in starts]
    for a, b in runs(lanes + owner * len(index.lane_ids)):  # no run spans two snippets
        k = int(owner[a])
        spans[k].append((int(lanes[a]), a - starts[k], b - starts[k]))
    return [
        RouteMatch(lanes[a:b], lateral[a:b], ok, tuple(s), tuple(dict.fromkeys(l for l, _, _ in s)))
        for a, b, ok, s in zip(starts, ends, (gated / sizes >= config.map_match_min_frac).tolist(), spans)
    ]


def sdv_speed_variance(rec: "SnippetArrays") -> float:
    """Population variance of per-step ego speeds."""
    return variance(rec.ego_speed)


def route_events(rec: "SnippetArrays", index: MapIndex, config) -> tuple:
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


def _conflict_lanes(index: MapIndex, traversed: tuple) -> list:
    crosses = np.any(index.crossing_matrix[:, list(traversed)] > 0, axis=1)
    return [li for li in index.vehicle_indices if crosses[li] and li not in traversed]


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


class ConflictZone(NamedTuple):
    """What the conflict measures of a route read from its traversed lanes
    alone, so one zone serves every snippet with those lanes."""

    lanes: list  # conflict lanes (`_conflict_lanes`), vehicle lanes only
    half: np.ndarray  # (V,) half width of each index.vehicle_segments lane; -inf off the conflict lanes
    reach: np.ndarray  # (L,) `_entry_distances` to the conflict lanes; all inf without them


def conflict_zone(index: MapIndex, traversed: tuple, config) -> ConflictZone:
    """The ConflictZone of a route over the `traversed` lanes."""
    lanes = _conflict_lanes(index, traversed)
    fallback = config.lane_width_fallback
    half = [0.5 * index.lane_width(li, fallback) if li in lanes else -np.inf for li in index.vehicle_indices]
    return ConflictZone(lanes, np.array(half, dtype=float), _entry_distances(index, lanes))


def interactions(b: Snippet, tracks: list, static, path_dist, zones: list, k0, index: MapIndex, config):
    """(n, 4) counts (near_static, near_dynamic, conflict_traversals,
    conflict_reachable) of the n snippets of a scoring batch: its joined
    columns `b` (`scene.concat`), their tracks and static flags, each
    detection's `path_dist`, and each snippet's ConflictZone and first track.

    Each counts the tracks with some detection near the ego path, on a
    conflict lane, or able to reach a conflict entry within the horizon. The
    conflict tests read one projection of the vehicle-track detections of
    the snippets with conflict lanes against every vehicle lane: each zone's
    half widths, then the nearest lane of each detection not traversing.
    Track flags, then each snippet's counts, are bincounts, so a snippet
    without tracks counts 0."""
    code, n, k = b.det_track, len(zones), len(tracks)
    owner = np.repeat(np.arange(n), np.diff([*k0, k]))  # the snippet of each track

    def tracks_of(rows):
        return np.bincount(code[rows], minlength=k) > 0

    near = tracks_of(path_dist < config.near_dist)
    vehicle = np.array([t.label == "vehicle" for t in tracks], dtype=bool)
    rows = np.flatnonzero((vehicle & np.array([bool(z.lanes) for z in zones])[owner])[code])
    dist, arc = geometry.project_to_segments(b.det_center[rows], index.vehicle_segments)
    zone = owner[code[rows]]
    traversing = tracks_of(rows[np.any(dist <= np.stack([z.half for z in zones])[zone].T, axis=0)])
    keep = ~traversing[code[rows]]
    reachable = np.zeros(k, dtype=bool)
    if keep.any():  # nearest_lane needs a lane: a map without vehicle lanes tests no row
        rows, zone = rows[keep], zone[keep]
        lanes, lat, arc = nearest_lane(dist[:, keep], arc[:, keep], index.vehicle_indices)
        reach = np.stack([z.reach for z in zones])[zone, lanes]
        dist_to_entry = np.where(np.isfinite(reach), np.maximum(reach - arc, 0.0), np.inf)
        ok = (lat <= config.map_match_gate) & (b.det_speed[rows] * config.horizon >= dist_to_entry)
        reachable = tracks_of(rows[ok])
    flags = (near & static, near & ~static, traversing, reachable)
    return np.column_stack([np.bincount(owner[f], minlength=n) for f in flags])


def detect_nudges(rec: "SnippetArrays", index: MapIndex, config) -> int:
    """Count lateral in-lane excursions around a nearby object.

    An excursion is a maximal run of frames whose lateral offset exceeds the
    assigned lane's half width minus half the ego width, with the assignment
    unchanged, bounded on both sides by `config.nudge_min_bound_frames` of
    in-lane driving on the same lane, and with some detection within
    `config.nudge_object_dist` of the ego path during the run.
    """
    match = rec.match
    n = len(match.assignments)
    half_ego = 0.5 * config.ego_width
    fallback = config.lane_width_fallback
    thresh = np.array(
        [
            0.5 * index.lane_width(li, fallback) - half_ego if li >= 0 else np.inf
            for li in match.assignments
        ]
    )
    exceed = match.lateral > thresh
    key = np.where(exceed, match.assignments, -2)  # -2: in lane
    bound = config.nudge_min_bound_frames
    det_frame = rec.snippet.det_frame

    count = 0
    for start, end in runs(key):
        lane = key[start]
        if lane == -2 or start - bound < 0 or end + bound > n:
            continue
        edges = np.r_[start - bound : start, end : end + bound]
        if np.any(exceed[edges]) or np.any(match.assignments[edges] != lane):
            continue
        during = (det_frame >= start) & (det_frame < end)
        if np.any(rec.path_dist[during] <= config.nudge_object_dist):
            count += 1
    return count


def sdv_features(rec: "SnippetArrays", index: MapIndex, config) -> dict:
    """The ego row of one snippet, keyed by feature name; its validity is
    `rec.match.valid`."""
    lane_changes, turns, controls = route_events(rec, index, config)
    near_s, near_d, conf_trav, conf_reach = rec.interactions
    return {
        "sdv_path": rec.ego_curve,
        "sdv_speed_var": sdv_speed_variance(rec),
        "lane_changes": float(lane_changes),
        "turns": float(turns),
        "controls_on_route": float(controls),
        "near_path_static": float(near_s),
        "near_path_dynamic": float(near_d),
        "conflict_traversals": float(conf_trav),
        "conflict_reachable": float(conf_reach),
        "nudges": float(detect_nudges(rec, index, config)),
    }
