"""Ego-behavior complexity measures over a scoring batch: route shape,
events, interactions.

The ego is matched per frame to the nearest vehicle lane centerline. A
snippet whose match distance exceeds the gate on more than the allowed
fraction of frames is flagged invalid (unrankable) but still scored, so the
caller decides what to exclude. Conflict lanes are non-traversed vehicle
lanes properly crossing a traversed one; reachability walks the lane
successor graph by along-lane distance. Interactions and nudges use every
observation of every track; the ROI flag on a track is never read, so
gated and ungated tracks give the same values. `match_route`,
`interactions` and `sdv_features` each take a whole batch.
"""

from typing import NamedTuple

import numpy as np

from . import geometry
from .scene import DETECTION_CLASSES, MapIndex, Snippet, runs
from .traffic import run_moments

MAP_MATCH_GATE = 3.0
MAP_MATCH_MIN_FRAC = 0.9
REACH_CAP = 500.0
# metres of ego path below which a snippet's ego path scores 0 curve
# complexity (near-stationary egos)
MIN_PATH_LENGTH = 1.0


class RouteMatch(NamedTuple):
    valid: bool
    traversed: tuple  # distinct lane indices in first-visit order
    events: tuple  # (lane_changes, turns, controls_on_route, nudges)


def nearest_lane(dist: np.ndarray, arc: np.ndarray, lanes) -> tuple:
    """(lane, lateral, arc) of the nearest listed lane per point, first on ties."""
    best = np.argmin(dist, axis=0)
    cols = np.arange(dist.shape[1])
    return np.array(lanes, dtype=int)[best], dist[best, cols], arc[best, cols]


def match_route(ego_table: tuple, starts: list, det_frame, path_dist, index: MapIndex, config) -> list:
    """The RouteMatch of each snippet of a batch, whose poses are columns
    starts[k]: of the batch's ego-to-every-lane table
    `geometry.project_to_segments(ego, index.segments)`, and whose
    detections lie at the joined frames `det_frame`, `path_dist` from their
    ego path. The nearest vehicle lane per pose is one argmin for the whole
    batch, and its runs are split once, offset per snippet so that none
    spans two. A lane change is a run on the left or right neighbor of the
    run before it in its snippet, held for `config.lane_change_min_frames`
    poses; turns count the runs on lanes tagged left or right; controls
    count the controls governing any traversed lane; then `nudges`."""
    dist, arc = ego_table
    n, total, veh = len(starts), dist.shape[1], index.vehicle_indices
    if not veh:
        return [RouteMatch(False, (), (0, 0, 0, 0))] * n
    lanes, lateral, _ = nearest_lane(dist[veh], arc[veh], veh)
    sizes = np.diff([*starts, total])
    gated = np.add.reduceat(lateral <= config.map_match_gate, starts, dtype=np.intp)
    owner = np.repeat(np.arange(n), sizes)
    key = lanes + owner * len(index.lane_ids)
    a, e = np.array(runs(key), dtype=int).reshape(-1, 2).T
    lane, k = lanes[a], owner[a]
    side = (index.left[lane[:-1]] == lane[1:]) | (index.right[lane[:-1]] == lane[1:])
    held = e - a >= min(config.lane_change_min_frames, total)  # config ints are unbounded
    on = np.zeros((n, len(index.lane_ids)), dtype=bool)
    on[k, lane] = True
    first = np.sort(a[np.unique(key[a], return_index=True)[1]])  # each lane's first visit
    widths = index.lane_widths(config.lane_width_fallback)
    events = np.column_stack([
        np.bincount(k[1:][side & held[1:] & (k[1:] == k[:-1])], minlength=n),
        np.bincount(k[index.turning[lane]], minlength=n),
        np.count_nonzero(on @ index.control_lanes.T, axis=1),
        nudges(lanes, lateral, starts, det_frame, path_dist, widths, config),
    ]).tolist()
    traversed = np.split(lanes[first], np.searchsorted(first, starts[1:]))
    valid = (gated / sizes >= config.map_match_min_frac).tolist()
    return [RouteMatch(ok, tuple(t.tolist()), tuple(ev)) for ok, t, ev in zip(valid, traversed, events)]


def nudges(lanes, lateral, starts, det_frame, path_dist, widths, config) -> np.ndarray:
    """(n,) nudge counts of the n snippets of a batch whose poses start at
    `starts`, lie on `lanes` (-1 for none, L `widths`) at `lateral` from the
    centerline, and whose detections are as in `match_route`.

    A nudge is a maximal run of poses on one lane whose lateral offset
    exceeds the lane's half width less half the ego width, with
    `config.nudge_min_bound_frames` poses on either side in the snippet, on
    the lane and within that offset, and some detection in the run within
    `config.nudge_object_dist` of the ego path. Each run reads these from
    prefix sums over the batch's poses."""
    total, starts = len(lanes), np.asarray(starts, dtype=np.intp)
    ends = np.append(starts[1:], total)
    owner = np.repeat(np.arange(len(starts)), ends - starts)
    exceed = (lanes >= 0) & (lateral > (0.5 * widths - 0.5 * config.ego_width)[lanes])
    key = np.where(exceed, lanes, -1) + owner * (len(widths) + 1)
    a, e = np.array(runs(key), dtype=int).reshape(-1, 2).T
    a, e = a[exceed[a]], e[exceed[a]]
    k, bound = owner[a], min(config.nudge_min_bound_frames, total)  # config ints are unbounded
    inside = (a - bound >= starts[k]) & (e + bound <= ends[k])
    lo, hi = np.maximum(a - bound, 0), np.minimum(e + bound, total)

    def prefix(flags):  # flags[:t].sum() at t
        return np.concatenate([[0], np.cumsum(flags)])

    out, moved = prefix(exceed), prefix(np.diff(lanes) != 0)  # moved[t]: lane changes up to pose t
    near = prefix(np.bincount(det_frame[path_dist <= config.nudge_object_dist], minlength=total))
    ok = inside & (out[hi] - out[lo] == e - a) & (moved[hi - 1] == moved[lo]) & (near[e] > near[a])
    return np.bincount(k[ok], minlength=len(starts))


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
    lanes, veh = _conflict_lanes(index, traversed), index.vehicle_indices
    half = 0.5 * index.lane_widths(config.lane_width_fallback)[veh]
    half[~np.isin(veh, lanes)] = -np.inf
    return ConflictZone(lanes, half, _entry_distances(index, lanes))


def interactions(b: Snippet, tracks, static, path_dist, zones: list, k0, index: MapIndex, config):
    """(n, 4) counts (near_static, near_dynamic, conflict_traversals,
    conflict_reachable) of the n snippets of a scoring batch: its joined
    columns `b` (`scene.concat`), their `traffic.Tracks` and static flags,
    each detection's `path_dist`, and each snippet's ConflictZone and first
    track.

    Each counts the tracks with some detection near the ego path, on a
    conflict lane, or able to reach a conflict entry within the horizon. The
    conflict tests read one projection of the vehicle-track detections of
    the snippets with conflict lanes against every vehicle lane: each zone's
    half widths, then the nearest lane of each detection not traversing.
    Track flags, then each snippet's counts, are bincounts, so a snippet
    without tracks counts 0."""
    code, n, k = b.det_track, len(zones), len(tracks.label)
    owner = np.repeat(np.arange(n), np.diff([*k0, k]))  # the snippet of each track

    def tracks_of(rows):
        return np.bincount(code[rows], minlength=k) > 0

    near = tracks_of(path_dist < config.near_dist)
    vehicle = tracks.label == DETECTION_CLASSES.index("vehicle")
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


def sdv_features(curve, speed, frame_bounds, matches: list, counts) -> np.ndarray:
    """(n, 10) ego block of the n snippets of a scoring batch, in
    SNIPPET_FEATURES order, from each snippet's ego path curve complexity
    (0.0 below MIN_PATH_LENGTH), the batch's step speeds (`features.ego_pass`),
    the (starts, ends) of each snippet's frames, its RouteMatch and its
    (n, 4) `interactions` counts. The speed variance is one
    `traffic.run_moments` over each snippet's steps."""
    (t0, t1), events = frame_bounds, np.array([m.events for m in matches])
    speed_var = run_moments(np.delete(speed, t0), np.subtract(t1, t0) - 1)[1]
    return np.column_stack([curve, speed_var, events[:, :3], counts, events[:, 3]])
