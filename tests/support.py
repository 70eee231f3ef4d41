"""Hand-built snippets, maps, and pools shared across the test modules.

Detections and frames are pool records (the dicts a pool line holds), and
every snippet is built from them by `scene.snippet_from_obj`, the loader's
one record-to-columns constructor."""

import numpy as np

from logcurator import features, geometry
from logcurator.scene import (
    Intersection,
    Lane,
    MapIndex,
    SceneMap,
    SnippetPool,
    TrafficControl,
    snippet_from_obj,
)
from logcurator.selection import CurationConfig

DT = 0.1
GEO = (37.0, -122.0)


def make_detection(
    track_id="t0",
    label="vehicle",
    center=(0.0, 0.0),
    speed=0.0,
    yaw=0.0,
    size=(4.0, 2.0),
):
    return {
        "track_id": track_id,
        "class": label,
        "center": [float(center[0]), float(center[1])],
        "yaw": float(yaw),
        "size": [float(size[0]), float(size[1])],
        "speed": float(speed),
    }


def make_frame(index, ego=(0.0, 0.0, 0.0), detections=(), geo=GEO, dt=DT):
    return {
        "index": index,
        "timestamp": index * dt,
        "ego_pose": [float(ego[0]), float(ego[1]), float(ego[2])],
        "geo": [float(geo[0]), float(geo[1])],
        "detections": list(detections),
    }


def make_snippet(frames, snippet_id="s0", log_id="log0"):
    frames = list(frames)
    return snippet_from_obj(
        {
            "snippet_id": snippet_id,
            "log_id": log_id,
            "frame_range": [frames[0]["index"], frames[-1]["index"]],
            "frames": frames,
        }
    )


def drive(
    positions,
    snippet_id="s0",
    log_id="log0",
    detections=None,
    headings=None,
    first=0,
    geo=None,
    dt=DT,
):
    """Snippet whose ego follows the given (x, y) positions.

    Headings default to the displacement direction (last one repeated); a
    single-point drive faces +x. Per-frame detection lists and geo pairs are
    optional and positional.
    """
    pts = np.asarray(positions, dtype=float)
    n = len(pts)
    if headings is None:
        if n >= 2:
            d = np.diff(pts, axis=0)
            h = np.arctan2(d[:, 1], d[:, 0])
            headings = np.append(h, h[-1])
        else:
            headings = np.zeros(n)
    headings = (np.asarray(headings, dtype=float) + np.pi) % (2 * np.pi) - np.pi
    frames = [
        make_frame(
            first + k,
            ego=(pts[k, 0], pts[k, 1], headings[k]),
            detections=() if detections is None else detections[k],
            geo=GEO if geo is None else geo[k],
            dt=dt,
        )
        for k in range(n)
    ]
    return make_snippet(frames, snippet_id, log_id)


def constant_detections(dets, n):
    """The same detection tuple repeated for n frames."""
    return [tuple(dets)] * n


def circle_points(r, n, center=(0.0, 0.0), closed=True):
    """n distinct samples around a circle; closed repeats the first at the end."""
    th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.column_stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])
    if closed:
        pts = np.vstack([pts, pts[:1]])
    return pts


def arc_points(r, n, center=(0.0, 0.0), start=0.0, sweep=np.pi / 2):
    th = np.linspace(start, start + sweep, n)
    return np.column_stack(
        [center[0] + r * np.cos(th), center[1] + r * np.sin(th)]
    )


def straight_lane(lane_id="lane0", y=0.0, x0=-100.0, x1=100.0, n=2, **kw):
    xs = np.linspace(x0, x1, n)
    return Lane(
        lane_id=lane_id, centerline=tuple((float(x), float(y)) for x in xs), **kw
    )


def vertical_lane(lane_id="lane_v", x=0.0, y0=-100.0, y1=100.0, n=2, **kw):
    ys = np.linspace(y0, y1, n)
    return Lane(
        lane_id=lane_id, centerline=tuple((float(x), float(y)) for y in ys), **kw
    )


def empty_map():
    return SceneMap()


def cross_map(sign=False, light=False):
    """Two perpendicular lanes meeting at the origin, optional controls."""
    lanes = (straight_lane("ew"), vertical_lane("ns"))
    controls = []
    if sign:
        controls.append(TrafficControl("stop_sign", (5.0, 5.0), ("ew",)))
    if light:
        controls.append(TrafficControl("traffic_light", (-5.0, 5.0), ("ns",)))
    return SceneMap(lanes=lanes, traffic_controls=tuple(controls))


def square_intersection(half=10.0, incoming=4, lanes_per_road=(1, 1, 1, 1)):
    poly = ((-half, -half), (half, -half), (half, half), (-half, half))
    return Intersection(
        polygon=poly, incoming_roads=incoming, lanes_per_road=tuple(lanes_per_road)
    )


def tile_map(m, k, spacing=400.0):
    """Map `m` repeated k x k times, tile (a, b) moved by (a, b) * spacing
    in that order, with every lane id (and each reference to one) suffixed
    by the tile: `k=1` is `m` with renamed lanes."""
    lanes, intersections, controls, crosswalks, heights = [], [], [], [], []
    for a in range(k):
        for b in range(k):
            dx, dy = a * spacing, b * spacing
            tag = f"@{a},{b}"

            def moved(points):
                return tuple((x + dx, y + dy) for x, y in points)

            def renamed(ref):
                return None if ref is None else ref + tag

            lanes += [
                lane._replace(
                    lane_id=renamed(lane.lane_id),
                    centerline=moved(lane.centerline),
                    successors=tuple(map(renamed, lane.successors)),
                    left_neighbor=renamed(lane.left_neighbor),
                    right_neighbor=renamed(lane.right_neighbor),
                )
                for lane in m.lanes
            ]
            intersections += [i._replace(polygon=moved(i.polygon)) for i in m.intersections]
            controls += [
                c._replace(position=moved([c.position])[0], lane_ids=tuple(map(renamed, c.lane_ids)))
                for c in m.traffic_controls
            ]
            crosswalks += map(moved, m.crosswalks)
            heights += [(x + dx, y + dy, z) for x, y, z in m.height_samples]
    return SceneMap(*map(tuple, (lanes, intersections, controls, crosswalks, heights)))


def project_one(points, poly, cumlen=None):
    """(dist, arc) of every point against the one polyline `poly`, through
    the library's block-diagonal kernel (`geometry.project_points_to_polyline`)."""
    return geometry.project_points_to_polyline(points, [poly], [cumlen], [len(np.atleast_2d(points))])


def curve_complexity(points, K=100):
    """The library's curve pass (`geometry.curve_complexities`) on one path."""
    return float(geometry.curve_complexities([np.asarray(points, dtype=float)], K)[0][0])


def pool_of(snippets, scene_map=None, snippet_length=None):
    snippets = tuple(snippets)
    if snippet_length is None:
        snippet_length = snippets[0].num_frames if snippets else 0
    return SnippetPool(
        snippets=snippets,
        scene_map=scene_map if scene_map is not None else SceneMap(),
        snippet_length=snippet_length,
    )


def measure_args(s, m=None, **config):
    """The arguments of `features.compute_snippet_features` for one snippet
    on map `m` (empty if None), scored alone under the default config with
    the given fields changed: its batch of one, and its place in it."""
    cfg = CurationConfig(**config)
    index = MapIndex(SceneMap() if m is None else m)
    return next(features.batch_arrays([s], index, cfg)), 0


def snippet_values(s, m=None, **config):
    """{name: value} of the snippet's SNIPPET_FEATURES, scored as in
    `measure_args`."""
    vec, _ = features.compute_snippet_features(*measure_args(s, m, **config))
    return dict(zip(features.SNIPPET_FEATURE_NAMES, vec.values.tolist()))


# the infrastructure block of SNIPPET_FEATURES, curve_mean through height_var
INFRA = features.SNIPPET_FEATURE_NAMES[: features.SNIPPET_FEATURE_NAMES.index("height_var") + 1]
# the interaction counts of SNIPPET_FEATURES, in `sdv.interactions` order
INTERACTIONS = ("near_path_static", "near_path_dynamic", "conflict_traversals", "conflict_reachable")


def columns(scored, names):
    """Each snippet's values of `names` in the ScoredBatch `scored`, as tuples."""
    at = [features.SNIPPET_FEATURE_NAMES.index(name) for name in names]
    return [tuple(row) for row in scored.values[:, at].tolist()]


def calls_of(monkeypatch, module, name):
    """The list of (args, result) that each later call of `module.name`
    appends to."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, spy)
    return calls


def forecast_rows(fc):
    """(frame_index, actor_id, timestep, mu, cov) per row of a
    GaussianForecast, in row order, with mu and cov as tuples."""
    return [
        (fi, actor, step, tuple(mu), tuple(cov))
        for fi, actor, step, mu, cov in zip(
            fc.frame_index.tolist(), fc.actor_id, fc.timestep.tolist(), fc.mu.tolist(), fc.cov.tolist()
        )
    ]
