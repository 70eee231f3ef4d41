"""The array-based traffic, frame, lane and nudge measures against their loop references.

Every comparison is exact (`==`): the measures must keep the float order of
the per-detection and per-lane loops, not merely approximate them.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import features, geometry, sdv, synthgen, traffic
from logcurator.scene import DETECTION_CLASSES, MapIndex, SceneMap
from logcurator.selection import CurationConfig

from support import INTERACTIONS, calls_of, columns, drive, make_detection, measure_args, straight_lane, vertical_lane

# 75 m keeps every synthetic actor; 15 m drops some and 5 m nearly all
RADII = (None, 75.0, 15.0, 5.0)


def synth_pool(template, plan, seed):
    spec = synthgen.default_spec(
        template, plan, seed=seed, n_snippets=4, num_frames=30, jitter=True, bicycle_every=2
    )
    return synthgen.generate_pool(spec)[0]


POOLS = [(t, "cruise") for t in synthgen.TEMPLATES] + [("four_way_intersection", "turn")]


def random_snippet(rng, n_frames=12, n_tracks=7):
    """Tracks with ids out of sorted order, gaps, mixed classes and speeds."""
    ids = [f"t{int(i)}" for i in rng.permutation(40)[:n_tracks]]
    labels = {tid: DETECTION_CLASSES[int(rng.integers(3))] for tid in ids}
    per_frame = []
    for _ in range(n_frames):
        present = [tid for tid in ids if rng.random() < 0.6]
        rng.shuffle(present)
        per_frame.append(
            tuple(
                make_detection(
                    tid,
                    labels[tid],
                    tuple(rng.normal(scale=8.0, size=2)),
                    float(rng.choice([0.0, 0.1, rng.uniform(0.0, 12.0)])),
                )
                for tid in present
            )
        )
    ego = np.cumsum(rng.normal(scale=0.7, size=(n_frames, 2)), axis=0)
    return drive(ego, detections=per_frame)


def assert_matches_reference(s, m, roi_radius):
    # a roi_radius of None keeps every detection in the gate
    index, config = MapIndex(m), CurationConfig(roi_radius=roi_radius)
    vec, mat = features.compute_snippet_features(next(features.batch_arrays([s], index, config)), 0)
    det = traffic.detection_arrays(s, roi_radius)
    tracks = traffic.build_track_paths(det)

    rows = ref.track_rows(s, roi_radius)
    assert list(s.track_ids) == list(rows)
    ends = [*tracks.first[1:].tolist(), len(tracks.rows)]
    for k, (a, e, obs) in enumerate(zip(tracks.first.tolist(), ends, rows.values())):
        at = tracks.rows[a:e]
        assert s.det_track[at].tolist() == [k] * len(obs)
        assert DETECTION_CLASSES[tracks.label[k]] == obs[0][3]
        assert s.det_center[at].tolist() == [list(r[1]) for r in obs]
        assert s.det_speed[at].tolist() == [r[2] for r in obs]
        assert det.in_roi[at].tolist() == [r[4] for r in obs]
        assert tracks.seen[k] == any(r[4] for r in obs)
        speeds = np.array([r[2] for r in obs])
        assert (tracks.mean_speed[k], tracks.speed_var[k]) == (np.mean(speeds), np.var(speeds))

    row = dict(zip(features.SNIPPET_FEATURE_NAMES, vec.values.tolist()))
    assert (row["crowd_static"], row["crowd_dynamic"]) == ref.crowdedness(s, roi_radius)
    assert row["class_div"] == ref.class_diversity(s, roi_radius)
    assert row["dist_var"] == ref.spatial_variance(s, roi_radius)
    assert row["speed_div"] == ref.speed_diversity(s, roi_radius)

    assert np.array_equal(mat[:, :5], ref.frame_class_columns(s, roi_radius))
    return det


@pytest.mark.parametrize("template,plan", POOLS)
@pytest.mark.parametrize("roi_radius", RADII)
def test_synth_pools_match_loop_reference(template, plan, roi_radius):
    pool = synth_pool(template, plan, seed=len(template) + len(plan))
    kept = dropped = 0
    for s in pool.snippets:
        det = assert_matches_reference(s, pool.scene_map, roi_radius)
        kept += int(np.count_nonzero(det.in_roi))
        dropped += int(np.count_nonzero(~det.in_roi))
    assert dropped > 0 if roi_radius in (5.0, 15.0) else dropped == 0
    if roi_radius != 5.0:
        assert kept > 0


@pytest.mark.parametrize("roi_radius", RADII)
def test_random_snippets_match_loop_reference(roi_radius):
    rng = np.random.default_rng(17)
    m = synth_pool("straight_road", "cruise", 0).scene_map
    for _ in range(25):
        assert_matches_reference(random_snippet(rng), m, roi_radius)


def test_empty_snippet_matches_loop_reference():
    s = drive([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert_matches_reference(s, synth_pool("straight_road", "cruise", 0).scene_map, 75.0)


def test_scoring_builds_tracks_once(monkeypatch):
    pool = synth_pool("four_way_intersection", "turn", seed=3)
    calls = {"detection_arrays": 0, "build_track_paths": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrapped_arrays = counted("detection_arrays", traffic.detection_arrays)
    wrapped_tracks = counted("build_track_paths", traffic.build_track_paths)
    monkeypatch.setattr(traffic, "detection_arrays", wrapped_arrays)
    monkeypatch.setattr(traffic, "build_track_paths", wrapped_tracks)
    features.compute_snippet_features(*measure_args(pool.snippets[0], pool.scene_map))
    assert calls == {"detection_arrays": 1, "build_track_paths": 1}


def hand_built_batch():
    """Three snippets on two crossing lanes with a feeder, with tracks of
    six lengths, so the track moments run in several groups: tracks that
    enter mid-snippet, a track never in the 75 m gate, a track whose class
    changes, and a snippet without detections."""
    lanes = (
        straight_lane("ew"),
        vertical_lane("ns", y0=-20.0, y1=20.0),
        vertical_lane("feed", y0=-60.0, y1=-20.0, successors=("ns",)),
    )
    east = [(-15.0 + 1.0 * k, 0.0) for k in range(30)]
    north = [(0.0, -18.0 + 0.5 * k) for k in range(30)]
    a = [[] for _ in range(30)]
    for k in range(30):
        a[k].append(make_detection("far", "vehicle", (500.0, 500.0), 3.0))
        a[k].append(make_detection("switch", "vehicle" if k < 10 else "pedestrian", (2.0, 3.0), 0.2))
        if k >= 10:  # crosses ew on ns, speeding up
            a[k].append(make_detection("late", "vehicle", (0.0, -20.0 + 1.5 * (k - 10)), 7.0 + 0.1 * k))
        if k >= 5:  # waits on the feeder
            a[k].append(make_detection("wait", "vehicle", (0.0, -40.0), 5.0))
        if k < 4:
            a[k].append(make_detection("walk", "pedestrian", (float(k), 5.0), (1.0, 1.5, 0.3, 2.2)[k]))
    c = [[] for _ in range(30)]
    c[7].append(make_detection("one", "vehicle", (5.0, 0.0), 4.0))
    c[20] += [make_detection("pair", "bicyclist", (1.0, -8.0), 0.1)]
    c[21] += [make_detection("pair", "bicyclist", (1.0, -7.5), 0.6)]
    snippets = [
        drive(east, "a", detections=[tuple(d) for d in a]),
        drive(east, "b"),
        drive(north, "c", detections=[tuple(d) for d in c]),
    ]
    return snippets, SceneMap(lanes=lanes)


@pytest.mark.parametrize("pairs", [1 << 62, 1])
def test_hand_built_batch_matches_reference(pairs, monkeypatch):
    # joined in one batch, and one snippet at a time
    snippets, m = hand_built_batch()
    index, config = MapIndex(m), CurationConfig()
    monkeypatch.setattr(features, "BATCH_PAIRS", pairs)
    assert [len(b) for b in features._batches(snippets, index)] == ([3] if pairs > 1 else [1, 1, 1])
    sizes = np.bincount(np.concatenate([np.bincount(s.det_track) for s in snippets if s.track_ids]))
    assert np.count_nonzero(sizes) == 6
    totals = np.zeros(4, dtype=int)
    names = ("crowd_static", "crowd_dynamic", "speed_div", "dist_var", *INTERACTIONS)
    rows = [row for batch in features.batch_arrays(snippets, index, config) for row in columns(batch, names)]
    for s, (crowd_s, crowd_d, speed_div, dist_var, *counts) in zip(snippets, rows, strict=True):
        assert (crowd_s, crowd_d) == ref.crowdedness(s, config.roi_radius)
        assert speed_div == ref.speed_diversity(s, config.roi_radius)
        assert dist_var == ref.spatial_variance(s, config.roi_radius)
        assert tuple(counts) == ref.interactions(s, index)
        totals += np.array(counts, dtype=int)
    # near, traversing and reaching tracks are all hit; "far" is never seen
    assert np.all(totals > 0)
    det = traffic.detection_arrays(snippets[0], config.roi_radius)
    assert not traffic.build_track_paths(det).seen[snippets[0].track_ids.index("far")]


def route_oracle(s, index, config, path_dist):
    """(lane_changes, turns, controls_on_route, nudges) of one snippet by the
    per-snippet loops over its own `ref.match_route`."""
    rec = SimpleNamespace(match=ref.match_route(s, index), snippet=s, path_dist=path_dist)
    return (*ref.route_events(rec, index, config), ref.detect_nudges(rec, index, config))


def assert_lanes_match_reference(s, index, roi_radius, monkeypatch):
    """Lane mask, route match, route events and interactions against the
    per-lane loops; returns the interactions tuple."""
    config = CurationConfig(roi_radius=roi_radius)
    lanes = calls_of(monkeypatch, features, "infra_features")
    routes = calls_of(monkeypatch, sdv, "match_route")
    interacting = calls_of(monkeypatch, sdv, "interactions")
    next(features.batch_arrays([s], index, config))
    monkeypatch.undo()
    [((lane_dist, *_), _)], [(route_args, [match])], [(_, [got])] = lanes, routes, interacting
    if roi_radius is not None:
        # the ROI lane gate of infra_features
        mask = lane_dist[0] <= roi_radius
        assert np.array_equal(mask, ref.included_lanes(index, ref.ego_xy(s), roi_radius))

    want = ref.match_route(s, index)
    assert (match.valid, match.traversed) == (want.valid, want.traversed)
    assert match.events == route_oracle(s, index, config, route_args[3])

    got = tuple(got.tolist())
    assert got == ref.interactions(s, index)
    return got


@pytest.mark.parametrize("roi_radius", RADII)
def test_lane_projections_match_loop_reference(roi_radius, monkeypatch):
    totals = np.zeros(4, dtype=int)
    for template, plan in POOLS:
        pool = synth_pool(template, plan, seed=len(template) + len(plan))
        index = MapIndex(pool.scene_map)
        for s in pool.snippets:
            totals += assert_lanes_match_reference(s, index, roi_radius, monkeypatch)
    # every interaction count, the traversal and reachability loops included, is hit
    assert np.all(totals > 0)


def test_scoring_projects_the_ego_onto_each_lane_once(monkeypatch):
    pool = synth_pool("four_way_intersection", "turn", seed=3)
    s = pool.snippets[0]
    index = MapIndex(pool.scene_map)
    ego = ref.ego_xy(s)
    hits = [0] * len(index.lane_pts)
    # the lanes of each lane table of the index; an ego projection onto any
    # other table (an intersection ring, say) projects onto no lane
    lanes_of = {
        id(index.segments): range(len(hits)),
        id(index.vehicle_segments): index.vehicle_indices,
    }
    real = geometry.project_to_segments

    def counting(points, table):
        if np.array_equal(points, ego):
            for li in lanes_of.get(id(table), ()):
                hits[li] += 1
        return real(points, table)

    monkeypatch.setattr(geometry, "project_to_segments", counting)
    features.compute_snippet_features(next(features.batch_arrays([s], index, CurationConfig())), 0)
    assert len(hits) > len(index.vehicle_indices) > 0
    assert hits == [1] * len(index.lane_pts)


# the four route counts of lane changes, nudges and turns, at the default
# batch size and as one batch: (template, plan, frames, jitter)
ROUTE_POOLS = (
    ("straight_road", "lane_change", 60, True),
    ("straight_road", "nudge", 150, False),
    ("four_way_intersection", "turn", 120, True),
    ("hilly", "turn", 120, True),
)


@pytest.mark.parametrize("batch_pairs", [features.BATCH_PAIRS, 1 << 62])
def test_route_events_match_per_snippet_loops(batch_pairs, monkeypatch):
    monkeypatch.setattr(features, "BATCH_PAIRS", batch_pairs)
    config = CurationConfig()
    routes = calls_of(monkeypatch, sdv, "match_route")
    totals = np.zeros(4, dtype=int)
    for template, plan, frames, jitter in ROUTE_POOLS:
        spec = dict(seed=3, n_snippets=6, num_frames=frames, jitter=jitter)
        pool = synthgen.generate_pool(synthgen.default_spec(template, plan, **spec))[0]
        index = MapIndex(pool.scene_map)
        routes.clear()
        list(features.batch_arrays(pool.snippets, index, config))
        if batch_pairs > features.BATCH_PAIRS:
            assert len(list(features._batches(pool.snippets, index))) == 1
        # each snippet's match and the distances of its detections to its ego path
        matches = [m for _, batch in routes for m in batch]
        path_dist = np.concatenate([args[3] for args, _ in routes])
        path_dists = np.split(path_dist, np.cumsum([len(s.det_frame) for s in pool.snippets])[:-1])
        for s, match, dist in zip(pool.snippets, matches, path_dists, strict=True):
            want = route_oracle(s, index, config, dist)
            assert match.events == want
            totals += want
            if plan == "nudge":
                assert want[3] == 1
    # lane changes, turns, controls and nudges are all hit
    assert np.all(totals > 0)


# lane widths: thresholds 0.5, 1.0 and (fallback 3.6) 0.8 with a 2 m ego
NUDGE_WIDTHS = (3.0, 4.0, None)
# the lanes' widths as the oracle and `MapIndex.lane_widths` read them
NUDGE_INDEX = SimpleNamespace(scene_map=SimpleNamespace(lanes=[SimpleNamespace(width=w) for w in NUDGE_WIDTHS]))
LATERALS = (0.0, 0.5, np.nextafter(0.5, 1.0), 0.8, np.nextafter(0.8, 1.0), 1.0, 1.2, 3.0)
OBJECT_DISTS = (1.0, 5.0, np.nextafter(5.0, 6.0), 9.0)


@st.composite
def nudge_cases(draw):
    """(assignments, lateral, bound frames, det_frame, path_dist): lane runs
    with lane changes (-1 is no lane), laterals at and around each lane's
    threshold, and detections at distances around `nudge_object_dist`."""
    spans = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1, 2]), st.integers(1, 8)), max_size=6))
    assignments = [lane for lane, n in spans for _ in range(n)]
    n = len(assignments)
    lateral = draw(st.lists(st.sampled_from(LATERALS), min_size=n, max_size=n))
    det_frame = sorted(draw(st.lists(st.integers(0, n - 1), max_size=12))) if n else []
    size = len(det_frame)
    path_dist = draw(st.lists(st.sampled_from(OBJECT_DISTS), min_size=size, max_size=size))
    return assignments, lateral, draw(st.integers(0, 4)), det_frame, path_dist


def batch_nudges(cases, bound):
    """`sdv.nudges` of the cases joined as one batch, each snippet's
    detection frames offset into the joined poses, under one bound."""
    config = CurationConfig(nudge_min_bound_frames=bound)
    starts = np.cumsum([0, *(len(c[0]) for c in cases)])[:-1]
    lanes, lateral, det_frame, path_dist = (
        np.concatenate([np.asarray(c[i], dtype=float) for c in cases]) for i in (0, 1, 3, 4)
    )
    det_frame += np.repeat(starts, [len(c[3]) for c in cases])
    widths = MapIndex.lane_widths(NUDGE_INDEX, config.lane_width_fallback)
    lanes, det_frame = lanes.astype(int), det_frame.astype(int)
    return sdv.nudges(lanes, lateral, starts.tolist(), det_frame, path_dist, widths, config).tolist()


def oracle_nudges(case):
    """`ref.detect_nudges` of one case."""
    assignments, lateral, bound, det_frame, path_dist = case
    match = ref.RouteMatch(np.array(assignments, dtype=int), np.array(lateral, dtype=float), True, (), ())
    rec = SimpleNamespace(
        match=match,
        snippet=SimpleNamespace(det_frame=np.array(det_frame, dtype=int)),
        path_dist=np.array(path_dist, dtype=float),
    )
    return ref.detect_nudges(rec, NUDGE_INDEX, CurationConfig(nudge_min_bound_frames=bound))


# an excursion at each snippet edge and one bounded excursion in between
EDGES = ([0] * 12, [1.0, 0, 0, 1.0, 1.0, 0, 0, 0, 0, 0, 0, 1.0], 2, [0, 3, 11], [1.0] * 3)
# back-to-back excursions on two lanes, bounded by in-lane frames on each
TWO_LANES = ([0] * 5 + [1] * 5, [0, 0, 0, 1.2, 1.2, 1.2, 1.2, 0, 0, 0], 2, [3, 5], [1.0] * 2)
# an excursion at one snippet's end, then one at the next snippet's start on
# the same lane: joined without the snippet split they make one bounded run
END = ([0] * 6, [0, 0, 0, 0, 1.0, 1.0], 2, [4, 5], [1.0] * 2)
START = ([0] * 6, [1.0, 1.0, 0, 0, 0, 0], 2, [0, 1], [1.0] * 2)


@pytest.mark.parametrize(
    "case,count",
    [(EDGES, 1), (TWO_LANES, 0), (TWO_LANES[:2] + (0,) + TWO_LANES[3:], 2)],
)
def test_nudge_edge_and_back_to_back_excursions(case, count):
    assert batch_nudges([case], case[2]) == [count]


@example(case=EDGES)
@example(case=TWO_LANES)
@settings(max_examples=400, deadline=None)
@given(case=nudge_cases())
def test_nudges_match_frame_loop(case):
    assert batch_nudges([case], case[2]) == [oracle_nudges(case)]


@example(cases=[END, START], bound=2)
@example(cases=[END, START], bound=0)
@example(cases=[EDGES, TWO_LANES, EDGES], bound=2)
@settings(max_examples=300, deadline=None)
@given(cases=st.lists(nudge_cases(), min_size=1, max_size=5), bound=st.integers(0, 4))
def test_joined_nudges_match_each_case_alone(cases, bound):
    cases = [c[:2] + (bound,) + c[3:] for c in cases]
    assert batch_nudges(cases, bound) == [batch_nudges([c], bound)[0] for c in cases]
    assert batch_nudges(cases, bound) == [oracle_nudges(c) for c in cases]
