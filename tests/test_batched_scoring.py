"""Scoring in batches gives the bytes of scoring one snippet at a time.

`features.batch_arrays` projects a whole batch of snippets in four kernel
calls and scores it into one record of feature columns. A point's projection does not depend on the other points of its call,
so the store must not depend on where batches or kernel blocks end: the
block-diagonal kernel must equal the one-polyline projection and its einsum
oracle bit for bit, and the feature store must keep its pinned digest at
every batch cap.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import features, geometry, sdv, synthgen, traffic
from logcurator.scene import MapIndex, snippet_from_obj, snippet_to_obj
from logcurator.selection import CurationConfig
from test_measure_equivalence import synth_pool
from test_store_digests import DIGESTS, _digests, _synth_pool

from support import INTERACTIONS, calls_of, columns, tile_map

# a coarse lattice: points land on vertices and segments, and many are
# equidistant from two segments
LATTICE = st.integers(-4, 4).map(lambda v: 0.5 * v)
POINTS = st.lists(st.tuples(LATTICE, LATTICE), max_size=6)


@st.composite
def owned_sets(draw):
    """[(polyline, cumlen or None, points)]: paths of one or more points,
    some with repeated poses, each with its own points."""
    sets = []
    for _ in range(draw(st.integers(1, 5))):
        path = np.array(draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=1, max_size=6)))
        if draw(st.booleans()):  # ego paths drop repeated poses; others may keep them
            path = geometry.dedupe_points(path)
        cumlen = geometry.cumulative_arclength(path) if draw(st.booleans()) else None
        pts = np.array(draw(POINTS), dtype=float).reshape(-1, 2)
        if len(path) > 1 and draw(st.booleans()):  # a point exactly on a segment
            pts = np.vstack([pts, 0.5 * (path[0] + path[1])])
        sets.append((path, cumlen, pts))
    return sets


@settings(max_examples=300)
@given(owned_sets(), st.sampled_from([1, 2, 5, 17, 1 << 16]))
def test_block_diagonal_kernel_equals_per_polyline_projection(sets, block_pairs):
    saved = geometry.BLOCK_PAIRS
    geometry.BLOCK_PAIRS = block_pairs  # blocks of one pair up to one block
    try:
        dist, arc = geometry.project_points_to_polyline(
            np.concatenate([pts for _, _, pts in sets]),
            [path for path, _, _ in sets],
            [cumlen for _, cumlen, _ in sets],
            counts=[len(pts) for _, _, pts in sets],
        )
        got, lo = [], 0
        for path, cumlen, pts in sets:
            got.append((dist[lo : lo + len(pts)], arc[lo : lo + len(pts)]))
            lo += len(pts)
    finally:
        geometry.BLOCK_PAIRS = saved
    for (path, cumlen, pts), (d, a) in zip(sets, got):
        one = geometry.project_points_to_polyline(pts, path, cumlen)
        want = ref.project_points_to_polyline(pts, path, cumlen) if len(pts) else one
        assert np.array_equal(d, one[0]) and np.array_equal(a, one[1])
        assert np.array_equal(d, want[0]) and np.array_equal(a, want[1])


def test_block_diagonal_kernel_without_points():
    table = geometry.SegmentTable.from_polylines([[(0.0, 0.0), (1.0, 0.0)]], [None])
    dist, arc = geometry.project_to_own_polylines(np.zeros((0, 2)), table, [0])
    assert dist.shape == arc.shape == (0,)


def _batch_sizes(pool):
    ordered = sorted(pool.snippets, key=lambda s: s.snippet_id)
    return [len(b) for b in features._batches(ordered, MapIndex(pool.scene_map))]


def _one_snippet(pool):
    index = MapIndex(pool.scene_map)
    return max(features._snippet_values(s, index) for s in pool.snippets)


@pytest.mark.parametrize("cap", ["one_pair", "one_snippet", "whole_pool"])
def test_store_does_not_depend_on_the_batch_cap(cap, monkeypatch, tmp_path):
    pool = _synth_pool()  # four-way intersection: routes with conflict lanes
    cfg = CurationConfig()
    index = MapIndex(pool.scene_map)
    routes = calls_of(monkeypatch, sdv, "match_route")
    list(features.batch_arrays(pool.snippets, index, cfg))
    assert any(sdv._conflict_lanes(index, m.traversed) for _, matches in routes for m in matches)
    if cap == "one_pair":
        monkeypatch.setattr(geometry, "BLOCK_PAIRS", 1)
    values = {"one_pair": 1, "one_snippet": _one_snippet(pool), "whole_pool": 1 << 62}[cap]
    monkeypatch.setattr(features, "BATCH_VALUES", values)
    sizes = _batch_sizes(pool)
    n = len(pool.snippets)
    assert sizes == {"one_pair": [1] * n, "whole_pool": [n]}.get(cap, sizes)
    assert cap == "whole_pool" or max(sizes) < n
    features.write_features(str(tmp_path), features.score_pool(pool, cfg))
    assert _digests(tmp_path) == DIGESTS["synth"]


def test_a_batch_makes_one_kernel_call_per_table(monkeypatch):
    pool = _synth_pool()
    monkeypatch.setattr(features, "BATCH_VALUES", 1 << 62)
    calls = []

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls.append(name if "counts" not in kwargs else "path_dist")
            return kernel(*args, **kwargs)

        return wrapper

    for name in ("project_to_segments", "project_points_to_polyline"):
        monkeypatch.setattr(geometry, name, counted(name, getattr(geometry, name)))
    features.score_pool(pool, CurationConfig())
    # the ego against the lane and the element tables, the vehicle table,
    # and the path distances: infra makes no kernel call of its own
    assert sorted(calls) == ["path_dist"] + ["project_to_segments"] * 3


def test_conflict_rows_follow_the_vehicle_table():
    # the bike lane first: conflict lane i is not row i of the vehicle table
    pool = _synth_pool()
    lanes = pool.scene_map.lanes
    index = MapIndex(pool.scene_map._replace(lanes=lanes[-1:] + lanes[:-1]))
    assert index.vehicle_indices[0] == 1
    cfg = CurationConfig()
    got = [row for batch in features.batch_arrays(pool.snippets, index, cfg) for row in columns(batch, INTERACTIONS)]
    for s, counts in zip(pool.snippets, got, strict=True):
        assert counts == ref.interactions(s, index)
    assert any(trav or reach for _, _, trav, reach in got)


@pytest.mark.parametrize("values", [1, 1 << 62])  # one snippet per batch, and one batch
def test_per_snippet_and_per_route_work_runs_once(values, monkeypatch):
    pool = _synth_pool()
    monkeypatch.setattr(features, "BATCH_VALUES", values)
    calls = {"class_counts": 0, "build_track_paths": 0, "conflict_zone": 0, "ego_pass": 0, "interactions": 0}
    counted = (
        (traffic, "class_counts"), (traffic, "build_track_paths"), (sdv, "conflict_zone"),
        (features, "ego_pass"), (sdv, "interactions"),
    )
    for module, name in counted:
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, wrapper)
    averaged = []  # every array np.mean is called on
    mean = np.mean
    monkeypatch.setattr(np, "mean", lambda a, *args, **kw: averaged.append(a) or mean(a, *args, **kw))
    index, cfg = MapIndex(pool.scene_map), CurationConfig()
    matched = calls_of(monkeypatch, sdv, "match_route")
    for scored in features.batch_arrays(pool.snippets, index, cfg):
        for i in range(len(scored.ids)):
            features.compute_snippet_features(scored, i)
    routes = {m.traversed for _, matches in matched for m in matches}
    tracks = sum(len(s.track_ids) for s in pool.snippets)
    # class counts, the track columns, the ego pass and the interaction
    # counts once per batch, and one conflict zone per route
    n = len(pool.snippets)
    batches = len(_batch_sizes(pool))
    assert calls == {
        "class_counts": batches, "build_track_paths": batches, "conflict_zone": len(routes),
        "ego_pass": batches, "interactions": batches,
    }
    assert len(routes) < n
    # no mean per track: infra's two lane curve means per snippet are all
    assert len(averaged) <= 2 * n < tracks


def _same(a, b) -> bool:
    """`a` equals `b` field by field, arrays by np.array_equal and dtype."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if hasattr(a, "_fields"):  # a record: never equal to a plain tuple
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f)) for f in a._fields)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _spec_pool(template, plan, n_snippets, num_frames, **traffic):
    spec = synthgen.default_spec(
        template, plan, seed=3, n_snippets=n_snippets, num_frames=num_frames, jitter=True, **traffic
    )
    return synthgen.generate_pool(spec)[0]


def _short_pool():
    """Short straight-road snippets: many fill one batch at the default cap."""
    return _spec_pool("straight_road", "cruise", 12, 20)


def _curved_pool():
    """Short curved-road snippets: every track and every ego path curves."""
    return _spec_pool("curved_road", "cruise", 12, 20)


@pytest.mark.parametrize(
    "make_pool,values", [(_short_pool, None), (_synth_pool, 1 << 62), (_curved_pool, 1 << 62)]
)
def test_records_do_not_depend_on_the_batch_cap(make_pool, values, monkeypatch):
    # the four-way pool has crosswalks, an intersection and conflict lanes;
    # the curved pool puts many curving tracks in one curve pass
    pool = make_pool()
    index, cfg = MapIndex(pool.scene_map), CurationConfig()
    if values is not None:
        monkeypatch.setattr(features, "BATCH_VALUES", values)
    calls = calls_of(monkeypatch, sdv, "match_route")
    batched = list(features.batch_arrays(pool.snippets, index, cfg))
    routes = calls[:]
    calls.clear()
    assert 1 < max(_batch_sizes(pool)) and all(s.track_ids for s in pool.snippets)
    monkeypatch.setattr(features, "BATCH_VALUES", 1)
    alone = list(features.batch_arrays(pool.snippets, index, cfg))
    if make_pool is not _short_pool:  # several curving tracks in one curve pass
        assert sum(peak > 0.0 for batch in batched for [peak] in columns(batch, ["actor_path_max"])) > 1
    # each snippet's route match, and the path distances of its detections
    # that the match reads
    assert len(calls) == len(pool.snippets) and len(routes) == len(batched)
    assert _same([m for _, got in calls for m in got], [m for _, got in routes for m in got])
    assert _same(np.concatenate([a[3] for a, _ in calls]), np.concatenate([a[3] for a, _ in routes]))
    many = [(batch, i) for batch in batched for i in range(len(batch.ids))]
    for one, (batch, i) in zip(alone, many, strict=True):
        assert _same(one.label_mix[0], batch.label_mix[i])
        # and what the store reads from them: the 28-value row and the
        # (T, 10) frame matrix
        vec, mat = features.compute_snippet_features(one, 0)
        vec_b, mat_b = features.compute_snippet_features(batch, i)
        assert _same(vec, vec_b) and _same(mat, mat_b)


@functools.cache
def _tiled_pool(template, plan):
    """The synth pool's snippets, and the MapIndex of its map tiled 2 x 2,
    400 m apart."""
    pool = synth_pool(template, plan, seed=len(template) + len(plan))
    return pool.snippets, MapIndex(tile_map(pool.scene_map, 2))


def _moved(s, tile, frames):
    """The first `frames` frames of snippet `s`, driven on `tile` of the
    tiled map."""
    obj = snippet_to_obj(s)
    obj["frames"] = obj["frames"][:frames]
    obj["frame_range"] = [obj["frames"][0]["index"], obj["frames"][-1]["index"]]
    for frame in obj["frames"]:
        for xy in [frame["ego_pose"], *(d["center"] for d in frame["detections"])]:
            xy[0] += 400.0 * tile[0]
            xy[1] += 400.0 * tile[1]
    return snippet_from_obj(obj)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_any_batching_scores_each_snippet_as_alone():
    distinct = []  # distinct lane and height masks, then values, of each batch drawn

    @settings(max_examples=40, deadline=None)
    @given(
        pool=st.sampled_from([(t, plan) for t in synthgen.TEMPLATES for plan in ("cruise", "turn")]),
        # each snippet's tile and frame count, up to all 30 of its frames
        cuts=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(1, 30)), min_size=4, max_size=4),
        values=st.integers(1, features.BATCH_VALUES),
        roi_radius=st.sampled_from([75.0, 15.0]),
    )
    @example(
        pool=("hilly", "turn"), cuts=[(0, 0, 30), (1, 0, 7), (0, 0, 1), (1, 1, 12)], values=1 << 62, roi_radius=15.0
    )
    def check(pool, cuts, values, roi_radius):
        snippets, index = _tiled_pool(*pool)
        snippets = [_moved(s, (a, b), frames) for s, (a, b, frames) in zip(snippets, cuts, strict=True)]
        config = CurationConfig(roi_radius=roi_radius)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(features, "BATCH_VALUES", values)
            calls = calls_of(mp, features, "infra_features")
            batched = list(features.batch_arrays(snippets, index, config))
            mp.setattr(features, "BATCH_VALUES", 1)
            alone = list(features.batch_arrays(snippets, index, config))
        for ((lane_dist, element_dist, *_), _), batch in zip(calls[: len(batched)], batched, strict=True):
            heights = element_dist[:, index.element_rows["height"]]
            masks = [len(np.unique(d <= roi_radius, axis=0)) for d in (lane_dist, heights)]
            values = [len(set(column)) for column in zip(*columns(batch, ["curve_mean", "height_var"]))]
            distinct.append(masks + values)
        many = [(batch, i) for batch in batched for i in range(len(batch.ids))]
        for one, (batch, i) in zip(alone, many, strict=True):
            (vec, mat), (vec_b, mat_b) = (features.compute_snippet_features(*at) for at in ((one, 0), (batch, i)))
            assert (vec.snippet_id, vec.valid) == (vec_b.snippet_id, vec_b.valid)
            assert _bits(vec.values) == _bits(vec_b.values) and _bits(mat) == _bits(mat_b)
            assert _bits(one.label_mix[0]) == _bits(batch.label_mix[i])

    check()
    # some batch reduces over two or more distinct lane and height masks,
    # and some batch's rows differ in `curve_mean` and in `height_var`
    assert all(most >= 2 for most in np.max(distinct, axis=0))


def test_worker_chunks_give_the_same_bundle():
    pool = _synth_pool()
    # two workers take chunks of len // 8 snippets, and some chunk ends inside
    # a batch of the one-worker run
    n, ends = len(pool.snippets), np.cumsum(_batch_sizes(pool)).tolist()
    size = max(1, n // 8)
    assert set(range(size, n, size)) - set(ends)
    one, two = (features.score_pool(pool, CurationConfig(), jobs=jobs) for jobs in (1, 2))
    assert one.ids == two.ids and np.array_equal(one.matrix, two.matrix)
    assert all(np.array_equal(one.frame_mats[sid], two.frame_mats[sid]) for sid in one.ids)


# sparse traffic: one mover and one parked car
SPARSE = dict(n_movers=1, n_parked=1, n_pedestrians=0, with_circle=False, crossing_actors=False)


@pytest.mark.parametrize(
    "pool,traffic,least",
    [
        (("four_way_intersection", "turn", 8, 125), dict(bicycle_every=5), 4),  # long turns with bicyclists
        (("straight_road", "cruise", 80, 20), SPARSE, 40),  # short cruises in sparse traffic
    ],
    ids=["long_turns", "short_cruises"],
)
def test_batches_hold_several_snippets(pool, traffic, least):
    # every batch but the last holds at least `least` snippets: a batch pays
    # a fixed cost of about 200 numpy calls, so one-snippet batches would pay
    # it once per snippet
    sizes = _batch_sizes(_spec_pool(*pool, **traffic))
    assert len(sizes) > 1 and min(sizes[:-1]) >= least


def test_a_batch_on_a_city_map_holds_its_memory():
    # on the four-way map tiled 8 x 8 (320 lanes), one long turn's lane,
    # element and vehicle tables fill a batch on their own: its call peaks
    # at about 6.2 MiB, where two turns in one batch peak at 8.0 MiB and
    # four, as a bound on rows alone would batch them, at 18 MiB
    pool = _spec_pool("four_way_intersection", "turn", 4, 125, bicycle_every=5)
    index = MapIndex(tile_map(pool.scene_map, 8))
    batch = next(features._batches(pool.snippets, index))
    tracemalloc.start()
    try:
        features._batch_arrays(batch, index, CurationConfig(), {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def ring(n):
    angle = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return 50.0 * np.column_stack([np.cos(angle), np.sin(angle)])


def test_polygon_is_simple_holds_blocks_of_pairs():
    # all n(n-3)/2 pairs of a 600-vertex ring at once peaked at 25.6 MiB;
    # blocks of BLOCK_PAIRS = 2^16 pairs peak at about 8.6 MiB
    poly = ring(600)
    tracemalloc.start()
    try:
        assert geometry.polygon_is_simple(poly)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_curve_pass_holds_blocks_of_values():
    # 2,000 curving paths at K = 200 in one pass peaked at 40.1 MiB;
    # blocks of CURVE_VALUES = 2^16 values peak at about 7.5 MiB
    angle = np.linspace(0.0, 1.5, 30)
    paths = [(10.0 + i % 7) * np.column_stack([np.cos(angle), np.sin(angle)]) for i in range(2000)]
    tracemalloc.start()
    try:
        curves, few = geometry.curve_complexities(paths, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert np.all(curves > 0.0) and not few.any()


@pytest.mark.parametrize("block_pairs", [1, 7, 64])
def test_polygon_is_simple_blocks_match_scalar_copy(monkeypatch, block_pairs):
    monkeypatch.setattr(geometry, "BLOCK_PAIRS", block_pairs)
    rng = np.random.default_rng(block_pairs)
    for _ in range(60):
        n = int(rng.integers(3, 12))
        poly = ring(n) if rng.random() < 0.3 else rng.integers(-3, 4, size=(n, 2)).astype(float)
        assert geometry.polygon_is_simple(poly) == ref.polygon_is_simple(poly)
