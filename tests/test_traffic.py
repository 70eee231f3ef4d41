import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logcurator import geometry, traffic

from support import arc_points, constant_detections, drive, make_detection, snippet_values

VEH = "vehicle"
PED = "pedestrian"


def moving_dets(track_id, label, positions, speed):
    return [make_detection(track_id, label, p, speed) for p in positions]


def snippet_with(det_lists, sid="s0"):
    ego = [(0.0, 0.0)] * len(det_lists)
    return drive(ego, sid, detections=det_lists)


def traffic_row(s, roi_radius=math.inf):
    """The snippet's measures by name, every detection in the gate by default."""
    return snippet_values(s, roi_radius=roi_radius)


def actor_paths(s):
    """(mean, max) actor path complexity of the snippet."""
    row = snippet_values(s)
    return row["actor_path_mean"], row["actor_path_max"]


def crowdedness(s, roi_radius=math.inf):
    row = traffic_row(s, roi_radius)
    return row["crowd_static"], row["crowd_dynamic"]


def class_diversity(s):
    return traffic_row(s)["class_div"]


def spatial_variance(s):
    return traffic_row(s)["dist_var"]


def speed_diversity(s):
    return traffic_row(s)["speed_div"]


class TestCrowdedness:
    def test_two_frame_mean(self):
        f0 = tuple(make_detection(f"t{i}", VEH, (float(i), 2.0), 2.0) for i in range(3))
        f1 = tuple(make_detection(f"t{i}", VEH, (float(i), 2.0), 2.0) for i in range(5))
        out = crowdedness(snippet_with([f0, f1]))
        assert out == (0.0, 4.0)

    def test_empty_scene(self):
        assert crowdedness(snippet_with([(), ()])) == (0.0, 0.0)

    def test_slow_actor_counts_static(self):
        dets = constant_detections(
            [make_detection("t0", VEH, (3.0, 0.0), 0.4)], 2
        )
        assert crowdedness(snippet_with(dets)) == (1.0, 0.0)

    def test_threshold_is_strict(self):
        dets = constant_detections([make_detection("t0", VEH, (3.0, 0.0), 0.5)], 2)
        assert crowdedness(snippet_with(dets)) == (0.0, 1.0)

    def test_split_uses_track_mean_speed(self):
        # instantaneous speeds straddle 0.5 but the mean is 0.45: static
        frames = [
            (make_detection("t0", VEH, (3.0, 0.0), 0.8),),
            (make_detection("t0", VEH, (3.1, 0.0), 0.1),),
        ]
        assert crowdedness(snippet_with(frames)) == (1.0, 0.0)

    def test_duplicating_frames_keeps_means(self):
        f0 = tuple(make_detection(f"t{i}", VEH, (float(i), 2.0), 2.0) for i in range(3))
        f1 = tuple(make_detection(f"t{i}", VEH, (float(i), 2.0), 2.0) for i in range(5))
        once = crowdedness(snippet_with([f0, f1]))
        doubled = crowdedness(snippet_with([f0, f0, f1, f1]))
        assert once == doubled

    def test_roi_excludes_far_actors(self):
        near = make_detection("t0", VEH, (10.0, 0.0), 3.0)
        far = make_detection("t1", VEH, (200.0, 0.0), 3.0)
        s = snippet_with(constant_detections([near, far], 2))
        assert crowdedness(s, roi_radius=75.0) == (0.0, 1.0)
        assert crowdedness(s, roi_radius=math.inf) == (0.0, 2.0)

    def test_split_sums_to_total_presence(self):
        frames = [
            (
                make_detection("slow", VEH, (3.0, 0.0), 0.1),
                make_detection("fast", VEH, (6.0, 0.0), 4.0),
            ),
            (make_detection("fast", VEH, (6.4, 0.0), 4.0),),
        ]
        s = snippet_with(frames)
        static, dynamic = crowdedness(s)
        assert static + dynamic == pytest.approx(1.5, abs=0)


class TestClassDiversity:
    def test_mixed_frame(self):
        dets = (
            make_detection("a", VEH, (1.0, 0.0)),
            make_detection("b", VEH, (2.0, 0.0)),
            make_detection("c", PED, (3.0, 0.0)),
        )
        out = class_diversity(snippet_with([dets]))
        assert out == pytest.approx(2.0, abs=1e-12)

    def test_single_class_frame(self):
        dets = tuple(make_detection(f"t{i}", VEH, (float(i), 0.0)) for i in range(3))
        out = class_diversity(snippet_with([dets]))
        assert out == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_empty_frame_contributes_zero(self):
        dets = (
            make_detection("a", VEH, (1.0, 0.0)),
            make_detection("b", VEH, (2.0, 0.0)),
            make_detection("c", PED, (3.0, 0.0)),
        )
        out = class_diversity(snippet_with([dets, ()]))
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_new_class_raises_term(self):
        vehicles = tuple(make_detection(f"t{i}", VEH, (float(i), 0.0)) for i in range(3))
        with_ped = vehicles + (make_detection("p", PED, (5.0, 0.0)),)
        low = class_diversity(snippet_with([vehicles]))
        high = class_diversity(snippet_with([with_ped]))
        assert high == pytest.approx(2.0, abs=1e-12)
        assert high > low

    def test_detection_order_irrelevant(self):
        dets = [
            make_detection("a", VEH, (1.0, 0.0)),
            make_detection("b", PED, (2.0, 0.0)),
            make_detection("c", "bicyclist", (3.0, 0.0)),
        ]
        out1 = class_diversity(snippet_with([tuple(dets)]))
        out2 = class_diversity(snippet_with([tuple(reversed(dets))]))
        assert out1 == out2


class TestSpatialVariance:
    def test_constant_distance(self):
        dets = (
            make_detection("a", VEH, (10.0, 0.0)),
            make_detection("b", VEH, (0.0, 10.0)),
        )
        assert spatial_variance(snippet_with([dets])) == 0.0

    def test_two_distances(self):
        dets = (
            make_detection("a", VEH, (5.0, 0.0)),
            make_detection("b", VEH, (15.0, 0.0)),
        )
        assert spatial_variance(snippet_with([dets])) == pytest.approx(
            25.0, abs=1e-9
        )

    def test_no_actors(self):
        assert spatial_variance(snippet_with([(), ()])) == 0.0

    def test_pooled_over_frames(self):
        frames = [
            (make_detection("a", VEH, (5.0, 0.0)),),
            (make_detection("a", VEH, (15.0, 0.0)),),
        ]
        assert spatial_variance(snippet_with(frames)) == pytest.approx(
            25.0, abs=1e-9
        )


class TestActorPaths:
    def test_straight_tracks_zero(self):
        positions = [(float(k), 0.5 * k) for k in range(20)]
        frames = [
            (make_detection("t0", VEH, p, 3.0),) for p in positions
        ]
        assert actor_paths(snippet_with(frames)) == (0.0, 0.0)

    def test_circle_track_mean_and_max(self):
        arc = arc_points(20.0, 100)
        straight = [(float(k) * 0.5, -10.0) for k in range(100)]
        frames = [
            (
                make_detection("curvy", VEH, tuple(arc[k]), 3.0),
                make_detection("direct", VEH, straight[k], 3.0),
            )
            for k in range(100)
        ]
        mean, peak = actor_paths(snippet_with(frames))
        assert peak == pytest.approx(0.05, abs=2e-3)
        assert mean == pytest.approx(0.025, abs=2e-3)

    def test_stationary_actor_skipped(self):
        frames = constant_detections([make_detection("t0", VEH, (5.0, 5.0), 0.0)], 10)
        assert actor_paths(snippet_with(frames)) == (0.0, 0.0)

    def test_two_point_track_skipped(self):
        frames = [
            (make_detection("t0", VEH, (0.0, 2.0), 1.0),),
            (make_detection("t0", VEH, (1.0, 2.0), 1.0),),
        ]
        assert actor_paths(snippet_with(frames)) == (0.0, 0.0)


# few values, signed zeros among them, so that rows repeat and interleave
SMALL_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(
    -1e3, 1e3, allow_nan=False, allow_subnormal=True
)
A, B, C, Z = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [-0.0, 0.0]


@given(arrays(float, st.tuples(st.integers(1, 8), st.just(2)), elements=SMALL_FLOATS))
@example(np.array([Z, [0.0, -0.0], A]))  # -0.0 == 0.0: two distinct rows
@example(np.array([A, B, A, B, A]))  # interleaved repeats: two
@example(np.array([A, B, A, C]))  # a third row after a repeat: three
@example(np.array([A, A, A]))
def test_few_distinct_rows_matches_unique(p):
    # the curve pass's mask, which keeps a track out of the actor path terms
    few = geometry.curve_complexities([p], 100)[1][0]
    assert few == (len(np.unique(p, axis=0)) < 3)


@given(
    arrays(float, st.integers(0, 40), elements=st.floats(-1e6, 1e6, allow_nan=False)),
    st.integers(1, 4),
)
def test_variance_follows_np_var(x, stride):
    # contiguous, strided, and a column of a C-ordered table
    table = np.column_stack([x, x[::-1]])
    for v in (x, x[::stride], table[:, 1]):
        assert traffic.variance(v) == (float(np.var(v)) if len(v) else 0.0)


# run lengths at and around the pairwise sum's block edges: its 8-way
# unrolled loop and its blocks of 128 values
EDGE_LENGTHS = (0, 1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 4095, 4096, 4097)


@settings(max_examples=60, deadline=None)
@example(sizes=[8, 0, 8, 128, 4097, 128, 1, 4097, 0], seed=0, scale=1e6)
@example(sizes=[0], seed=0, scale=1.0)
@example(sizes=[128, 128, 128], seed=0, scale=1e-3)
@given(
    sizes=st.lists(st.sampled_from(EDGE_LENGTHS) | st.integers(0, 300), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e6]),
)
def test_run_moments_follow_np_mean_and_np_var(sizes, seed, scale):
    # one call over runs of mixed lengths, repeated lengths sharing a block
    values = np.random.default_rng(seed).normal(3.0 * scale, scale, size=sum(sizes))
    mean, var = traffic.run_moments(values, sizes)
    lo = 0
    for n, m, v in zip(sizes, mean.tolist(), var.tolist(), strict=True):
        run = values[lo : lo + n]
        assert (m, v) == ((float(np.mean(run)), float(np.var(run))) if n else (0.0, 0.0))
        lo += n


class TestSpeedDiversity:
    def test_two_constant_actors(self):
        frames = constant_detections(
            [
                make_detection("a", VEH, (3.0, 0.0), 5.0),
                make_detection("b", VEH, (6.0, 0.0), 7.0),
            ],
            3,
        )
        out = speed_diversity(snippet_with(frames))
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_single_varying_actor(self):
        frames = [
            (make_detection("a", VEH, (3.0, 0.0), v),) for v in (0.0, 2.0, 4.0)
        ]
        out = speed_diversity(snippet_with(frames))
        assert out == pytest.approx(8.0 / 3.0, abs=1e-12)

    def test_single_constant_actor(self):
        frames = constant_detections([make_detection("a", VEH, (3.0, 0.0), 2.0)], 4)
        assert speed_diversity(snippet_with(frames)) == 0.0

    def test_no_actors(self):
        assert speed_diversity(snippet_with([(), ()])) == 0.0

    def test_relabel_and_reverse_invariance(self):
        speeds_a = (1.0, 2.0, 3.0)
        speeds_b = (4.0, 4.5, 5.0)

        def build(ids, order):
            frames = [
                (
                    make_detection(ids[0], VEH, (3.0, 0.0), speeds_a[k]),
                    make_detection(ids[1], VEH, (6.0, 0.0), speeds_b[k]),
                )
                for k in order
            ]
            return speed_diversity(snippet_with(frames))

        base = build(("a", "b"), (0, 1, 2))
        assert build(("x9", "q2"), (0, 1, 2)) == base
        assert build(("a", "b"), (2, 1, 0)) == pytest.approx(base, abs=1e-12)


def test_traffic_features_bundles_consistently():
    frames = constant_detections(
        [
            make_detection("a", VEH, (3.0, 0.0), 5.0),
            make_detection("b", PED, (0.0, 4.0), 0.0),
        ],
        4,
    )
    s = snippet_with(frames)
    out = snippet_values(s, roi_radius=75.0)
    assert out["crowd_static"] == 1.0
    assert out["crowd_dynamic"] == 1.0
    assert out["class_div"] == pytest.approx(2.0, abs=1e-12)
    assert out["speed_div"] == pytest.approx(speed_diversity(s), abs=0)
    assert out["dist_var"] == pytest.approx(spatial_variance(s), abs=0)
