import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from logcurator import features, scene, synthgen, traffic
from logcurator.scene import MapIndex, PoolFormatError, SceneMap, TrafficControl
from logcurator.selection import CurationConfig

from support import calls_of, constant_detections, drive, make_detection, measure_args, pool_of, straight_lane

CFG = CurationConfig()

SIDX = {name: i for i, name in enumerate(features.SNIPPET_FEATURE_NAMES)}
FIDX = {name: i for i, name in enumerate(features.FRAME_FEATURE_NAMES)}


def lane_map():
    return SceneMap(lanes=(straight_lane(),))


def cruise(snippet_id="s0", log_id="log0", n=60, detections=None, geo=None):
    pts = [(-30.0 + 0.5 * k, 0.0) for k in range(n)]
    return drive(pts, snippet_id=snippet_id, log_id=log_id, detections=detections, geo=geo)


def snippet_vector(s, m):
    return features.compute_snippet_features(*measure_args(s, m))[0]


def frame_vectors(s, roi_radius=CFG.roi_radius):
    return features.compute_snippet_features(*measure_args(s, lane_map(), roi_radius=roi_radius))[1]


class TestSnippetVector:
    def test_quiet_drive_scores_zero(self):
        vec = snippet_vector(cruise(), lane_map())
        assert vec.valid
        assert vec.values.shape == (features.SNIPPET_DIM,)
        assert np.max(np.abs(vec.values)) < 1e-12

    def test_schema_indexes_are_contiguous(self):
        desc = features.schema_description()
        assert [d["name"] for d in desc["snippet"]] == list(features.SNIPPET_FEATURE_NAMES)
        assert [d["index"] for d in desc["snippet"]] == list(range(features.SNIPPET_DIM))
        assert [d["name"] for d in desc["frame"]] == list(features.FRAME_FEATURE_NAMES)
        assert all(d["unit"] for d in desc["snippet"] + desc["frame"])

    def test_family_rows_partition_the_schema(self, monkeypatch):
        # one block per family, each called once, side by side in schema order
        families = ("infra_features", "traffic_features", "sdv_features")
        calls = [calls_of(monkeypatch, features, name) for name in families]
        scored, _ = measure_args(cruise(), lane_map())
        blocks = [block for [(_, block)] in calls]
        assert [block.shape for block in blocks] == [(1, 11), (1, 7), (1, 10)]
        assert np.array_equal(np.hstack(blocks), scored.values)
        assert scored.values.shape == (1, features.SNIPPET_DIM)

    def test_static_flag_reads_the_track_columns_once(self, monkeypatch):
        built = []
        real = traffic.build_track_paths
        monkeypatch.setattr(traffic, "build_track_paths", lambda det: built.append(real(det)) or built[-1])
        dets = (
            make_detection("parked", "vehicle", (-20.0, 4.0)),
            make_detection("mover", "vehicle", (-10.0, -4.0), speed=3.0),
            make_detection("walker", "pedestrian", (0.0, 3.0), speed=1.0),
        )
        vec = snippet_vector(cruise(detections=constant_detections(dets, 60)), lane_map())
        assert vec.values[SIDX["crowd_static"]] == 1.0
        assert vec.values[SIDX["near_path_dynamic"]] == 2.0
        # tracks in id order: mover, parked, walker
        [tracks] = built
        assert tracks.mean_speed.tolist() == [3.0, 0.0, 1.0]
        assert tracks.label.tolist() == [0, 0, 1]

    def test_values_land_in_named_slots(self):
        m = SceneMap(
            lanes=(straight_lane(),),
            traffic_controls=(TrafficControl("stop_sign", (5.0, 2.0), ("lane0",)),),
        )
        vec = snippet_vector(cruise(), m)
        assert vec.values[SIDX["signs"]] == 1.0
        assert vec.values[SIDX["controls_on_route"]] == 1.0
        rest = np.delete(vec.values, [SIDX["signs"], SIDX["controls_on_route"]])
        assert np.max(np.abs(rest)) < 1e-12

    def test_class_mix_slot(self):
        dets = [
            make_detection("v1", "vehicle", (0.0, 6.0)),
            make_detection("v2", "vehicle", (8.0, -6.0)),
            make_detection("p1", "pedestrian", (-8.0, 6.0)),
        ]
        s = cruise(detections=constant_detections(dets, 60))
        vec = snippet_vector(s, lane_map())
        assert vec.values[SIDX["class_div"]] == pytest.approx(2.0, abs=1e-12)
        assert vec.values[SIDX["crowd_static"]] == 3.0
        assert vec.values[SIDX["crowd_dynamic"]] == 0.0

    def test_off_lane_drive_is_invalid(self):
        s = drive([(-30.0 + 0.5 * k, 50.0) for k in range(60)])
        vec = snippet_vector(s, lane_map())
        assert not vec.valid


class TestFrameVectors:
    def test_geo_passes_through_verbatim(self):
        geo = (37.7749, -122.4194)
        out = frame_vectors(cruise(geo=[geo] * 60))
        assert len(out) == 60
        for row in out:
            assert row[FIDX["geo_lat"]] == geo[0]
            assert row[FIDX["geo_lon"]] == geo[1]

    def test_steady_scene_rows_repeat(self):
        dets = constant_detections([make_detection("v1", "vehicle", (0.0, 6.0), 3.0)], 60)
        mat = frame_vectors(cruise(detections=dets))
        assert mat.shape == (60, features.FRAME_DIM)
        assert np.max(np.abs(mat - mat[0])) < 1e-9

    def test_counts_follow_each_frame(self):
        per_frame = [
            (),
            (make_detection("v1", "vehicle", (0.0, 6.0)),),
            (
                make_detection("v1", "vehicle", (0.0, 6.0)),
                make_detection("p1", "pedestrian", (0.0, -6.0)),
            ),
        ]
        s = drive([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], detections=per_frame)
        mat = frame_vectors(s)
        assert mat[:, FIDX["det_total"]].tolist() == [0.0, 1.0, 2.0]
        assert mat[:, FIDX["det_vehicle"]].tolist() == [0.0, 1.0, 1.0]
        assert mat[:, FIDX["det_pedestrian"]].tolist() == [0.0, 0.0, 1.0]
        # one lone vehicle: (1+1)/1; vehicle plus walker: (1+1)(1+1)/2
        assert mat[:, FIDX["class_term"]].tolist() == [0.0, 2.0, 2.0]

    def test_roi_excludes_far_detections(self):
        dets = constant_detections([make_detection("v1", "vehicle", (500.0, 0.0))], 60)
        mat = frame_vectors(cruise(detections=dets), roi_radius=75.0)
        assert np.all(mat[:, FIDX["det_total"]] == 0.0)

    @pytest.mark.parametrize("frame", [5, 9])
    def test_unknown_class_names_the_snippet(self, frame):
        # `load_pool` refuses the class; a library caller reaches the counts
        # with it, in a middle frame (it would count as a vehicle of the
        # next frame) or in the last (the counts would not reshape)
        per_frame = [
            [make_detection("v1", "vehicle", (0.0, 6.0)), make_detection("p1", "pedestrian", (0.0, -6.0))]
            for _ in range(10)
        ]
        per_frame[frame][1] = make_detection("p1", "unicycle", (0.0, -6.0))
        pts = [(0.5 * k, 0.0) for k in range(10)]
        first = constant_detections([make_detection("v2", "vehicle", (0.0, 6.0))], 10)
        batch = [drive(pts, "s_a", detections=first), drive(pts, "s_b", detections=per_frame)]
        text = f"snippet 's_b': frame {frame} track p1 has detection class 'unicycle'"
        with pytest.raises(ValueError, match=text):
            list(features.batch_arrays(batch, MapIndex(lane_map()), CFG))


class TestNormalization:
    def test_none_mode_is_identity(self):
        stats = features.fit_normalization(np.array([[3.0, 4.0], [1.0, 8.0]]), mode="none")
        x = np.array([2.5, -7.0])
        assert np.array_equal(stats.apply(x), x)
        assert stats.flagged == ()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="normalization mode"):
            features.fit_normalization(np.zeros((2, 2)), mode="minmax")

    def test_two_value_column_maps_to_unit_scores(self):
        stats = features.fit_normalization(np.array([[0.0], [2.0]]), mode="zscore")
        assert stats.apply(np.array([0.0]))[0] == -1.0
        assert stats.apply(np.array([2.0]))[0] == 1.0

    def test_constant_columns_flagged_and_uncentered_scale(self):
        mat = np.tile(np.array([5.0, -3.0, 0.0]), (4, 1))
        stats = features.fit_normalization(mat, mode="zscore")
        assert stats.flagged == (0, 1, 2)
        assert np.array_equal(stats.apply(mat[0]), np.zeros(3))
        # flagged dims subtract the mean but keep raw scale
        assert np.array_equal(stats.apply(np.array([6.0, -3.0, 2.0])), np.array([1.0, 0.0, 2.0]))

    def test_post_normalization_moments(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(40, 5)) * np.array([1.0, 10.0, 0.1, 100.0, 1.0])
        mat[:, 2] = 9.0
        stats = features.fit_normalization(mat, mode="zscore")
        z = np.stack([stats.apply(row) for row in mat])
        live = [i for i in range(5) if i not in stats.flagged]
        assert stats.flagged == (2,)
        assert np.max(np.abs(np.mean(z[:, live], axis=0))) < 1e-9
        assert np.max(np.abs(np.std(z[:, live], axis=0) - 1.0)) < 1e-9
        assert np.all(z[:, 2] == 0.0)


class TestScorePool:
    def make_pool(self):
        dets = [
            make_detection("v1", "vehicle", (0.0, 6.0)),
            make_detection("v2", "vehicle", (8.0, -6.0)),
            make_detection("p1", "pedestrian", (-8.0, 6.0)),
        ]
        busy = cruise("s_busy", "log1", detections=constant_detections(dets, 60))
        quiet = cruise("s_quiet", "log0")
        return pool_of([busy, quiet], scene_map=lane_map())

    def test_rows_sorted_by_snippet_id(self):
        bundle = features.score_pool(self.make_pool(), CFG)
        assert bundle.ids == ["s_busy", "s_quiet"]
        direct = snippet_vector(cruise("s_quiet", "log0"), lane_map())
        assert np.array_equal(bundle.matrix[bundle.ids.index("s_quiet")], direct.values)

    def test_two_value_column_zscores_exactly(self):
        bundle = features.score_pool(self.make_pool(), CFG)
        col = SIDX["class_div"]
        norm = {
            sid: bundle.snippet_stats.apply(bundle.matrix[bundle.ids.index(sid)])
            for sid in bundle.ids
        }
        assert norm["s_quiet"][col] == -1.0
        assert norm["s_busy"][col] == 1.0

    def test_identical_rows_flag_every_dimension(self):
        snippets = [cruise(f"s{i}", f"log{i}") for i in range(3)]
        bundle = features.score_pool(pool_of(snippets, scene_map=lane_map()), CFG)
        assert bundle.snippet_stats.flagged == tuple(range(features.SNIPPET_DIM))
        for sid in bundle.ids:
            assert np.array_equal(
                bundle.snippet_stats.apply(bundle.matrix[bundle.ids.index(sid)]),
                np.zeros(features.SNIPPET_DIM),
            )

    def test_unmatchable_snippet_flagged_not_dropped(self):
        lost = drive([(-30.0 + 0.5 * k, 50.0) for k in range(60)], snippet_id="s_lost", log_id="log9")
        pool = pool_of([cruise(), lost], scene_map=lane_map())
        bundle = features.score_pool(pool, CFG)
        assert bundle.ids == ["s0", "s_lost"]
        assert bundle.valid.tolist() == [True, False]

    def test_frame_matrices_keyed_by_snippet(self):
        bundle = features.score_pool(self.make_pool(), CFG)
        assert set(bundle.frame_mats) == {"s_busy", "s_quiet"}
        assert bundle.frame_mats["s_busy"].shape == (60, features.FRAME_DIM)
        assert np.all(bundle.frame_mats["s_busy"][:, FIDX["det_total"]] == 3.0)


class TestFeatureStore:
    def score(self):
        dets = [make_detection("v1", "vehicle", (0.0, 6.0), 3.0)]
        a = cruise("s_a", "log0", detections=constant_detections(dets, 60))
        b = cruise("s_b", "log1")
        return features.score_pool(pool_of([a, b], scene_map=lane_map()), CFG)

    def test_round_trip_is_bit_exact(self, tmp_path):
        bundle = self.score()
        features.write_features(str(tmp_path), bundle)
        back = features.read_features(str(tmp_path))
        assert back.ids == bundle.ids
        assert np.array_equal(back.matrix, bundle.matrix)
        assert np.array_equal(back.valid, bundle.valid)
        for sid in bundle.ids:
            assert np.array_equal(back.frame_mats[sid], bundle.frame_mats[sid])
        assert np.array_equal(back.snippet_stats.mean, bundle.snippet_stats.mean)
        assert np.array_equal(back.snippet_stats.std, bundle.snippet_stats.std)
        assert back.snippet_stats.flagged == bundle.snippet_stats.flagged
        assert np.array_equal(back.frame_stats.mean, bundle.frame_stats.mean)

    def test_rewrite_from_loaded_bundle_matches_bytes(self, tmp_path):
        bundle = self.score()
        first = tmp_path / "one"
        second = tmp_path / "two"
        features.write_features(str(first), bundle)
        features.write_features(str(second), features.read_features(str(first)))
        for name in ("snippet_features.jsonl", "frame_features.jsonl", "normalization.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_reader_rejects_schema_drift(self, tmp_path):
        bundle = self.score()
        features.write_features(str(tmp_path), bundle)
        path = tmp_path / "snippet_features.jsonl"
        text = path.read_text().replace('"curve_mean"', '"curve_avg"', 1)
        path.write_text(text)
        with pytest.raises(PoolFormatError, match="schema does not match"):
            features.read_features(str(tmp_path))

    def test_reader_requires_header(self, tmp_path):
        bundle = self.score()
        features.write_features(str(tmp_path), bundle)
        path = tmp_path / "snippet_features.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(PoolFormatError, match="header"):
            features.read_features(str(tmp_path))

    def test_store_cut_short_keeps_no_old_provenance(self, tmp_path, monkeypatch):
        bundle = self.score()
        features.write_features(str(tmp_path), bundle, {"kind": "store_provenance"})
        assert (tmp_path / "provenance.json").exists()
        written = []

        def crash_on_second_file(path, text):
            written.append(path)
            if len(written) == 2:
                raise OSError("disk full")

        monkeypatch.setattr(scene, "write_atomic", crash_on_second_file)
        with pytest.raises(OSError):
            features.write_features(str(tmp_path), bundle, {"kind": "store_provenance"})
        assert not (tmp_path / "provenance.json").exists()

    def test_provenance_is_written_last(self, tmp_path, monkeypatch):
        written = []
        monkeypatch.setattr(scene, "write_atomic", lambda path, text: written.append(path))
        features.write_features(str(tmp_path), self.score(), {"kind": "store_provenance"})
        assert [os.path.basename(p) for p in written] == [
            "snippet_features.jsonl", "frame_features.jsonl", "normalization.json", "provenance.json"
        ]

    def test_first_bad_value_outranks_an_earlier_bad_valid(self, tmp_path):
        # every row's kind, id and values are checked before any valid flag
        features.write_features(str(tmp_path), self.score())
        path = tmp_path / "snippet_features.jsonl"
        head, *rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0]["valid"] = "yes"
        path.write_text("\n".join(json.dumps(r) for r in [head, *rows]) + "\n")
        with pytest.raises(PoolFormatError, match=re.escape(f"{path} row 2, snippet 's_a': needs a boolean valid")):
            features.read_features(str(tmp_path))
        rows[1]["values"][3] = "1"
        path.write_text("\n".join(json.dumps(r) for r in [head, *rows]) + "\n")
        text = f"every value of feature file {path} row 3, snippet 's_b' must be a number"
        with pytest.raises(PoolFormatError, match=re.escape(text)):
            features.read_features(str(tmp_path))

    def test_reader_keeps_no_parsed_row(self, tmp_path):
        # the reader's heap peaks near the store's text plus what it
        # returns; holding each parsed row's lists of floats took 3.2-3.7x
        spec = synthgen.default_spec(
            "straight_road", "cruise", seed=3, n_snippets=100, num_frames=20, jitter=True
        )
        pool, _ = synthgen.generate_pool(spec)
        features.write_features(str(tmp_path), features.score_pool(pool, CFG))
        text = sum(
            os.path.getsize(tmp_path / name) for name in ("snippet_features.jsonl", "frame_features.jsonl")
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bundle = features.read_features(str(tmp_path))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bundle.ids) == 100 and bundle.frame_mats[bundle.ids[0]].shape == (20, features.FRAME_DIM)
        assert peak - base <= 1.5 * (text + kept - base)

    def test_missing_store_reported(self, tmp_path):
        with pytest.raises(PoolFormatError, match="cannot read"):
            features.read_features(str(tmp_path / "nowhere"))
