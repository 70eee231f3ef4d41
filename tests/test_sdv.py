import numpy as np
import pytest

import reference_measures as ref
from logcurator import features, geometry, sdv
from logcurator.scene import Lane, MapIndex, SceneMap, TrafficControl
from logcurator.selection import CurationConfig

from support import (
    DT,
    INTERACTIONS,
    arc_points,
    constant_detections,
    drive,
    calls_of,
    columns,
    make_detection,
    measure_args,
    snippet_values,
    straight_lane,
    vertical_lane,
)


def straight_drive(n=60, speed=5.0, y=0.0, x0=-30.0):
    return drive([(x0 + speed * DT * k, y) for k in range(n)])


def path_complexity(s):
    return snippet_values(s)["sdv_path"]


def speed_variance(s):
    return snippet_values(s)["sdv_speed_var"]


def interactions(s, m=None, **config):
    """The snippet's (near_static, near_dynamic, traversals, reachable)."""
    values = snippet_values(s, m, **config)
    return tuple(values[name] for name in INTERACTIONS)


def route_events(s, m=None, **config):
    """The snippet's (lane_changes, turns, controls_on_route)."""
    values = snippet_values(s, m, **config)
    return tuple(values[name] for name in ("lane_changes", "turns", "controls_on_route"))


def nudges(s, m=None, **config):
    """The snippet's nudge count."""
    return snippet_values(s, m, **config)["nudges"]


def two_lane_map():
    left = straight_lane("l1", y=3.6, right_neighbor="l0")
    right = straight_lane("l0", y=0.0, left_neighbor="l1")
    return SceneMap(lanes=(right, left))


class TestPathAndSpeed:
    def test_constant_straight_drive(self):
        s = straight_drive()
        assert path_complexity(s) == 0.0
        assert speed_variance(s) == pytest.approx(0.0, abs=1e-18)

    def test_quarter_arc_radius_20(self):
        # 100 equal arcs put every resample station on a vertex, so the
        # measured curvature is not polluted by chord flattening
        pts = arc_points(20.0, 100, center=(0.0, 20.0), start=-np.pi / 2)
        s = drive(pts)
        assert path_complexity(s) == pytest.approx(0.05, abs=2e-3)
        # equal-angle stations give equal chords, hence constant speed
        assert speed_variance(s) < 1e-12

    def test_uniform_speed_ramp(self):
        v = 10.0 * np.arange(249) / 248.0
        x = np.concatenate([[0.0], np.cumsum(v * DT)])
        s = drive(np.column_stack([x, np.zeros(250)]))
        assert path_complexity(s) == 0.0
        # population variance of a uniform 0..10 grid with 249 samples
        expected = 100.0 * 250.0 / (12.0 * 248.0)
        assert speed_variance(s) == pytest.approx(expected, rel=1e-9)

    def test_near_stationary_scores_zero(self):
        s = drive([(0.0, 0.0), (0.2, 0.0), (0.4, 0.0)])
        assert path_complexity(s) == 0.0

    def test_rigid_motion_invariance(self):
        pts = arc_points(30.0, 80, start=0.3, sweep=1.1)
        ref = path_complexity(drive(pts))
        c, s_ = np.cos(1.2), np.sin(1.2)
        moved = pts @ np.array([[c, s_], [-s_, c]]) + np.array([40.0, -7.0])
        assert abs(path_complexity(drive(moved)) - ref) < 1e-9


class TestRouteEvents:
    def test_single_straight_lane(self):
        m = SceneMap(lanes=(straight_lane(),))
        assert route_events(straight_drive(), m) == (0, 0, 0)

    def test_sustained_lane_change(self):
        ys = [0.0] * 30 + [3.6] * 30
        s = drive([(-30.0 + 0.5 * k, ys[k]) for k in range(60)])
        assert route_events(s, two_lane_map()) == (1, 0, 0)

    def test_short_final_dip_ignored(self):
        ys = [0.0] * 55 + [3.6] * 5
        s = drive([(-30.0 + 0.5 * k, ys[k]) for k in range(60)])
        assert route_events(s, two_lane_map()) == (0, 0, 0)

    def test_unrelated_lanes_not_a_change(self):
        # same transition geometry but the lanes are not declared neighbors
        m = SceneMap(lanes=(straight_lane("l0", y=0.0), straight_lane("l1", y=3.6)))
        ys = [0.0] * 30 + [3.6] * 30
        s = drive([(-30.0 + 0.5 * k, ys[k]) for k in range(60)])
        assert route_events(s, m) == (0, 0, 0)

    def test_turn_lane_with_light(self):
        arc = arc_points(20.0, 100, center=(0.0, 20.0), start=-np.pi / 2)
        lane = Lane("turnL", tuple(map(tuple, arc)), turn="left")
        m = SceneMap(
            lanes=(lane,),
            traffic_controls=(TrafficControl("traffic_light", (2.0, 2.0), ("turnL",)),),
        )
        ego = drive(arc_points(20.0, 60, center=(0.0, 20.0), start=-np.pi / 2))
        assert route_events(ego, m) == (0, 1, 1)

    def test_control_on_untraversed_lane_ignored(self):
        m = SceneMap(
            lanes=(straight_lane("l0"), straight_lane("l9", y=40.0)),
            traffic_controls=(TrafficControl("stop_sign", (0.0, 40.0), ("l9",)),),
        )
        assert route_events(straight_drive(), m) == (0, 0, 0)


class TestInteractions:
    def test_empty_scene(self):
        m = SceneMap(lanes=(straight_lane(),))
        assert interactions(straight_drive(), m) == (0, 0, 0, 0)

    def test_parked_car_near_path(self):
        m = SceneMap(lanes=(straight_lane(),))
        dets = constant_detections([make_detection("p1", "vehicle", (5.0, 2.0), 0.0)], 60)
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)], detections=dets)
        assert interactions(s, m, near_dist=5.0) == (1, 0, 0, 0)

    def test_walker_crossing_is_dynamic(self):
        m = SceneMap(lanes=(straight_lane(),))
        dets = [
            (make_detection("w1", "pedestrian", (10.0, 8.0 - 0.2 * k), 2.0),)
            for k in range(60)
        ]
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)], detections=dets)
        near_s, near_d, _, _ = interactions(s, m)
        assert (near_s, near_d) == (0, 1)

    def test_near_dist_monotone(self):
        m = SceneMap(lanes=(straight_lane(),))
        offsets = (2.0, 7.0, 15.0, 30.0)
        dets = constant_detections(
            [
                make_detection(f"p{i}", "vehicle", (5.0, off), 0.0)
                for i, off in enumerate(offsets)
            ],
            60,
        )
        s = drive([(-30.0 + 0.5 * k, 0.0) for k in range(60)], detections=dets)
        counts = [
            sum(interactions(s, m, near_dist=r)[:2]) for r in (1.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[-1] == 4

    def test_track_exactly_at_near_dist_is_not_near(self):
        m = SceneMap(lanes=(straight_lane(),))
        dets = constant_detections([make_detection("p1", "vehicle", (5.0, 5.0), 0.0)], 60)
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)], detections=dets)
        assert interactions(s, m, near_dist=5.0) == (0, 0, 0, 0)
        assert interactions(s, m, near_dist=np.nextafter(5.0, 6.0))[0] == 1

    def conflict_map(self):
        ew = straight_lane("ew")
        ns = vertical_lane("ns", y0=-20.0, y1=20.0)
        feed = vertical_lane("feed", y0=-60.0, y1=-20.0, successors=("ns",))
        return SceneMap(lanes=(ew, ns, feed))

    def test_crossing_vehicle_traverses_conflict_lane(self):
        dets = [
            (make_detection("cross", "vehicle", (0.0, -20.0 + 0.7 * k), 7.0),)
            for k in range(60)
        ]
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)], detections=dets)
        near_s, near_d, trav, reach = interactions(s, self.conflict_map())
        assert trav == 1
        assert near_d == 1
        assert reach == 0

    def test_reachable_depends_on_horizon(self):
        dets = constant_detections(
            [make_detection("wait", "vehicle", (0.0, -40.0), 5.0)], 60
        )
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)], detections=dets)
        m = self.conflict_map()
        # 20 m of feeder lane remain ahead of the waiting car
        assert interactions(s, m, horizon=1.0)[3] == 0
        assert interactions(s, m, horizon=5.0)[3] == 1

    def test_conflict_lanes_without_vehicles(self):
        # both lane tables are projected onto with no detection rows
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)])
        assert interactions(s, self.conflict_map()) == (0, 0, 0, 0)
        # on foot, one crossing the conflict lane and one waiting on its feeder
        dets = [
            (
                make_detection("cross", "pedestrian", (0.0, -20.0 + 0.7 * k), 7.0),
                make_detection("wait", "pedestrian", (0.0, -40.0), 5.0),
            )
            for k in range(60)
        ]
        s = drive([(-30.0 + 1.0 * k, 0.0) for k in range(60)], detections=dets)
        assert interactions(s, self.conflict_map())[2:] == (0, 0)

    def test_no_conflict_without_crossing_lanes(self):
        m = SceneMap(lanes=(straight_lane("a"), straight_lane("b", y=3.6)))
        dets = constant_detections([make_detection("v", "vehicle", (5.0, 3.6), 4.0)], 60)
        s = drive([(-30.0 + 0.5 * k, 0.0) for k in range(60)], detections=dets)
        assert interactions(s, m)[2:] == (0, 0)

    def test_one_batch_of_mixed_routes(self, monkeypatch):
        # two conflict zones in one batch, a route without conflict lanes,
        # and a snippet without tracks between them
        east = [(-30.0 + 1.0 * k, 0.0) for k in range(60)]
        crossing = [(make_detection("cross", "vehicle", (0.0, -20.0 + 0.7 * k), 7.0),) for k in range(60)]
        waiting = constant_detections([make_detection("wait", "vehicle", (0.0, -40.0), 5.0)], 60)
        # north on ns short of ew, so ew is this route's conflict lane: a car
        # on ew east of ns traverses it, and one waiting on feed cannot reach it
        north = [(0.0, -18.0 + 0.25 * k) for k in range(60)]
        along_ew = [
            (
                make_detection("along", "vehicle", (5.0 + 0.5 * k, 0.0), 5.0),
                make_detection("walk", "pedestrian", (3.0, 0.2 * k), 2.0),
                make_detection("wait", "vehicle", (0.0, -40.0), 5.0),
            )
            for k in range(60)
        ]
        on_feed = [(0.0, -58.0 + 0.5 * k) for k in range(60)]
        parked = constant_detections([make_detection("park", "vehicle", (3.0, -45.0), 0.0)], 60)
        snippets = [
            drive(east, "a", detections=crossing),
            drive(east, "b", detections=waiting),
            drive(north, "c", detections=along_ew),
            drive(east, "d"),
            drive(on_feed, "e", detections=parked),
        ]
        index, cfg = MapIndex(self.conflict_map()), CurationConfig()
        monkeypatch.setattr(features, "BATCH_PAIRS", 1 << 62)
        assert [len(b) for b in features._batches(snippets, index)] == [5]
        routes = calls_of(monkeypatch, sdv, "match_route")
        [batched] = features.batch_arrays(snippets, index, cfg)
        [(_, matches)] = routes
        assert [sdv._conflict_lanes(index, m.traversed) for m in matches] == [[1], [1], [0], [1], []]
        got = columns(batched, INTERACTIONS)
        assert got == [(0, 1, 1, 0), (0, 0, 0, 1), (0, 2, 1, 0), (0, 0, 0, 0), (1, 0, 0, 0)]
        for s, counts in zip(snippets, got):
            assert interactions(s, index.scene_map) == counts
            assert ref.interactions(s, index) == counts


class TestNudges:
    def excursion_drive(self, dets=None, offset=1.2):
        ys = [0.0] * 25 + [offset] * 10 + [0.0] * 25
        return drive([(-30.0 + 1.0 * k, ys[k]) for k in range(60)], detections=dets)

    def test_centered_driving(self):
        m = SceneMap(lanes=(straight_lane(),))
        assert nudges(straight_drive(), m) == 0

    def test_planted_excursion_around_parked_car(self):
        # lane half width 1.8 minus ego half width 1.0 leaves 0.8 m of slack
        m = SceneMap(lanes=(straight_lane(),))
        car = constant_detections([make_detection("blk", "vehicle", (0.0, 0.3), 0.0)], 60)
        assert nudges(self.excursion_drive(car), m) == 1

    def test_excursion_without_object_ignored(self):
        m = SceneMap(lanes=(straight_lane(),))
        assert nudges(self.excursion_drive(), m) == 0

    def test_small_offset_stays_in_lane(self):
        m = SceneMap(lanes=(straight_lane(),))
        car = constant_detections([make_detection("blk", "vehicle", (0.0, 0.3), 0.0)], 60)
        assert nudges(self.excursion_drive(car, offset=0.5), m) == 0

    def test_unbounded_excursion_ignored(self):
        m = SceneMap(lanes=(straight_lane(),))
        car = constant_detections([make_detection("blk", "vehicle", (-28.0, 0.3), 0.0)], 60)
        ys = [1.2] * 10 + [0.0] * 50
        s = drive([(-30.0 + 1.0 * k, ys[k]) for k in range(60)], detections=car)
        assert nudges(s, m) == 0

    def test_object_exactly_at_nudge_object_dist_counts(self):
        # 3 m above the excursion's 1.25 m offset, in exact binary fractions
        m = SceneMap(lanes=(straight_lane(),))
        car = constant_detections([make_detection("blk", "vehicle", (0.0, 4.25), 0.0)], 60)
        s = self.excursion_drive(car, offset=1.25)
        assert nudges(s, m, nudge_object_dist=3.0) == 1
        assert nudges(s, m, nudge_object_dist=np.nextafter(3.0, 0.0)) == 0

    def test_object_close_only_outside_the_excursion(self):
        # the excursion runs over frames 25..34
        m = SceneMap(lanes=(straight_lane(),))
        dets = [
            (make_detection("blk", "vehicle", (0.0, 30.0 if 25 <= k < 35 else 0.3), 0.0),)
            for k in range(60)
        ]
        assert nudges(self.excursion_drive(dets), m) == 0

    def test_lane_change_is_not_a_nudge(self):
        m = two_lane_map()
        car = constant_detections([make_detection("blk", "vehicle", (0.0, 0.3), 0.0)], 60)
        ys = [0.0] * 30 + [3.6] * 30
        s = drive([(-30.0 + 1.0 * k, ys[k]) for k in range(60)], detections=car)
        assert nudges(s, m) == 0
        assert route_events(s, m)[0] == 1


class TestKernelCalls:
    MOVERS = (
        ("blk", "vehicle", lambda k: (-13.0, 0.3), 0.0),  # the nudge object
        ("cross", "vehicle", lambda k: (0.0, -20.0 + 0.7 * k), 7.0),
        ("wait", "vehicle", lambda k: (0.0, -40.0), 5.0),
        ("walk", "pedestrian", lambda k: (10.0, 8.0 - 0.2 * k), 2.0),
        ("far", "vehicle", lambda k: (20.0, 40.0), 0.0),
        ("bike", "bicyclist", lambda k: (-25.0 + 0.5 * k, 3.0), 5.0),
        ("feed2", "vehicle", lambda k: (0.5, -55.0 + 0.1 * k), 1.0),
        ("park", "vehicle", lambda k: (15.0, -2.5), 0.0),
    )

    def scored(self, n_tracks, monkeypatch):
        """(project_to_segments calls, feature row) of one snippet with an
        excursion over frames 12..21, on TestInteractions' conflict map."""
        ys = [0.0] * 12 + [1.2] * 10 + [0.0] * 38
        movers = self.MOVERS[:n_tracks]
        dets = [
            tuple(make_detection(tid, label, at(k), v) for tid, label, at, v in movers)
            for k in range(60)
        ]
        s = drive([(-30.0 + 1.0 * k, ys[k]) for k in range(60)], detections=dets)
        calls = []
        real = geometry.project_to_segments

        def counting(points, table):
            calls.append(len(points))
            return real(points, table)

        monkeypatch.setattr(geometry, "project_to_segments", counting)
        vec, _ = features.compute_snippet_features(*measure_args(s, TestInteractions().conflict_map()))
        return len(calls), dict(zip(features.SNIPPET_FEATURE_NAMES, vec.values))

    def test_call_count_does_not_grow_with_tracks(self, monkeypatch):
        one_calls, one = self.scored(1, monkeypatch)
        eight_calls, eight = self.scored(8, monkeypatch)
        assert one["nudges"] == eight["nudges"] == 1.0
        assert eight["conflict_traversals"] == eight["conflict_reachable"] == 1.0
        assert eight["near_path_static"] > one["near_path_static"] == 1.0
        assert one_calls == eight_calls


class TestFeatureBundle:
    def test_quiet_scene_all_zero_and_valid(self):
        m = SceneMap(lanes=(straight_lane(),))
        args = measure_args(straight_drive(), m)
        out = snippet_values(straight_drive(), m)
        assert features.compute_snippet_features(*args)[0].valid
        assert out["sdv_path"] == 0.0
        assert out["lane_changes"] == 0.0
        assert out["nudges"] == 0.0

    def test_off_map_drive_flagged_invalid(self):
        m = SceneMap(lanes=(straight_lane(),))
        s = straight_drive(y=50.0)
        out = features.compute_snippet_features(*measure_args(s, m))[0]
        assert not out.valid

    def test_empty_map_flagged_invalid(self):
        # with no drivable lanes nothing can sit within the matching gate,
        # so the snippet must come back unrankable rather than zero-scored
        out = features.compute_snippet_features(*measure_args(straight_drive(), SceneMap()))[0]
        assert not out.valid
