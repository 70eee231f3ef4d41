import numpy as np
import pytest

from logcurator.scene import Lane, SceneMap, TrafficControl

from support import (
    INFRA,
    arc_points,
    cross_map,
    drive,
    make_detection,
    snippet_values,
    square_intersection,
    straight_lane,
    vertical_lane,
)


def infra_row(s, m, **config):
    """The snippet's infrastructure measures by name."""
    values = snippet_values(s, m, **config)
    return {name: values[name] for name in INFRA}


def ego_at_origin(n=3):
    return drive([(0.1 * k, 0.0) for k in range(n)])


def test_flat_straight_scene_all_zero():
    m = SceneMap(lanes=(straight_lane(),))
    out = infra_row(ego_at_origin(), m)
    assert all(v == 0.0 for v in out.values())


def test_perpendicular_lanes_with_stop_sign():
    # one geometric crossing, counted once per ordered lane pair
    out = infra_row(ego_at_origin(), cross_map(sign=True))
    assert out["crossing_total"] == 2.0
    assert out["signs"] == 1.0
    assert out["traffic_lights"] == 0.0


def test_four_way_crossing_total():
    lanes = (
        straight_lane("ew1", y=1.0),
        straight_lane("ew2", y=-1.0),
        vertical_lane("ns1", x=1.0),
        vertical_lane("ns2", x=-1.0),
    )
    out = infra_row(ego_at_origin(), SceneMap(lanes=lanes))
    assert out["crossing_total"] == 8.0


def test_height_variance_two_level_ground():
    samples = tuple((float(x), 0.0, float(z)) for x, z in [(1, 0), (2, 1), (3, 0), (4, 1)])
    m = SceneMap(height_samples=samples)
    out = infra_row(ego_at_origin(), m)
    assert out["height_var"] == pytest.approx(0.25, abs=1e-12)


def test_intersection_record_counts():
    m = SceneMap(
        intersections=(square_intersection(incoming=4, lanes_per_road=(2, 2, 1, 1)),)
    )
    out = infra_row(ego_at_origin(), m)
    assert out["intersection_roads"] == 4.0
    assert out["intersection_lanes"] == 6.0
    assert out["at_intersection"] == 1.0


def test_at_intersection_requires_entry():
    m = SceneMap(intersections=(square_intersection(half=5.0),))
    outside = drive([(20.0, 20.0), (21.0, 20.0)])
    entering = drive([(20.0, 0.0), (4.0, 0.0)][::-1])
    assert infra_row(outside, m)["at_intersection"] == 0.0
    assert infra_row(entering, m)["at_intersection"] == 1.0


def test_control_kinds_split():
    m = SceneMap(
        lanes=(straight_lane(),),
        traffic_controls=(
            TrafficControl("traffic_light", (5.0, 3.0), ("lane0",)),
            TrafficControl("stop_sign", (-5.0, 3.0), ("lane0",)),
            TrafficControl("yield_sign", (0.0, -4.0), ("lane0",)),
        ),
    )
    out = infra_row(ego_at_origin(), m)
    assert out["traffic_lights"] == 1.0
    assert out["signs"] == 2.0


def test_curve_mean_matches_arc_radius():
    arc = Lane("arc", tuple(map(tuple, arc_points(20.0, 100))))
    out = infra_row(ego_at_origin(), SceneMap(lanes=(arc,)))
    assert out["curve_mean"] == pytest.approx(0.05, abs=2e-3)


def test_bike_lane_split():
    bike = Lane(
        "bk", tuple(map(tuple, arc_points(20.0, 100))), is_bike_lane=True
    )
    veh = straight_lane("v1", y=-30.0)
    out = infra_row(ego_at_origin(), SceneMap(lanes=(bike, veh)))
    assert out["curve_mean"] == 0.0
    assert out["bike_curve"] == pytest.approx(0.05, abs=2e-3)


def test_bike_crossing_counts_vehicle_conflicts():
    bike = Lane("bk", ((-50.0, -1.0), (50.0, 1.0)), is_bike_lane=True)
    out = infra_row(ego_at_origin(), SceneMap(lanes=(bike, straight_lane())))
    assert out["bike_crossing"] == 1.0
    assert out["crossing_total"] == 0.0


def test_crosswalk_lane_overlap_pairs():
    walk_on = ((-2.0, -3.0), (2.0, -3.0), (2.0, 3.0), (-2.0, 3.0))
    walk_off = ((40.0, 20.0), (44.0, 20.0), (44.0, 26.0), (40.0, 26.0))
    m = SceneMap(lanes=(straight_lane(), vertical_lane()), crosswalks=(walk_on, walk_off))
    out = infra_row(ego_at_origin(), m)
    assert out["crosswalk_lane_overlaps"] == 2.0


def test_roi_growth_never_drops_counts():
    m = SceneMap(
        lanes=(
            straight_lane("near"),
            straight_lane("mid", y=90.0),
            vertical_lane("far_v", x=160.0, y0=80.0, y1=240.0),
            straight_lane("far_h", y=160.0, x0=80.0, x1=240.0),
        ),
        traffic_controls=(
            TrafficControl("stop_sign", (50.0, 0.0), ("near",)),
            TrafficControl("traffic_light", (120.0, 0.0), ("near",)),
        ),
        crosswalks=((((-2.0, 88.0)), (2.0, 88.0), (2.0, 92.0), (-2.0, 92.0)),),
        height_samples=((10.0, 0.0, 0.3), (100.0, 0.0, 0.9)),
    )
    ego = ego_at_origin()
    count_fields = (
        "crossing_total",
        "intersection_roads",
        "intersection_lanes",
        "traffic_lights",
        "signs",
        "bike_crossing",
        "crosswalk_lane_overlaps",
    )
    prev = None
    for radius in (10.0, 40.0, 75.0, 120.0, 300.0):
        cur = infra_row(ego, m, roi_radius=radius)
        if prev is not None:
            for name in count_fields:
                assert cur[name] >= prev[name]
        prev = cur


def test_detections_do_not_affect_output():
    m = cross_map(sign=True, light=True)
    bare = ego_at_origin()
    dets = [
        (make_detection("t1", "vehicle", (3.0, 1.0), speed=9.0),),
        (make_detection("t1", "vehicle", (4.0, 1.0), speed=9.0),),
        (make_detection("t1", "vehicle", (5.0, 1.0), speed=9.0),),
    ]
    crowded = drive([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)], detections=dets)
    assert infra_row(bare, m) == infra_row(crowded, m)


def test_empty_map_scores_zero():
    out = infra_row(ego_at_origin(), SceneMap())
    assert all(v == 0.0 for v in out.values())
