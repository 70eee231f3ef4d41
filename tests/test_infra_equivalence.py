"""The infrastructure row against its per-element loop reference.

`infra_features` counts the map elements in the ROI through masks over one
batch table of ego-to-element distances (`MapIndex.elements`);
`reference_measures.infra_row` tests each intersection, crosswalk, traffic
control and height sample on its own. Rows must be equal (`==`). On the
synthetic maps the ego drives through every intersection and crosswalk and
passes every control within 15 m, so elements leave the ROI at the small
radii (every control at 5 m, height samples, 0.5 m off the road, at 0.5 m)
and on the four-way map tiled 3 x 3, 400 m apart, at every radius.
"""

import numpy as np
import pytest

import reference_measures as ref
from logcurator import features, synthgen
from logcurator.scene import MapIndex, SceneMap
from logcurator.selection import CurationConfig

from support import INFRA, calls_of, columns, drive, square_intersection, straight_lane, tile_map, vertical_lane
from test_measure_equivalence import synth_pool

KINDS = ("intersection", "crosswalk", "control", "height")


def cases():
    """(snippets, map) of every template under two plans, and of the turns
    on the tiled four-way map."""
    for template in synthgen.TEMPLATES:
        for plan in ("cruise", "turn"):
            pool = synth_pool(template, plan, seed=len(template) + len(plan))
            yield pool.snippets, pool.scene_map
            if template == "four_way_intersection" and plan == "turn":
                yield pool.snippets, tile_map(pool.scene_map, 3)


def infra_rows(snippets, index, config, monkeypatch):
    """(infrastructure row by name, nearest ego approach to each element) of
    each of `snippets`, scored in batches."""
    calls = calls_of(monkeypatch, features, "infra_features")
    rows = [row for batch in features.batch_arrays(snippets, index, config) for row in columns(batch, INFRA)]
    element_dist = np.concatenate([args[1] for args, _ in calls])
    monkeypatch.undo()
    return [dict(zip(INFRA, row)) for row in rows], element_dist


@pytest.mark.parametrize("roi_radius", [75.0, 15.0, 5.0, 0.5])
def test_infra_rows_match_loop_reference(roi_radius, monkeypatch):
    config = CurationConfig(roi_radius=roi_radius)
    seen = dict.fromkeys(KINDS, 0)  # element x snippet pairs, and how many are beyond the radius
    out = dict.fromkeys(KINDS, 0)
    for snippets, scene_map in cases():
        index = MapIndex(scene_map)
        rows, element_dist = infra_rows(snippets, index, config, monkeypatch)
        for s, got, near in zip(snippets, rows, element_dist, strict=True):
            assert got == ref.infra_row(s, index, roi_radius, config.resample_points)
            for kind in KINDS:
                dist = near[index.element_rows[kind]]
                seen[kind] += len(dist)
                out[kind] += int(np.count_nonzero(dist > roi_radius))
    # the other tiles' rings are beyond every radius, the first tile's within
    assert all(0 < out[kind] < seen[kind] for kind in ("intersection", "crosswalk"))
    assert 0 < out["control"] and (out["control"] == seen["control"]) == (roi_radius <= 5.0)
    assert 0 < seen["height"] and (out["height"] > 0) == (roi_radius < 1.0)


def test_rings_around_the_ego_are_in_at_any_radius(monkeypatch):
    # every ring vertex and edge is 20 m or more from the ego, which is inside
    walk = ((-20.0, -20.0), (20.0, -20.0), (20.0, 20.0), (-20.0, 20.0))
    m = SceneMap(
        lanes=(straight_lane(), vertical_lane()),
        intersections=(square_intersection(half=30.0),),
        crosswalks=(walk,),
    )
    s = drive([(0.0, 0.0), (1.0, 0.0)])
    index, config = MapIndex(m), CurationConfig(roi_radius=5.0)
    [got], element_dist = infra_rows([s], index, config, monkeypatch)
    assert np.all(element_dist > 5.0)
    assert got == ref.infra_row(s, index, 5.0, config.resample_points)
    assert got["intersection_roads"] == 4.0 and got["crosswalk_lane_overlaps"] == 2.0
