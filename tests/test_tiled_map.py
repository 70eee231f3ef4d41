"""Map tables and snippet scores on a template map tiled beyond reach.

`support.tile_map` repeats the dense-score four-way map k x k, 400 m apart,
with lane ids suffixed per tile. `MapIndex`'s crossing and crosswalk tables
must equal tables built pair by pair, the crosswalk test by its scalar copy
in `reference_measures.py`; and the snippets driven on the first tile must
score the same, bit for bit, on the 1 x 1 and the 3 x 3 map, since no
measure reaches 400 m. Both hold for any future pruning of map work by
distance, which these comparisons check.
"""

import numpy as np
import pytest

import reference_measures as ref
from logcurator import features, geometry, synthgen
from logcurator.scene import MapIndex, validate_map
from logcurator.selection import CurationConfig

from support import tile_map

TILES = (1, 3)


@pytest.fixture(scope="module")
def pool():
    spec = synthgen.default_spec(
        "four_way_intersection", "turn", seed=3, n_snippets=4, num_frames=60,
        jitter=True, overlap_every=2, bicycle_every=5,
    )
    return synthgen.generate_pool(spec)[0]


@pytest.fixture(scope="module")
def tiled(pool):
    return {k: tile_map(pool.scene_map, k) for k in TILES}


@pytest.mark.parametrize("k", TILES)
def test_map_tables_equal_pairwise_tables(tiled, k):
    m = tiled[k]
    assert validate_map(m) == ()
    lanes = [geometry.dedupe_points(np.asarray(lane.centerline, dtype=float)) for lane in m.lanes]
    crossings = np.array(
        [[0 if a is b else geometry.count_polyline_crossings(a, b) for b in lanes] for a in lanes]
    )
    hits = np.array(
        [[ref.polygon_polyline_intersects(np.asarray(p, dtype=float), lane) for lane in lanes]
         for p in m.crosswalks],
        dtype=bool,
    )
    # each tile's lanes cross and meet its crosswalk, and no other tile's
    assert np.count_nonzero(crossings) > 0 and np.count_nonzero(hits) > 0
    lane_tile = np.arange(len(lanes)) // (len(lanes) // k**2)
    walk_tile = np.arange(len(m.crosswalks)) // (len(m.crosswalks) // k**2)
    assert not crossings[lane_tile[:, None] != lane_tile].any()
    assert not hits[walk_tile[:, None] != lane_tile].any()
    index = MapIndex(m)
    assert index.crossing_matrix.dtype == crossings.dtype
    assert np.array_equal(index.crossing_matrix, crossings)
    assert index.crosswalk_lane_hits.dtype == bool
    assert np.array_equal(index.crosswalk_lane_hits, hits)


def test_first_tile_snippets_score_alike_on_every_tiling(pool, tiled):
    bundles = [
        features.score_pool(pool._replace(scene_map=tiled[k]), CurationConfig())
        for k in TILES
    ]
    one, many = bundles
    assert one.ids == many.ids and one.valid.all()
    assert np.array_equal(one.matrix, many.matrix)
    assert np.array_equal(one.valid, many.valid)
    for sid in one.ids:
        assert np.array_equal(one.frame_mats[sid], many.frame_mats[sid])
