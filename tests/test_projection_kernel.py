"""The segment-table projection kernel against the einsum oracle.

The kernel must reproduce the einsum projection kept in
`reference_measures.py` bit for bit (`==`), degenerate polylines and ties
included, because every stored feature goes through it.
"""

import numpy as np
import pytest

import reference_measures as ref
from logcurator import geometry, synthgen
from logcurator.scene import MapIndex, SceneMap

from support import project_one, straight_lane, vertical_lane


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


def random_polyline(rng, k):
    scale = 10.0 ** rng.uniform(-2, 3)
    poly = np.cumsum(rng.normal(size=(k, 2)), axis=0) * scale
    return np.round(poly) if rng.random() < 0.3 else poly


def test_kernel_matches_einsum_copy_on_random_point_sets():
    rng = np.random.default_rng(5)
    for _ in range(400):
        poly = random_polyline(rng, int(rng.integers(2, 40)))
        pts = poly[rng.integers(len(poly), size=int(rng.integers(1, 30)))]
        pts = pts + rng.normal(size=pts.shape) * rng.uniform(0.0, 20.0)
        cumlen = geometry.cumulative_arclength(poly) if rng.random() < 0.5 else None
        assert_same(
            project_one(pts, poly, cumlen),
            ref.project_points_to_polyline(pts, poly, cumlen),
        )


DEGENERATE = {
    "single_point": ([(3.0, -2.0)], [(0.0, 0.0), (3.0, -2.0), (7.5, 1.25)]),
    "repeated_vertex": (
        [(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 3.0)],
        [(4.0, 0.0), (5.0, -1.0), (2.0, 1.0), (4.0, 1.5)],
    ),
    "only_repeated_points": ([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], [(1.0, 1.0), (4.0, 5.0)]),
    "sub_epsilon_segment": (
        [(0.0, 0.0), (1e-7, 0.0), (1e-7, 2.0)],
        [(0.0, 0.0), (5e-8, 1.0), (-1.0, -1.0), (1e-7, 3.0)],
    ),
    "points_on_vertices": (
        [(0.0, 0.0), (2.5, 1.0), (6.0, -0.5), (9.0, 4.0)],
        [(0.0, 0.0), (2.5, 1.0), (6.0, -0.5), (9.0, 4.0)],
    ),
    # (5, 2) is 2 m from the bottom and the top leg of a U, (5, 5) is 5 m
    # from both legs of an L, (10, 0) is the shared corner
    "equidistant_u": (
        [(0.0, 0.0), (10.0, 0.0), (10.0, 4.0), (0.0, 4.0)],
        [(5.0, 2.0), (2.0, 2.0), (12.0, 2.0)],
    ),
    "equidistant_l": (
        [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)],
        [(5.0, 5.0), (10.0, 0.0), (12.0, -2.0)],
    ),
    "closed_ring": (
        [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
        [(2.0, 2.0), (0.0, 0.0), (-1.0, -1.0)],
    ),
    # a map file may carry a NaN vertex: the first NaN segment wins, as in argmin
    "nan_vertex": (
        [(0.0, 0.0), (float("nan"), 1.0), (4.0, 0.0), (5.0, 5.0)],
        [(1.0, 1.0), (4.0, 0.0)],
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_kernel_matches_einsum_copy_on_degenerate_polylines(name):
    poly, pts = (np.array(a, dtype=float) for a in DEGENERATE[name])
    assert_same(
        project_one(pts, poly),
        ref.project_points_to_polyline(pts, poly),
    )


def test_equidistant_points_take_the_first_segment():
    poly = np.array(DEGENERATE["equidistant_u"][0])
    dist, arc = project_one(np.array([(5.0, 2.0)]), poly)
    assert dist.tolist() == [2.0] and arc.tolist() == [5.0]


def test_multi_polyline_table_matches_per_polyline_copy():
    rng = np.random.default_rng(9)
    degenerate = [np.array(poly, dtype=float) for poly, _ in DEGENERATE.values()]
    for _ in range(60):
        polys = [random_polyline(rng, int(rng.integers(2, 12))) for _ in range(4)]
        polys += [degenerate[int(i)] for i in rng.integers(len(degenerate), size=3)]
        polys = [polys[int(i)] for i in rng.permutation(len(polys))]
        pts = np.vstack([rng.normal(size=(int(rng.integers(1, 25)), 2)) * 50.0, polys[0][:2]])
        table = geometry.SegmentTable.from_polylines(polys, [None] * len(polys))
        dist, arc = geometry.project_to_segments(pts, table)
        for row, poly in enumerate(polys):
            assert_same((dist[row], arc[row]), ref.project_points_to_polyline(pts, poly))
        rows = rng.permutation(len(polys))[:3]
        subset = geometry.SegmentTable.from_polylines([polys[i] for i in rows], [None] * len(rows))
        assert_same(geometry.project_to_segments(pts, subset), (dist[rows], arc[rows]))



@pytest.mark.parametrize("pairs", [1, 7, 64, 65, 1000])
def test_blocks_of_points_match_per_polyline_copy(monkeypatch, pairs):
    # 64 segments: blocks of one point, of one point again (65 // 64), of
    # several points with a short last block, and of every point at once
    monkeypatch.setattr(geometry, "BLOCK_PAIRS", pairs)
    rng = np.random.default_rng(pairs)
    polys = [random_polyline(rng, 16) for _ in range(4)] + [np.array([(3.0, -2.0)])] * 4
    table = geometry.SegmentTable.from_polylines(polys, [None] * len(polys))
    assert len(table.x0) == 64
    pts = rng.normal(size=(13, 2)) * 50.0
    dist, arc = geometry.project_to_segments(pts, table)
    for row, poly in enumerate(polys):
        assert_same((dist[row], arc[row]), ref.project_points_to_polyline(pts, poly))
    dist, arc = geometry.project_to_segments(np.zeros((0, 2)), table)
    assert dist.shape == arc.shape == (len(polys), 0)

def degenerate_map():
    """Lanes of one point, of repeated points and of sub-epsilon segments."""
    lanes = [
        straight_lane("a", y=2.0, x0=-30.0, x1=30.0, n=7),
        straight_lane("point", y=5.0, x0=4.0, x1=4.0),
        vertical_lane("b", x=1.0, y0=-20.0, y1=20.0, n=3),
        straight_lane("tiny", y=-3.0, x0=0.0, x1=1e-7),
        straight_lane("c", y=-2.0, x0=-30.0, x1=30.0, n=4),
    ]
    return SceneMap(lanes=tuple(lanes))


def template_map(template):
    spec = synthgen.default_spec(
        template, "cruise", seed=len(template) + 6, n_snippets=4, num_frames=30, jitter=True
    )
    return synthgen.generate_pool(spec)[0].scene_map


@pytest.mark.parametrize("template", synthgen.TEMPLATES + ("degenerate",))
def test_project_to_lanes_matches_per_lane_copy(template):
    index = MapIndex(degenerate_map() if template == "degenerate" else template_map(template))
    rng = np.random.default_rng(len(template))
    every = np.vstack(index.lane_pts)
    lo, hi = every.min(axis=0), every.max(axis=0)
    pts = np.vstack([rng.uniform(lo - 5.0, hi + 5.0, size=(40, 2)), index.lane_pts[0][:5]])
    n = len(index.lane_pts)
    tables = [(range(n), index.segments), (index.vehicle_indices, index.vehicle_segments)]
    for lanes in (rng.permutation(n), [n - 1, 0]):
        pts_of, cumlen_of = ([lane[i] for i in lanes] for lane in (index.lane_pts, index.lane_cumlen))
        tables.append((lanes, geometry.SegmentTable.from_polylines(pts_of, cumlen_of)))
    for lanes, table in tables:
        dist, arc = geometry.project_to_segments(pts, table)
        for row, li in enumerate(lanes):
            want = ref.project_points_to_polyline(pts, index.lane_pts[li], index.lane_cumlen[li])
            assert np.array_equal(dist[row], want[0]) and np.array_equal(arc[row], want[1])
