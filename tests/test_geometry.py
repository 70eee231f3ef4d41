import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import geometry

from support import circle_points, curve_complexity, project_one


def clothoid_points(kappa_rate=0.004, length=50.0, n=2001):
    """Curve whose curvature rises linearly from 0 at the given rate.

    Heading is the integral of curvature, theta(s) = kappa_rate * s^2 / 2;
    positions come from trapezoid integration of (cos theta, sin theta).
    """
    s = np.linspace(0.0, length, n)
    theta = 0.5 * kappa_rate * s * s
    ds = np.diff(s)
    x = np.concatenate([[0.0], np.cumsum(ds * 0.5 * (np.cos(theta[:-1]) + np.cos(theta[1:])))])
    y = np.concatenate([[0.0], np.cumsum(ds * 0.5 * (np.sin(theta[:-1]) + np.sin(theta[1:])))])
    return np.column_stack([x, y])


class TestResample:
    def test_segment_uniform_stations(self):
        path = ref.resample_arclength([(0.0, 0.0), (10.0, 0.0)], 11)
        np.testing.assert_allclose(path.points[:, 0], np.arange(11.0), atol=1e-12)
        np.testing.assert_allclose(path.points[:, 1], 0.0, atol=1e-12)

    def test_l_shape_unit_spacing(self):
        corner = [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)]
        path = ref.resample_arclength(corner, 21)
        steps = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
        np.testing.assert_allclose(steps, 1.0, atol=1e-9)
        np.testing.assert_allclose(path.points[10], [10.0, 0.0], atol=1e-9)

    def test_circle_stays_on_radius(self):
        # stations interpolate the 1-degree chords, whose sagitta is
        # r * (1 - cos(pi/360)) ~ 3.8e-4, so 5e-4 is the honest bound
        path = ref.resample_arclength(circle_points(10.0, 360), 100)
        radii = np.linalg.norm(path.points, axis=1)
        assert np.max(np.abs(radii - 10.0)) < 5e-4

    def test_endpoints_preserved(self):
        pts = [(1.0, 2.0), (4.0, 6.0), (-2.0, 3.0)]
        path = ref.resample_arclength(pts, 7)
        np.testing.assert_allclose(path.points[0], pts[0], atol=1e-12)
        np.testing.assert_allclose(path.points[-1], pts[-1], atol=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(-50.0, 50.0, allow_nan=False),
                st.floats(-50.0, 50.0, allow_nan=False),
            ),
            min_size=2,
            max_size=10,
        ),
        st.integers(3, 40),
    )
    def test_length_preserved(self, raw, K):
        pts = geometry.dedupe_points(np.asarray(raw))
        path = ref.Path.from_points(pts) if len(pts) >= 2 else None
        if path is None or path.length < 1e-6:
            return
        out = ref.resample_arclength(path, K)
        assert out.length == pytest.approx(path.length, rel=1e-9)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            ref.resample_arclength([(1.0, 1.0), (1.0, 1.0)], 5)

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            ref.resample_arclength([(0.0, 0.0), (1.0, 0.0)], 1)


def test_cumulative_arclength_simple():
    out = geometry.cumulative_arclength(np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]))
    np.testing.assert_allclose(out, [0.0, 3.0, 7.0])


def test_dedupe_points_drops_repeats():
    pts = np.array([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    out = geometry.dedupe_points(pts)
    np.testing.assert_allclose(out, [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])


class TestCurvature:
    def test_straight_line_zero(self):
        pts = np.column_stack([np.linspace(0, 30, 40), np.linspace(0, 40, 40)])
        prof = ref.curvature_profile(pts, 50)
        np.testing.assert_allclose(prof.kappa, 0.0, atol=1e-12)
        np.testing.assert_allclose(prof.kappa_dot, 0.0, atol=1e-12)

    def test_circle_kappa_near_inverse_radius(self):
        prof = ref.curvature_profile(circle_points(10.0, 3600), 100)
        assert np.max(np.abs(np.abs(prof.kappa[1:-1]) - 0.1)) < 1e-3

    def test_counterclockwise_is_positive(self):
        prof = ref.curvature_profile(circle_points(10.0, 3600), 100)
        assert np.all(prof.kappa[1:-1] > 0)
        clockwise = circle_points(10.0, 3600)[::-1]
        prof_cw = ref.curvature_profile(clockwise, 100)
        assert np.all(prof_cw.kappa[1:-1] < 0)

    def test_linear_kappa_rate(self):
        prof = ref.curvature_profile(clothoid_points(), 100)
        interior = prof.kappa_dot[2:-2]
        np.testing.assert_allclose(interior, 0.004, atol=4e-4)

    def test_profile_length_matches_k(self):
        prof = ref.curvature_profile(circle_points(5.0, 100), 37)
        assert len(prof.kappa) == len(prof.kappa_dot) == len(prof.arclength) == 37


# a coarse lattice: repeated points, exactly collinear runs and exact zero
# lengths come up often
LATTICE = st.integers(-3, 3).map(lambda v: 0.5 * v)
POINT = st.tuples(LATTICE, LATTICE)


@st.composite
def lattice_path(draw):
    """A lattice path: a free walk, a run along one line, at most two
    distinct points, or one point repeated; any of them may repeat points."""
    kind = draw(st.sampled_from(["walk", "line", "two", "point"]))
    if kind == "walk":
        pts = draw(st.lists(POINT, min_size=1, max_size=12))
    elif kind == "line":  # back and forth along one line through o
        (ox, oy), (dx, dy) = draw(POINT), draw(POINT)
        steps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=12))
        pts = [(ox + k * dx, oy + k * dy) for k in steps]
    elif kind == "two":
        pts = draw(st.lists(st.sampled_from([draw(POINT), draw(POINT)]), min_size=1, max_size=12))
    else:
        pts = [draw(POINT)] * draw(st.integers(1, 6))
    repeats = draw(st.lists(st.integers(1, 3), min_size=len(pts), max_size=len(pts)))
    return np.array([p for p, r in zip(pts, repeats) for _ in range(r)], dtype=float)


@settings(max_examples=400)
@given(
    st.lists(lattice_path(), min_size=1, max_size=8),
    st.sampled_from([3, 4, 7, 100]),
    st.sampled_from([1, 5, 64, 1 << 16]),
)
@example([np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]), np.array([(-0.0, 0.0), (0.0, 0.0)])], 3, 1)
def test_curve_pass_equals_per_path_reference(paths, K, cap):
    """One pass over padded paths, in blocks of any cap, gives each path's
    per-path curve complexity bit for bit, and its distinct-point mask."""
    saved = geometry.CURVE_VALUES
    geometry.CURVE_VALUES = cap  # blocks of one path up to one block
    try:
        curves, few = geometry.curve_complexities(paths, K)
    finally:
        geometry.CURVE_VALUES = saved
    assert np.array_equal(curves, [ref.curve_complexity(p, K) for p in paths])
    assert few.tolist() == [len(np.unique(p, axis=0)) < 3 for p in paths]


def test_curve_pass_without_paths_and_below_three_stations():
    curves, few = geometry.curve_complexities([], 100)
    assert curves.shape == few.shape == (0,)
    with pytest.raises(ValueError):
        geometry.curve_complexities([circle_points(10.0, 36)], 2)


class TestCurveComplexity:
    def test_straight_is_exactly_zero(self):
        pts = np.column_stack([np.linspace(0, 100, 17), np.linspace(0, 50, 17)])
        assert curve_complexity(pts) == 0.0

    def test_circle_r10(self):
        value = curve_complexity(circle_points(10.0, 3600), 100)
        assert value == pytest.approx(0.1, abs=2e-3)

    def test_linear_kappa_curve(self):
        # mean |kappa| of the 0 -> 0.2 ramp is 0.1, mean |kappa_dot| is 0.004
        value = curve_complexity(clothoid_points(), 100)
        assert value == pytest.approx(0.104, abs=2e-3)

    def test_rigid_motion_invariance(self):
        base = clothoid_points(0.01, 40.0, 801)
        base_value = curve_complexity(base, 100)
        c, s = np.cos(0.7), np.sin(0.7)
        rot = base @ np.array([[c, s], [-s, c]]) + np.array([13.0, -4.5])
        assert abs(curve_complexity(rot, 100) - base_value) < 1e-9

    @given(
        st.floats(-np.pi, np.pi, allow_nan=False),
        st.floats(-200.0, 200.0, allow_nan=False),
        st.floats(-200.0, 200.0, allow_nan=False),
    )
    def test_rigid_motion_invariance_random(self, angle, tx, ty):
        base = circle_points(10.0, 360)
        base_value = curve_complexity(base, 100)
        c, s = np.cos(angle), np.sin(angle)
        moved = base @ np.array([[c, s], [-s, c]]) + np.array([tx, ty])
        assert abs(curve_complexity(moved, 100) - base_value) < 1e-9

    def test_scaling_halves_curvature(self):
        small = curve_complexity(circle_points(10.0, 3600), 100)
        large = curve_complexity(circle_points(20.0, 3600), 100)
        assert small / large == pytest.approx(2.0, abs=1e-3)

    def test_degenerate_scores_zero(self):
        assert curve_complexity(np.array([(2.0, 2.0), (2.0, 2.0)])) == 0.0
        assert curve_complexity(np.array([(2.0, 2.0)])) == 0.0


class TestCrossings:
    def test_parallel_lines_zero(self):
        a = np.array([(-10.0, 0.0), (10.0, 0.0)])
        b = np.array([(-10.0, 3.0), (10.0, 3.0)])
        assert geometry.count_polyline_crossings(a, b) == 0

    def test_perpendicular_cross_once(self):
        a = np.array([(-10.0, 0.0), (10.0, 0.0)])
        b = np.array([(0.0, -10.0), (0.0, 10.0)])
        assert geometry.count_polyline_crossings(a, b) == 1

    def test_shared_endpoint_does_not_count(self):
        a = np.array([(0.0, 0.0), (5.0, 0.0)])
        b = np.array([(5.0, 0.0), (8.0, 4.0)])
        assert geometry.count_polyline_crossings(a, b) == 0

    def test_tangential_touch_does_not_count(self):
        a = np.array([(-5.0, 0.0), (5.0, 0.0)])
        b = np.array([(-5.0, 3.0), (0.0, 0.0), (5.0, 3.0)])
        assert geometry.count_polyline_crossings(a, b) == 0

    def test_four_way_ordered_pairs_total_eight(self):
        # two east-west and two north-south paths: every EW/NS pair crosses
        # once, and summing over ordered pairs counts each crossing twice
        ew1 = np.array([(-20.0, 1.0), (20.0, 1.0)])
        ew2 = np.array([(-20.0, -1.0), (20.0, -1.0)])
        ns1 = np.array([(1.0, -20.0), (1.0, 20.0)])
        ns2 = np.array([(-1.0, -20.0), (-1.0, 20.0)])
        lanes = [ew1, ew2, ns1, ns2]
        total = sum(
            geometry.count_polyline_crossings(ci, cj)
            for i, ci in enumerate(lanes)
            for j, cj in enumerate(lanes)
            if i != j
        )
        assert total == 8

    def test_zigzag_multiple_crossings(self):
        a = np.array([(-10.0, 0.0), (10.0, 0.0)])
        b = np.array([(-8.0, -2.0), (-4.0, 2.0), (0.0, -2.0), (4.0, 2.0)])
        assert geometry.count_polyline_crossings(a, b) == 3

    @given(st.data())
    def test_reversal_invariance(self, data):
        # integer lattice keeps every cross product exact, so the strict
        # transversality predicate cannot flip under operand reordering
        n_a = data.draw(st.integers(2, 6))
        n_b = data.draw(st.integers(2, 6))
        coord = st.integers(-20, 20)
        a = np.array([data.draw(st.tuples(coord, coord)) for _ in range(n_a)], dtype=float)
        b = np.array([data.draw(st.tuples(coord, coord)) for _ in range(n_b)], dtype=float)
        count = geometry.count_polyline_crossings(a, b)
        assert geometry.count_polyline_crossings(a[::-1], b) == count
        assert geometry.count_polyline_crossings(a, b[::-1]) == count
        assert geometry.count_polyline_crossings(b, a) == count


class TestSegmentsIntersect:
    def test_proper_cross(self):
        assert geometry.segments_intersect((-1, 0), (1, 0), (0, -1), (0, 1))

    def test_disjoint(self):
        assert not geometry.segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_endpoint_touch_counts(self):
        assert geometry.segments_intersect((0, 0), (1, 0), (1, 0), (2, 1))

    def test_collinear_overlap_counts(self):
        assert geometry.segments_intersect((0, 0), (4, 0), (2, 0), (6, 0))


def point_distance(point, poly):
    dist, _ = project_one(np.array([point], dtype=float), poly)
    return float(dist[0])


class TestPointDistances:
    def test_point_on_path(self):
        seg = np.array([(-10.0, 0.0), (10.0, 0.0)])
        assert point_distance((3.0, 0.0), seg) == pytest.approx(0.0)

    def test_perpendicular_foot(self):
        seg = np.array([(-10.0, 0.0), (10.0, 0.0)])
        assert point_distance((0.0, 5.0), seg) == pytest.approx(5.0)

    def test_beyond_endpoint(self):
        seg = np.array([(-10.0, 0.0), (10.0, 0.0)])
        value = point_distance((15.0, 5.0), seg)
        assert value == pytest.approx(np.sqrt(50.0))

    def test_min_distance_over_batch(self):
        seg = np.array([(0.0, 0.0), (10.0, 0.0)])
        pts = np.array([(5.0, 7.0), (2.0, 3.0), (20.0, 0.0)])
        dist, _ = project_one(pts, seg)
        assert float(np.min(dist)) == pytest.approx(3.0)

    def test_projection_arc_position(self):
        corner = np.array([(0.0, 0.0), (10.0, 0.0), (10.0, 10.0)])
        dist, arc = project_one(np.array([(11.0, 4.0)]), corner)
        assert dist[0] == pytest.approx(1.0)
        assert arc[0] == pytest.approx(14.0)


class TestPolygons:
    square = np.array([(-5.0, -5.0), (5.0, -5.0), (5.0, 5.0), (-5.0, 5.0)])

    def test_path_through_center(self):
        line = np.array([(-10.0, 0.0), (10.0, 0.0)])
        assert geometry.polygon_polyline_intersects(self.square, line)

    def test_path_outside(self):
        line = np.array([(-10.0, 9.0), (10.0, 9.0)])
        assert not geometry.polygon_polyline_intersects(self.square, line)

    def test_path_tangent_to_edge(self):
        line = np.array([(-10.0, 5.0), (10.0, 5.0)])
        assert geometry.polygon_polyline_intersects(self.square, line)

    def test_points_in_polygon(self):
        pts = np.array([(0.0, 0.0), (6.0, 0.0), (5.0, 0.0), (-4.9, -4.9)])
        inside = geometry.points_in_polygon(pts, self.square)
        assert inside.tolist() == [True, False, True, True]

    def test_simple_polygon(self):
        assert geometry.polygon_is_simple(self.square)

    def test_bowtie_is_not_simple(self):
        bowtie = np.array([(0.0, 0.0), (4.0, 4.0), (4.0, 0.0), (0.0, 4.0)])
        assert not geometry.polygon_is_simple(bowtie)
