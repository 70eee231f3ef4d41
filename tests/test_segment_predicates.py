"""The array closed-segment test against its scalar oracle.

`geometry.segments_intersect`, `_on_segment`, `polygon_polyline_intersects`
and `polygon_is_simple` must give the results of the scalar copies kept in
`reference_measures.py` (`==`) on every input: shared endpoints, collinear
overlap, zero-length segments and NaN, infinite, signed-zero and near-_EPS
coordinates included. Map validation and `MapIndex`'s crosswalk table both
go through them.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import geometry

EPS = geometry._EPS
NAN, INF = float("nan"), float("inf")
SPECIAL = (
    0.0, -0.0, NAN, INF, -INF, 0.5, 1e-13, -1e-13, 1e-300, -1e-300,
    EPS, -EPS, float(np.nextafter(EPS, 0.0)), float(np.nextafter(EPS, 1.0)),
)
COORDS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from(SPECIAL),
    st.floats(-1e3, 1e3),
    st.floats(),
)


@st.composite
def point_sets(draw, coords=COORDS, size=4, max_sets=30, dtype=float):
    """(N, size, 2) points drawn from a pool of a few points, so that sets
    share endpoints and hold zero-length segments."""
    pool = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
    pick = st.integers(0, len(pool) - 1)
    sets = draw(st.lists(st.lists(pick, min_size=size, max_size=size), min_size=1, max_size=max_sets))
    return np.array([[pool[i] for i in s] for s in sets], dtype=dtype)


@st.composite
def collinear_sets(draw):
    """(N, 4, 2) lattice points on one line each: exact collinear overlap,
    touches and disjoint runs of one line."""
    small = st.integers(-3, 3)
    sets = []
    for _ in range(draw(st.integers(1, 20))):
        a = np.array([draw(small), draw(small)], dtype=float)
        d = np.array([draw(st.integers(-2, 2)), draw(st.integers(-2, 2))], dtype=float)
        sets.append([a + draw(small) * d for _ in range(4)])
    return np.array(sets)


def pair_oracle(quads):
    return np.array([ref.segments_intersect(*q) for q in quads], dtype=bool)


def assert_pairs_match(quads):
    got = geometry.segments_intersect(quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3])
    assert got.dtype == bool and got.shape == (len(quads),)
    assert np.array_equal(got, pair_oracle(quads))


@np.errstate(all="ignore")
@settings(max_examples=400)
@given(point_sets())
def test_segments_intersect_matches_scalar_copy(quads):
    assert_pairs_match(quads)


@np.errstate(all="ignore")
@settings(max_examples=200)
@given(collinear_sets())
def test_collinear_segments_match_scalar_copy(quads):
    assert_pairs_match(quads)


@np.errstate(all="ignore")
@settings(max_examples=200)
@given(point_sets(coords=st.integers(-(2**29), 2**29), dtype=np.int64))
def test_integer_lattice_matches_scalar_copy(quads):
    # integer endpoints keep their dtype: a product of two crosses can wrap
    # around where the signs of the crosses cannot
    assert_pairs_match(quads)


@np.errstate(all="ignore")
def test_random_quadruples_match_scalar_copy():
    rng = np.random.default_rng(16)
    values = np.array([*SPECIAL, 1.0, -1.0, 2.0, 3.0])
    quads = rng.choice(values, size=(6000, 4, 2))
    normal = rng.random(quads.shape) < 0.3
    quads[normal] = rng.normal(size=np.count_nonzero(normal))
    lattice = rng.integers(-2, 3, size=(4000, 4, 2)).astype(float)
    assert_pairs_match(np.concatenate([quads, lattice]))


def test_touches_at_eps_match_scalar_copy():
    # an endpoint of p lies off q, a unit segment, by about _EPS, and p leaves
    # to that side: only the collinear case, |cross| <= _EPS, can call it a
    # touch. Each order of the four arguments puts the near point in the
    # place of another cross product.
    quads = []
    for t, off, (u, v) in itertools.product(
        (0.0, 0.5, 1.0),
        (EPS, float(np.nextafter(EPS, 0.0)), float(np.nextafter(EPS, 1.0))),
        ((0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)),
    ):
        for side in (1.0, -1.0):
            p1, p2 = (t, side * off), (t + u, side * (off + v))
            q1, q2 = (0.0, 0.0), (1.0, 0.0)
            quads += [(p1, p2, q1, q2), (p2, p1, q1, q2), (q1, q2, p1, p2), (q1, q2, p2, p1)]
    quads = np.array(quads)
    for turned in (quads, quads[..., ::-1], quads * (-1.0, 1.0), quads * (1.0, -1.0)):
        assert_pairs_match(turned)


@np.errstate(all="ignore")
@settings(max_examples=300)
@given(point_sets(size=3))
# min(1.0, nan) and max(1.0, nan) are both 1.0: the box is [1, 1] +- _EPS
@example(np.array([[(1.0, 0.0), (1.0, 1.0), (NAN, 2.0)]]))
def test_on_segment_matches_scalar_copy(triples):
    p, q, r = triples[:, 0], triples[:, 1], triples[:, 2]
    got = geometry._on_segment(p, q, r)
    assert np.array_equal(got, [ref._on_segment(*t) for t in triples])


def test_straddle_reads_signs_where_the_product_underflows():
    # the reference straddle is a sign comparison; a product of the two
    # crosses rounds to -0.0 here, and to 0 for integer crosses it wraps
    pairs = [(1e-200, -1e-200), (-5e-324, 1e-10), (1e-170, -1e-170), (2**32, -(2**32))]
    for a, b in pairs:
        want = (a > 0 and b < 0) or (a < 0 and b > 0)
        assert geometry._straddle(np.asarray(a), np.asarray(b)) == want


@np.errstate(all="ignore")
@settings(max_examples=300)
@given(
    st.lists(st.tuples(COORDS, COORDS), max_size=8),
    st.lists(st.tuples(COORDS, COORDS), max_size=6),
)
def test_polygon_predicates_match_scalar_copies(polygon, polyline):
    poly = np.array(polygon, dtype=float).reshape(-1, 2)
    line = np.array(polyline, dtype=float).reshape(-1, 2)
    got = geometry.polygon_is_simple(poly)
    assert type(got) is bool and got == ref.polygon_is_simple(poly)
    got = geometry.polygon_polyline_intersects(poly, line)
    assert type(got) is bool and got == ref.polygon_polyline_intersects(poly, line)


@settings(max_examples=300)
@given(point_sets(coords=st.integers(-3, 3).map(float), size=8, max_sets=1), st.integers(3, 8))
def test_lattice_polygons_match_scalar_copies(points, n):
    # lattice rings touch, fold back on and overlap themselves often
    poly, line = points[0][:n], points[0][n // 2 :]
    assert geometry.polygon_is_simple(poly) == ref.polygon_is_simple(poly)
    assert geometry.polygon_polyline_intersects(poly, line) == ref.polygon_polyline_intersects(poly, line)
