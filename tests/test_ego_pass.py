"""The batch ego pass against the per-snippet ego measures it replaced.

`features.ego_pass` measures every ego of a scoring batch in one padded
pass: arc length, repeated poses, step speeds and the frame curvature
column. `reference_measures` keeps the per-snippet code (`Path.from_points`,
`ego_step_speeds`, `ego_instant_curvature`), and every comparison is exact.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import features, geometry, sdv
from logcurator.scene import MapIndex, SceneMap, concat
from logcurator.selection import CurationConfig

from support import calls_of, make_detection, make_frame, make_snippet, project_one

# a coarse lattice, so poses repeat and steps tie; a step of 1e-10 m is
# below the curvature's 1e-9 m arc gate
LATTICE = st.integers(-3, 3).map(lambda v: 0.5 * v)
NUDGE = st.sampled_from([0.0, 0.0, 1e-10])
# headings at and near both ends of [-pi, pi), so their differences wrap
HEADINGS = st.sampled_from(
    [-np.pi, -np.pi + 1e-3, -3.0, 0.0, 0.5, 3.0, np.pi - 1e-3, float(np.nextafter(np.pi, 0.0))]
)
STEPS = st.sampled_from([0.05, 0.1, 0.25])


@st.composite
def egos(draw):
    """(positions, headings, time steps) of one snippet's ego."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):  # a stationary ego
        positions = [draw(st.tuples(LATTICE, LATTICE))] * n
    else:
        positions = [
            (x + nudge, y)
            for (x, y), nudge in zip(
                draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=n, max_size=n)),
                draw(st.lists(NUDGE, min_size=n, max_size=n)),
            )
        ]
    headings = draw(st.lists(HEADINGS, min_size=n, max_size=n))
    return positions, headings, draw(st.lists(STEPS, min_size=n - 1, max_size=n - 1))


def _snippets(drawn):
    """One snippet per drawn ego, each detection on the lattice once a frame."""
    out = []
    for k, (positions, headings, steps) in enumerate(drawn):
        frames = []
        for i, ((x, y), h, t) in enumerate(zip(positions, headings, np.cumsum([0.0, *steps]))):
            frame = make_frame(i, ego=(x, y, h), detections=[make_detection(center=(y, -x))])
            frame["timestamp"] = float(t)
            frames.append(frame)
        out.append(make_snippet(frames, snippet_id=f"s{k}", log_id=f"log{k}"))
    return out


BATCH = [
    ([(0.0, 0.0)], [np.pi - 1e-3], []),  # one frame
    ([(1.0, 1.0)] * 4, [0.5] * 4, [0.1] * 3),  # stationary
    (  # repeated poses and headings that wrap at +-pi
        [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.5, 0.5), (1.5, 0.5 + 1e-10)],
        [np.pi - 1e-3, -np.pi + 1e-3, -np.pi, 3.0, -3.0, -np.pi],
        [0.1, 0.05, 0.25, 0.1, 0.1],
    ),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(egos(), min_size=1, max_size=5))
@example(BATCH)
@example(BATCH[::-1])
def test_ego_pass_equals_per_snippet_measures(drawn):
    snippets = _snippets(drawn)
    b = concat(snippets)
    with np.errstate(all="raise"):  # padded steps have a zero time step
        arc, keep, speed, curvature = features.ego_pass(
            b.ego_pose, b.timestamp, [s.num_frames for s in snippets]
        )
    assert keep.dtype == bool and len(arc) == len(keep) == len(speed) == len(curvature) == len(b.index)
    lo = 0
    for s in snippets:
        hi = lo + s.num_frames
        ego = s.ego_pose[:, :2]
        path = ref.Path.from_points(ego)
        assert np.array_equal(b.ego_pose[lo:hi, :2][keep[lo:hi]], path.points)
        assert np.array_equal(arc[lo:hi][keep[lo:hi]], path.arclength)
        assert np.array_equal(arc[lo:hi], geometry.cumulative_arclength(ego))
        assert np.array_equal(speed[lo + 1 : hi], ref.ego_step_speeds(ego, s.timestamp))
        assert np.array_equal(curvature[lo:hi], ref.ego_instant_curvature(ego, s.ego_pose[:, 2]))
        lo = hi


@settings(max_examples=100, deadline=None)
@given(st.lists(egos(), min_size=1, max_size=5))
@example(BATCH)
def test_records_read_the_ego_pass(drawn):
    # what the measures read: the batch's ego step speeds, the path
    # distances, the ego curve and the frame matrix's curvature and speed
    # columns
    snippets = _snippets(drawn)
    index, cfg = MapIndex(SceneMap()), CurationConfig()
    assert len(list(features._batches(snippets, index))) == 1
    with pytest.MonkeyPatch.context() as mp:
        ego_calls = calls_of(mp, features, "sdv_features")
        route_calls = calls_of(mp, sdv, "match_route")
        [scored] = features.batch_arrays(snippets, index, cfg)
    [((_, ego_speed, *_), _)], [((_, _, _, path_dist, *_), _)] = ego_calls, route_calls
    lo = d0 = 0
    for i, s in enumerate(snippets):
        hi, d1 = lo + s.num_frames, d0 + len(s.det_frame)
        ego = s.ego_pose[:, :2]
        path = ref.Path.from_points(ego)
        speeds = ref.ego_step_speeds(ego, s.timestamp)
        curvature = ref.ego_instant_curvature(ego, s.ego_pose[:, 2])
        assert np.array_equal(ego_speed[lo + 1 : hi], speeds)
        dist, _ = project_one(s.det_center, path.points, path.arclength)
        assert np.array_equal(path_dist[d0:d1], dist)
        vec, mat = features.compute_snippet_features(scored, i)
        curve = ref.curve_complexity(path, cfg.resample_points)
        assert vec.values[features.SNIPPET_FEATURE_NAMES.index("sdv_path")] == (
            curve if path.length >= sdv.MIN_PATH_LENGTH else 0.0
        )
        frame_speed = np.append(speeds, speeds[-1]) if len(speeds) else np.zeros(1)
        assert np.array_equal(mat[:, 5], curvature) and np.array_equal(mat[:, 6], frame_speed)
        lo, d0 = hi, d1
