"""Actor-derived complexity measures over a scoring batch's detections.

Detections are gated per frame by distance to that frame's ego position; a
track takes part in path and speed terms when at least one of its
observations is inside the gate. Motion class (static vs dynamic) uses the
mean of the reported speed field over the whole snippet against the
config's `static_speed` (STATIC_SPEED, 0.5 m/s, by default). All variances
are population variances in `np.var`'s float order: `run_moments` takes
them run by run, and `variance` of one run.

`detection_arrays` applies the gate to the detection columns, the one place
it is applied. `build_track_paths` groups the detections by track into
columns with one entry per track: `traffic_features`' speed, distance and
path terms are reductions over those and the flat detection columns. The
track curve complexities come from the scoring batch's one curve pass
(`geometry.curve_complexities`, in `features.batch_arrays`).
"""

from typing import NamedTuple

import numpy as np

from .scene import DETECTION_CLASSES, Snippet

STATIC_SPEED = 0.5


class Detections(NamedTuple):
    """The ROI gate over one snippet's detection columns, or a batch's joined
    by `scene.concat`, in their frame then detection order."""

    snippet: Snippet
    in_roi: np.ndarray  # (D,) bool
    dist: np.ndarray  # (D,) distance to that frame's ego position


class Tracks(NamedTuple):
    """The K tracks of a `Detections`, one entry per track code."""

    rows: np.ndarray  # (D,) detection rows in track order, each track's in frame order
    first: np.ndarray  # (K,) where each track's rows start in `rows`
    label: np.ndarray  # (K,) label code of each track's first observation
    seen: np.ndarray  # (K,) bool: some observation is in gate
    mean_speed: np.ndarray  # (K,) mean of each track's speeds
    speed_var: np.ndarray  # (K,) population variance of each track's speeds


def detection_arrays(s: Snippet, roi_radius: float | None = None) -> Detections:
    """The snippet's detection columns gated at `roi_radius`; None puts every
    detection in the gate."""
    delta = s.det_center - s.ego_pose[s.det_frame, :2]
    d2 = delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1]
    in_roi = np.ones(len(d2), dtype=bool) if roi_radius is None else d2 <= roi_radius * roi_radius
    return Detections(s, in_roi, np.sqrt(d2))


def build_track_paths(det: Detections) -> Tracks:
    """The Tracks of `det`, ordered by track code (by track_id within a
    snippet, and snippet by snippet in `scene.concat`'s columns); every
    track has at least one detection. Each track's speed moments are one
    `run_moments` over the speeds in track order."""
    s = det.snippet
    k = len(s.track_ids)
    rows = np.argsort(s.det_track, kind="stable")
    sizes = np.bincount(s.det_track, minlength=k)
    first = np.cumsum(sizes) - sizes
    seen = np.bincount(s.det_track[det.in_roi], minlength=k) > 0
    mean, var = run_moments(s.det_speed[rows], sizes)
    return Tracks(rows, first, s.det_label[rows[first]], seen, mean, var)


def class_counts(det: Detections) -> tuple:
    """Per-frame in-gate counts by DETECTION_CLASSES, (T, classes), and the
    class term: the product of (1 + count) over classes divided by the
    frame's in-gate count, 0 for frames with none in gate."""
    s, n_cls = det.snippet, len(DETECTION_CLASSES)
    cells = s.det_frame[det.in_roi] * n_cls + s.det_label[det.in_roi]
    counts = np.bincount(cells, minlength=s.num_frames * n_cls).reshape(-1, n_cls)
    total = counts.sum(axis=1)
    term = np.zeros(s.num_frames)
    np.divide(np.prod(1.0 + counts, axis=1), total, out=term, where=total > 0)
    return counts, term


def _row_moments(block: np.ndarray) -> tuple:
    """(mean, var) of each row of 2-D `block`, of at least one column:
    `np.var`'s float order (the sum by add.reduce over the row, the
    deviations squared, their sum by add.reduce over the row). A row of a
    C-ordered block is reduced in the pairwise order of a lone 1-D row."""
    n = block.shape[1]
    mean = np.add.reduce(block, axis=1) / n
    d = block - mean[:, None]
    np.square(d, out=d)
    return mean, np.add.reduce(d, axis=1) / n


def run_moments(values: np.ndarray, sizes) -> tuple:
    """(mean, var), two (R,) arrays: the population moments of each of the R
    runs of 1-D `values`, whose run i holds the next sizes[i] values, each
    as `np.mean` and `np.var` take it; an empty run has (0.0, 0.0). The runs
    of one length go through as one C-ordered (runs, length) block."""
    sizes = np.asarray(sizes, dtype=np.intp)
    mean, var = np.zeros(len(sizes)), np.zeros(len(sizes))
    first = np.cumsum(sizes) - sizes
    for n in sorted(set(sizes.tolist()) - {0}):
        at = np.flatnonzero(sizes == n)
        mean[at], var[at] = _row_moments(values[first[at, None] + np.arange(n)])
    return mean, var


def padded_rows(sizes) -> tuple:
    """(rows, real), two (runs, widest) arrays laying out consecutive runs
    of `sizes` >= 1 rows side by side: rows[i, j] is the row of run i's
    j-th entry, clamped to its last, and real[i, j] is whether j < sizes[i]."""
    sizes = np.asarray(sizes, dtype=np.intp)
    cols = np.arange(sizes.max())
    starts = np.cumsum(sizes) - sizes
    return np.minimum(cols, sizes[:, None] - 1) + starts[:, None], cols < sizes[:, None]


def variance(x: np.ndarray) -> float:
    """Population variance of 1-D `x`, 0.0 when it is empty: `x` as the one
    row of `run_moments`' row reduction."""
    return float(_row_moments(np.reshape(x, (1, -1)))[1][0]) if len(x) else 0.0


def traffic_features(det: Detections, tracks: Tracks, curves, few, term, label_mix, sizes, track_bounds) -> np.ndarray:
    """(n, 7) traffic block of the n snippets of a scoring batch, in
    SNIPPET_FEATURES order, from the batch's `det`, its `tracks`, the
    `curves` and `few` flags of the tracks seen in gate, in track order
    (`geometry.curve_complexities`), the class term of each frame
    (`class_counts`), each snippet's `label_mix` (n, 2, classes, 2), its
    (n, 3) `sizes`: frames, detections and tracks, and the (starts, ends)
    of its tracks.

    The crowd terms are the in-gate observations per frame; the class term
    is each snippet's frame mean, summed in frame order as a row-wise cumsum
    over its frames padded with 0.0; the distance and path moments run per
    snippet through `run_moments`, over the curves of the tracks with three
    distinct positions; and the speed term adds each snippet's seen tracks'
    speed variances left to right, as Python's sum."""
    frames, dets, _ = np.asarray(sizes).T
    n, (k0, k1), (rows, real) = len(frames), track_bounds, padded_rows(frames)
    seen = np.flatnonzero(tracks.seen)
    curves = curves[~few]
    (s0, s1), (c0, c1) = np.searchsorted(seen, [k0, k1]), np.searchsorted(seen[~few], [k0, k1])
    path_max, curved = np.zeros(n), c1 > c0
    if curved.any():
        path_max[curved] = np.maximum.reduceat(curves, c0[curved])
    spread = run_moments(tracks.mean_speed[seen], s1 - s0)[1].tolist()
    inner = tracks.speed_var[seen].tolist()
    gated = np.bincount(np.repeat(np.arange(n), dets)[det.in_roi], minlength=n)
    return np.column_stack([
        label_mix[:, 1].sum(axis=1) / frames[:, None],  # integer sums: exact
        np.cumsum(np.where(real, term[rows], 0.0), axis=1)[:, -1] / frames,
        run_moments(det.dist[det.in_roi], gated)[1],
        run_moments(curves, c1 - c0)[0],
        path_max,
        [v + sum(inner[a:e]) for v, a, e in zip(spread, s0.tolist(), s1.tolist())],
    ])
