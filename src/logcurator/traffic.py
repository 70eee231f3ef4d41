"""Actor-derived complexity measures for one snippet.

Detections are gated per frame by distance to that frame's ego position; a
track takes part in path and speed terms when at least one of its
observations is inside the gate. Motion class (static vs dynamic) uses the
mean of the reported speed field over the whole snippet against the
config's `static_speed` (STATIC_SPEED, 0.5 m/s, by default). All variances
are population variances, taken by `variance`.

`detection_arrays` applies the gate to the snippet's detection columns, the
one place it is applied; every measure here is a reduction over those flat
arrays or over the tracks `build_track_paths` groups from them. The track
curve complexities come from the scoring batch's one curve pass
(`geometry.curve_complexities`, in `features.batch_arrays`).
"""

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .scene import DETECTION_CLASSES, Snippet, runs

if TYPE_CHECKING:
    from .features import SnippetArrays

STATIC_SPEED = 0.5


class Detections(NamedTuple):
    """The ROI gate over one snippet's detection columns, or a batch's joined
    by `scene.concat`, in their frame then detection order."""

    snippet: Snippet
    in_roi: np.ndarray  # (D,) bool
    dist: np.ndarray  # (D,) distance to that frame's ego position


class TrackPath(NamedTuple):
    track_id: str
    label: str
    positions: np.ndarray  # (n, 2)
    speeds: np.ndarray  # (n,)
    in_roi: np.ndarray  # (n,) bool
    seen: bool  # some observation is in gate
    mean_speed: float  # np.mean(speeds), taken once when the track is built

    def is_static(self, threshold: float) -> bool:
        return self.mean_speed < threshold


def detection_arrays(s: Snippet, roi_radius: float | None = None) -> Detections:
    """The snippet's detection columns gated at `roi_radius`; None puts every
    detection in the gate."""
    delta = s.det_center - s.ego_pose[s.det_frame, :2]
    d2 = delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1]
    in_roi = np.ones(len(d2), dtype=bool) if roi_radius is None else d2 <= roi_radius * roi_radius
    return Detections(s, in_roi, np.sqrt(d2))


def build_track_paths(det: Detections) -> list:
    """Group detections by track, ordered by track code (by track_id within
    a snippet, and snippet by snippet in `scene.concat`'s columns); each
    track keeps its observations in frame order and the label of its first
    one."""
    s = det.snippet
    order = np.argsort(s.det_track, kind="stable")
    groups = (order[a:b] for a, b in runs(s.det_track[order]))
    seen = np.bincount(s.det_track[det.in_roi], minlength=len(s.track_ids)) > 0
    return [
        TrackPath(
            track_id=tid,
            label=DETECTION_CLASSES[s.det_label[rows[0]]],
            positions=s.det_center[rows],
            speeds=(speeds := s.det_speed[rows]),
            in_roi=det.in_roi[rows],
            seen=gated,
            mean_speed=float(np.mean(speeds)),
        )
        for tid, rows, gated in zip(s.track_ids, groups, seen.tolist())
    ]


def static_flags(tracks: list, static_speed: float) -> np.ndarray:
    """(K,) whether each track is static at `static_speed`: the one
    evaluation of `TrackPath.is_static` per track."""
    return np.array([t.is_static(static_speed) for t in tracks], dtype=bool)


def _roi_tracks(tracks: list) -> list:
    return [t for t in tracks if t.seen]


def crowd_means(det: Detections, static: np.ndarray, starts) -> np.ndarray:
    """(n, 2) mean per-frame count of in-gate actors, split (static, dynamic)
    by the tracks' `static_flags`, of each of the n snippets of `det` whose
    frames start at `starts`. The counts are integers, so the sums are
    exact and each mean is the one np.mean takes."""
    s = det.snippet
    cells = s.det_frame[det.in_roi] * 2 + ~static[s.det_track][det.in_roi]
    counts = np.bincount(cells, minlength=2 * s.num_frames).reshape(-1, 2)
    return np.add.reduceat(counts, starts, axis=0) / np.diff([*starts, s.num_frames])[:, None]


def crowdedness(det: Detections, static: np.ndarray) -> tuple:
    """`crowd_means` of one snippet, as (static, dynamic)."""
    return tuple(crowd_means(det, static, [0])[0].tolist())


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


def class_diversity(det: Detections) -> float:
    """Class term averaged over frames; frames with no in-gate detections
    contribute 0."""
    return _frame_mean(class_counts(det)[1])


def _frame_mean(term: np.ndarray) -> float:
    total = 0.0
    for value in term.tolist():  # frame order; np.sum would regroup
        total += value
    return total / len(term) if len(term) else 0.0


def variance(x: np.ndarray) -> float:
    """Population variance of 1-D `x`, 0.0 when it is empty: `np.var`'s
    float order (the sum by add.reduce over n, the deviations squared, their
    sum by add.reduce over n) without its per-call overhead."""
    n = len(x)
    if not n:
        return 0.0
    d = x - np.add.reduce(x) / n
    np.square(d, out=d)
    return float(np.add.reduce(d) / n)


def spatial_variance(det: Detections) -> float:
    """Population variance of ego-to-actor distances, pooled over all
    (frame, detection) pairs in gate; fewer than 2 samples score 0."""
    return variance(det.dist[det.in_roi])


def actor_path_complexity(curves: np.ndarray) -> tuple:
    """(mean, max) of a snippet's track curve complexities
    (`SnippetArrays.track_curves`: the tracks seen in gate with at least
    three distinct positions); (0.0, 0.0) without such a track."""
    return (float(np.mean(curves)), float(np.max(curves))) if len(curves) else (0.0, 0.0)


def speed_diversity(tracks: list) -> float:
    """Variance of per-track mean speeds plus the sum of within-track
    speed variances, over tracks seen in gate at least once."""
    tracks = _roi_tracks(tracks)
    if not tracks:
        return 0.0
    inner = sum(variance(t.speeds) for t in tracks)
    return variance(np.array([t.mean_speed for t in tracks])) + inner


def traffic_features(rec: "SnippetArrays", config) -> dict:
    """The traffic row of one snippet, keyed by feature name, from its
    detections, their tracks and their class counts."""
    path_mean, path_max = actor_path_complexity(rec.track_curves)
    return {
        "crowd_static": rec.crowd[0],
        "crowd_dynamic": rec.crowd[1],
        "class_div": _frame_mean(rec.class_counts[1]),
        "dist_var": spatial_variance(rec.det),
        "actor_path_mean": path_mean,
        "actor_path_max": path_max,
        "speed_div": speed_diversity(rec.tracks),
    }
