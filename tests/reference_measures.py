"""Per-detection loop versions of the traffic and frame-count measures.

These walk `Snippet.frames[*].detections` directly, one measure at a time,
exactly as the measures were first written. The library computes the same
values as reductions over one set of flat detection arrays; the equivalence
tests compare the two bit for bit.
"""

import numpy as np

from logcurator.traffic import STATIC_SPEED

FRAME_CLASSES = ("vehicle", "pedestrian", "bicyclist")


def _in_gate(det, ego_k, r2):
    if r2 is None:
        return True
    dx = det.center[0] - ego_k[0]
    dy = det.center[1] - ego_k[1]
    return dx * dx + dy * dy <= r2


def _r2(roi_radius):
    return None if roi_radius is None else roi_radius * roi_radius


def track_rows(s, roi_radius=None):
    """track_id -> [(frame offset, center, speed, label, in gate)], ids sorted."""
    ego = s.ego_xy()
    r2 = _r2(roi_radius)
    obs = {}
    for k, frame in enumerate(s.frames):
        for det in frame.detections:
            inside = _in_gate(det, ego[k], r2)
            obs.setdefault(det.track_id, []).append((k, det.center, det.speed, det.label, inside))
    return {tid: obs[tid] for tid in sorted(obs)}


def crowdedness(s, roi_radius=None, static_speed=STATIC_SPEED):
    tracks = track_rows(s, roi_radius)
    n = s.num_frames
    static_counts = np.zeros(n)
    dynamic_counts = np.zeros(n)
    for rows in tracks.values():
        static = float(np.mean(np.array([r[2] for r in rows], dtype=float))) < static_speed
        for k, _, _, _, inside in rows:
            if not inside:
                continue
            if static:
                static_counts[k] += 1
            else:
                dynamic_counts[k] += 1
    return float(np.mean(static_counts)), float(np.mean(dynamic_counts))


def class_diversity(s, roi_radius=None):
    ego = s.ego_xy()
    r2 = _r2(roi_radius)
    total = 0.0
    for k, frame in enumerate(s.frames):
        counts = {}
        n_in = 0
        for det in frame.detections:
            if not _in_gate(det, ego[k], r2):
                continue
            n_in += 1
            counts[det.label] = counts.get(det.label, 0) + 1
        if n_in == 0:
            continue
        term = 1.0
        for c in counts.values():
            term *= 1.0 + c
        total += term / n_in
    return total / s.num_frames if s.num_frames else 0.0


def spatial_variance(s, roi_radius=None):
    ego = s.ego_xy()
    r2 = _r2(roi_radius)
    dists = []
    for k, frame in enumerate(s.frames):
        for det in frame.detections:
            dx = det.center[0] - ego[k, 0]
            dy = det.center[1] - ego[k, 1]
            d2 = dx * dx + dy * dy
            if r2 is not None and d2 > r2:
                continue
            dists.append(np.sqrt(d2))
    if len(dists) < 2:
        return 0.0
    return float(np.var(dists))


def speed_diversity(s, roi_radius=None):
    speeds = [
        np.array([r[2] for r in rows], dtype=float)
        for rows in track_rows(s, roi_radius).values()
        if any(r[4] for r in rows)
    ]
    if not speeds:
        return 0.0
    means = np.array([float(np.mean(v)) for v in speeds])
    inner = sum(float(np.var(v)) for v in speeds)
    return float(np.var(means)) + inner


def frame_class_columns(s, roi_radius=None):
    """(T, 5): in-gate total, vehicle, pedestrian, bicyclist counts, class term."""
    ego = s.ego_xy()
    r2 = _r2(roi_radius)
    out = []
    for k, frame in enumerate(s.frames):
        counts = {label: 0 for label in FRAME_CLASSES}
        for det in frame.detections:
            if _in_gate(det, ego[k], r2):
                counts[det.label] += 1
        total = sum(counts.values())
        if total:
            term = 1.0
            for c in counts.values():
                term *= 1.0 + c
            term /= total
        else:
            term = 0.0
        out.append([float(total)] + [float(counts[c]) for c in FRAME_CLASSES] + [term])
    return np.array(out, dtype=float).reshape(-1, 5)
