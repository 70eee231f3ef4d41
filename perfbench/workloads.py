"""Workload definitions: generator parameters and the CLI commands each runs.

Plain data only, so the command harness can read it without importing
logcurator or numpy (the harness must stay small; see run.py).
"""

# Sparse traffic for the curate-heavy workloads: one mover, one parked car,
# no pedestrians, no circling or crossing actors.
SPARSE = {
    "n_movers": 1,
    "n_parked": 1,
    "n_pedestrians": 0,
    "with_circle": False,
    "crossing_actors": False,
}

WORKLOADS = {
    # Per-frame map geometry dominates scoring: long turning snippets at an
    # intersection with bicyclists; the diverse phase makes few calls, each
    # on long frame sets; the only workload with forecasts.
    "dense-score": {
        "template": "four_way_intersection",
        "plan": "turn",
        "spec": {"n_snippets": 36, "num_frames": 125, "jitter": True,
                 "overlap_every": 2, "bicycle_every": 5},
        "horizon": 5,
        "tasks": [
            {"name": "crowded", "budget": 4,
             "weights": {"crowd_dynamic": 1.0, "crowd_static": 0.5, "class_div": 0.2}},
            {"name": "maneuvers", "budget": 4,
             "weights": {"turns": 1.0, "sdv_path": 10.0, "near_path_dynamic": 0.5}},
        ],
        "k_div": 8,
        "baseline": {"method": "entropy", "k": 12},
    },
    # The diverse phase dominates curate and is call-bound: many short
    # snippets, a large diverse budget, cheap per-snippet scoring.
    "wide-curate": {
        "template": "straight_road",
        "plan": "cruise",
        "spec": {"n_snippets": 160, "num_frames": 50, "jitter": True,
                 "overlap_every": 2, **SPARSE},
        "horizon": 0,
        "tasks": [
            {"name": "crowded", "budget": 6, "weights": {"crowd_dynamic": 1.0, "crowd_static": 0.5}},
            {"name": "speedy", "budget": 6, "weights": {"sdv_speed_var": 1.0, "speed_div": 1.0}},
            {"name": "spread", "budget": 6, "weights": {"dist_var": 1.0, "actor_path_max": 5.0}},
        ],
        "k_div": 32,
        "baseline": {"method": "random", "k": 32},
    },
    # Many tiny snippets: the O(N^2) overlap walk and the challenging phase
    # dominate curate, the diverse phase is bypassed (k_div 0), and scoring
    # is per-snippet fixed cost rather than per-frame work.
    "short-triage": {
        "template": "straight_road",
        "plan": "cruise",
        "spec": {"n_snippets": 400, "num_frames": 20, "jitter": True,
                 "overlap_every": 2, **SPARSE},
        "horizon": 0,
        "tasks": [
            {"name": "crowded", "budget": 28, "weights": {"crowd_dynamic": 1.0, "crowd_static": 0.5}},
            {"name": "speedy", "budget": 28, "weights": {"sdv_speed_var": 1.0, "speed_div": 1.0}},
            {"name": "spread", "budget": 28, "weights": {"dist_var": 1.0, "actor_path_max": 5.0}},
        ],
        "k_div": 0,
        "baseline": {"method": "random", "k": 110},
    },
}
