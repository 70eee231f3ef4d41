"""The functions the per-layer profiler wraps stay on the command path.

`perfbench/tracer.py` times a layer by replacing a module attribute, such as
`sdv.match_route`, with a wrapper. A refactor that stops calling a function
through that name would make its layer read zero without any error, so each
wrapped name must be entered by the command that reports it.
"""

import json

from logcurator import baselines, cli, features, geometry, sdv, selection, traffic

SCORE_POINTS = (
    (sdv, "match_route"),
    (sdv, "interactions"),
    (geometry, "project_points_to_polyline"),
    (features, "compute_snippet_features"),
    (features, "infra_features"),
    (features, "traffic_features"),
    (features, "sdv_features"),
    (features, "assemble_frame_vectors"),
    (traffic, "build_track_paths"),
)
CURATE_POINTS = (
    (selection, "select_challenging"),
    (selection, "overlap_adjacency"),
    (features, "read_features"),
)
# `cli` imports `baselines` inside `baseline`, and looks each name up there
BASELINE_POINTS = (
    (baselines, "random_select"),
    (baselines, "load_forecasts"),
    (baselines, "al_select"),
)


def test_traced_functions_are_entered(tmp_path, monkeypatch):
    monkeypatch.delenv("CURATOR_JOBS", raising=False)
    pool, forecasts = str(tmp_path / "pool.jsonl"), str(tmp_path / "forecasts.jsonl")
    synth = ["synth", "--snippets", "3", "--frames", "40", "--seed", "3", "--jitter"]
    assert cli.main(synth + ["--out", pool, "--forecasts", forecasts]) == 0
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"tasks": [{"name": "busy", "weights": {"crowd_dynamic": 1.0}, "budget": 1}]})
    )

    calls = {}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in SCORE_POINTS + CURATE_POINTS + BASELINE_POINTS + ((cli, "load_pool"),):
        key = f"{module.__name__}.{name}"
        calls[key] = 0
        monkeypatch.setattr(module, name, counted(key, getattr(module, name)))

    feats = str(tmp_path / "feats")
    assert cli.main(["score", pool, "--out", feats]) == 0
    for module, name in SCORE_POINTS:
        assert calls[f"{module.__name__}.{name}"] > 0, name
    assert calls["logcurator.cli.load_pool"] == 1
    out = str(tmp_path / "result.json")
    assert cli.main(["curate", pool, "--config", str(config), "--out", out, "--features", feats]) == 0
    for module, name in CURATE_POINTS:
        assert calls[f"{module.__name__}.{name}"] > 0, name
    # a fingerprinted store stands in for the pool: curate never parses it
    assert calls["logcurator.cli.load_pool"] == 1
    base = ["baseline", pool, "-k", "1", "--out", str(tmp_path / "baseline.json")]
    assert cli.main(base + ["--method", "random"]) == 0
    assert cli.main(base + ["--method", "entropy", "--forecasts", forecasts]) == 0
    for module, name in BASELINE_POINTS:
        assert calls[f"{module.__name__}.{name}"] > 0, name
