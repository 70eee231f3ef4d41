import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from logcurator import cli, features, geometry, scene, traffic
from logcurator.cli import main
from logcurator.scene import canonical_dumps, load_pool
from logcurator.selection import validate_result_obj

from support import drive, make_detection, measure_args, pool_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NAN = float("nan")
STORE_FILES = ("snippet_features.jsonl", "frame_features.jsonl", "normalization.json", "provenance.json")


def damage_line(path, lineno, damage):
    """Apply `damage` to the JSON value on line `lineno` (1-based) of `path`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    obj = json.loads(lines[lineno - 1])
    damage(obj)
    lines[lineno - 1] = json.dumps(obj)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


CONFIG = {
    "tasks": [
        {
            "name": "busy",
            "weights": {"crowd_dynamic": 1.0, "class_div": 0.5},
            "budget": 1,
        }
    ],
    "k_div": 1,
    "seed": 0,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic pool plus forecasts and a task config, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    pool_path = str(root / "pool.jsonl")
    forecasts_path = str(root / "forecasts.jsonl")
    code = main(
        [
            "synth",
            "--template",
            "straight_road",
            "--plan",
            "cruise",
            "--snippets",
            "4",
            "--frames",
            "40",
            "--seed",
            "3",
            "--jitter",
            "--out",
            pool_path,
            "--forecasts",
            forecasts_path,
        ]
    )
    assert code == 0
    config_path = str(root / "config.json")
    with open(config_path, "w") as fh:
        json.dump(CONFIG, fh)
    return {
        "root": root,
        "pool": pool_path,
        "forecasts": forecasts_path,
        "config": config_path,
    }


class TestSynth:
    def test_writes_pool_sidecar_and_cards(self, capsys, tmp_path):
        out = str(tmp_path / "pool.jsonl")
        cards = str(tmp_path / "cards.json")
        code, stdout, _ = run(
            capsys, "synth", "--snippets", "2", "--frames", "60", "--out", out,
            "--cards", cards,
        )
        assert code == 0
        assert "wrote 2 snippet(s)" in stdout
        assert os.path.exists(out)
        assert os.path.exists(str(tmp_path / "scene.map.json"))
        with open(cards) as fh:
            obj = json.load(fh)
        assert obj["kind"] == "expectation_cards"
        assert len(obj["cards"]) == 2

    def test_infeasible_spec_is_a_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--plan", "lane_change", "--frames", "30",
            "--out", str(tmp_path / "pool.jsonl"),
        )
        assert code == 2
        assert "error:" in err and "60 frames" in err

    @pytest.mark.parametrize(
        "spec",
        [["--snippets", "3", "--frames", "20"], ["--plan", "lane_change", "--frames", "60"],
         ["--plan", "nudge", "--frames", "60"]],
        ids=["short_cruise", "lane_change", "nudge"],
    )
    def test_card_margins_hold_only_where_cards_are_written(self, capsys, tmp_path, spec):
        # each spec breaks a card margin: a plain pool is written, and the
        # cards are refused before any file is
        assert run(capsys, "synth", *spec, "--out", str(tmp_path / "p.jsonl"))[0] == 0
        carded = tmp_path / "carded"
        code, _, err = run(
            capsys, "synth", *spec, "--out", str(carded / "p.jsonl"), "--cards", str(carded / "cards.json")
        )
        assert code == 2
        assert "error:" in err and "Traceback" not in err
        assert not carded.exists()

    def test_unknown_template_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "synth", "--template", "tunnel", "--out", str(tmp_path / "p.jsonl")
        )
        assert code == 1
        assert "tunnel" in err

    @pytest.mark.parametrize(
        "option",
        [
            ["--seed", "-1"], ["--horizon", "-1"], ["--horizon", "0"], ["--bicycle-every", "-1"],
            ["--snippets", "0"], ["--frames", "1"], ["--overlap-every", "-1"],
        ],
        ids=["seed", "horizon", "horizon_zero", "bicycle_every", "snippets_zero", "frames_one", "overlap_every"],
    )
    def test_negative_integer_is_a_usage_error(self, capsys, tmp_path, option):
        # the generator raised on a negative seed or horizon, a horizon of 0
        # wrote a forecast file that the entropy baseline refuses, a
        # negative bicycle period put a bicyclist in every snippet, and no
        # pool has fewer than one snippet or two frames
        out = str(tmp_path / "pool.jsonl")
        forecasts = ["--forecasts", str(tmp_path / "f.jsonl")]
        code, _, err = run(capsys, "synth", "--frames", "60", "--out", out, *forecasts, *option)
        assert code == 1
        assert option[0] in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []


    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664)], ids=["022", "002"])
    def test_outputs_take_the_mode_of_a_new_file(self, capsys, tmp_path, umask, mode):
        # a temp file renamed into place kept mkstemp's 0o600
        pool, config = str(tmp_path / "p.jsonl"), str(tmp_path / "config.json")
        feats, result = tmp_path / "feats", tmp_path / "result.json"
        with open(config, "w") as fh:
            json.dump(CONFIG, fh)
        old = os.umask(umask)
        try:
            for argv in (
                ["synth", "--snippets", "2", "--frames", "60", "--out", pool,
                 "--cards", str(tmp_path / "cards.json"), "--forecasts", str(tmp_path / "f.jsonl")],
                ["score", pool, "--out", str(feats)],
                ["curate", pool, "--config", config, "--features", str(feats), "--out", str(result)],
            ):
                assert run(capsys, *argv)[0] == 0
        finally:
            assert os.umask(old) == umask
        synth = [tmp_path / name for name in ("p.jsonl", "scene.map.json", "cards.json", "f.jsonl")]
        outputs = [*synth, *(feats / name for name in STORE_FILES), result]
        assert {p.name: oct(p.stat().st_mode & 0o777) for p in outputs} == {
            p.name: oct(mode) for p in outputs
        }


class TestScore:
    def test_writes_feature_store(self, capsys, workspace, tmp_path):
        out_dir = str(tmp_path / "feats")
        code, stdout, _ = run(capsys, "score", workspace["pool"], "--out", out_dir)
        assert code == 0
        assert "scored 4 snippet(s) (4 rankable)" in stdout
        bundle = features.read_features(out_dir)
        assert len(bundle.ids) == 4

    def test_huge_frame_counts_score_as_the_snippet_length(self, capsys, workspace, tmp_path):
        # config integers are unbounded: counts above every snippet's 40
        # frames score as 40 does, and overflow no array
        stores = []
        for value in (1e300, 40):
            config = tmp_path / f"config{value}.json"
            fields = {"nudge_min_bound_frames": value, "lane_change_min_frames": value}
            config.write_text(json.dumps({**CONFIG, **fields}))
            out = tmp_path / f"feats{value}"
            code, _, err = run(capsys, "score", workspace["pool"], "--out", str(out), "--config", str(config))
            assert code == 0, err
            stores.append([(out / f).read_bytes() for f in STORE_FILES if f != "provenance.json"])
        assert stores[0] == stores[1]

    @pytest.mark.parametrize("value", [geometry.CURVE_VALUES + 1, 1e300])
    def test_resample_points_beyond_a_curve_block_is_a_domain_error(self, capsys, workspace, tmp_path, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CONFIG, "resample_points": value}))
        out = str(tmp_path / "feats")
        code, _, err = run(capsys, "score", workspace["pool"], "--out", out, "--config", str(config))
        assert code == 2
        assert f"resample_points must be >= 3 and <= {geometry.CURVE_VALUES}" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "lineno,damage",
        [
            (3, lambda s: s["frames"][2]["detections"][0].__setitem__("speed", "fast")),
            (3, lambda s: s["frames"][2].__setitem__("timestamp", "t")),
            (1, lambda header: header.__setitem__("snippet_length", "x")),
            (3, lambda s: s["frames"][2]["detections"].__setitem__(0, 3)),
        ],
        ids=["detection_speed", "frame_timestamp", "header_snippet_length", "detection_not_object"],
    )
    def test_malformed_pool_field_is_a_domain_error(
        self, capsys, workspace, tmp_path, lineno, damage
    ):
        pool = str(tmp_path / "pool.jsonl")
        shutil.copy(workspace["pool"], pool)
        shutil.copy(os.path.join(workspace["root"], "scene.map.json"), tmp_path)
        damage_line(pool, lineno, damage)
        code, _, err = run(capsys, "score", pool, "--out", str(tmp_path / "feats"))
        assert code == 2
        assert "Traceback" not in err
        assert f"{pool} line {lineno}" in err

    @pytest.mark.parametrize(
        "lineno,damage",
        [
            (1, lambda header: header.__setitem__("snippet_length", 0)),
            (1, lambda header: header.__setitem__("snippet_length", -3)),
            (3, lambda s: s.update(frames=[], frame_range=[5, 4])),
        ],
        ids=["header_length_zero", "header_length_negative", "snippet_without_frames"],
    )
    def test_frameless_pool_is_a_domain_error(self, capsys, workspace, tmp_path, lineno, damage):
        pool = str(tmp_path / "pool.jsonl")
        shutil.copy(workspace["pool"], pool)
        shutil.copy(os.path.join(workspace["root"], "scene.map.json"), tmp_path)
        damage_line(pool, lineno, damage)
        code, _, err = run(capsys, "score", pool, "--out", str(tmp_path / "feats"))
        assert code == 2
        assert "Traceback" not in err
        assert f"{pool} line {lineno}" in err

    def test_missing_pool_is_a_domain_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "score", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "f")
        )
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["score", "curate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, workspace, tmp_path, command, jobs):
        config = ["--config", workspace["config"]] if command == "curate" else []
        out = str(tmp_path / "out")
        code, _, err = run(capsys, command, workspace["pool"], *config, "--out", out, "--jobs", jobs)
        assert code == 1
        assert "--jobs" in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_curator_jobs_below_one_is_a_usage_error(self, capsys, workspace, tmp_path, monkeypatch, value):
        monkeypatch.setenv("CURATOR_JOBS", value)
        out = str(tmp_path / "feats")
        code, _, err = run(capsys, "score", workspace["pool"], "--out", out)
        assert code == 1
        assert f"CURATOR_JOBS must be an integer >= 1, got {value!r}" in err
        assert not os.path.exists(out)
        # --jobs is read first
        assert run(capsys, "score", workspace["pool"], "--out", out, "--jobs", "1")[0] == 0

    def test_rerun_matches_byte_for_byte(self, capsys, workspace, tmp_path):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            assert run(capsys, "score", workspace["pool"], "--out", d)[0] == 0
        for name in STORE_FILES:
            with open(os.path.join(dirs[0], name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(dirs[1], name), "rb") as fh:
                assert fh.read() == first

    def test_worker_count_does_not_change_bytes(self, capsys, workspace, tmp_path, monkeypatch):
        serial = str(tmp_path / "serial")
        env_par = str(tmp_path / "env_par")
        flag_par = str(tmp_path / "flag_par")
        assert run(capsys, "score", workspace["pool"], "--out", serial)[0] == 0
        monkeypatch.setenv("CURATOR_JOBS", "2")
        assert run(capsys, "score", workspace["pool"], "--out", env_par)[0] == 0
        monkeypatch.delenv("CURATOR_JOBS")
        assert run(capsys, "score", workspace["pool"], "--out", flag_par, "--jobs", "3")[0] == 0
        for name in STORE_FILES:
            with open(os.path.join(serial, name), "rb") as fh:
                want = fh.read()
            for d in (env_par, flag_par):
                with open(os.path.join(d, name), "rb") as fh:
                    assert fh.read() == want


class TestCurate:
    def test_end_to_end_selection(self, capsys, workspace, tmp_path):
        out = str(tmp_path / "result.json")
        code, stdout, _ = run(
            capsys, "curate", workspace["pool"], "--config", workspace["config"],
            "--out", out,
        )
        assert code == 0
        assert "selected 2 snippet(s)" in stdout
        with open(out) as fh:
            obj = json.load(fh)
        assert validate_result_obj(obj) == []
        assert obj["method"] == "curate"
        assert len(obj["selected"]) == 2

    def test_feature_reuse_matches_fresh_scoring(self, capsys, workspace, tmp_path):
        feats = str(tmp_path / "feats")
        assert run(capsys, "score", workspace["pool"], "--out", feats)[0] == 0
        fresh = str(tmp_path / "fresh.json")
        reused = str(tmp_path / "reused.json")
        base = ["curate", workspace["pool"], "--config", workspace["config"]]
        assert run(capsys, *base, "--out", fresh)[0] == 0
        assert run(capsys, *base, "--out", reused, "--features", feats)[0] == 0
        with open(fresh, "rb") as fh:
            want = fh.read()
        with open(reused, "rb") as fh:
            assert fh.read() == want

    def test_foreign_feature_dir_is_a_domain_error(self, capsys, workspace, tmp_path):
        other_pool = str(tmp_path / "other.jsonl")
        assert (
            run(
                capsys, "synth", "--snippets", "2", "--frames", "60",
                "--id-prefix", "other_", "--out", other_pool,
            )[0]
            == 0
        )
        feats = str(tmp_path / "feats")
        assert run(capsys, "score", other_pool, "--out", feats)[0] == 0
        code, _, err = run(
            capsys, "curate", workspace["pool"], "--config", workspace["config"],
            "--out", str(tmp_path / "r.json"), "--features", feats,
        )
        assert code == 2
        assert "does not cover the pool" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"tasks": [{"name": "calm", "weights": {"crowd_static": 1.0}, "budget": 2}]},
            {"k_div": 2},
            {"seed": 7},
            {"dissimilarity": "symmetric"},
        ],
        ids=["tasks", "k_div", "seed", "dissimilarity"],
    )
    def test_curate_only_fields_reuse_the_store(self, capsys, workspace, tmp_path, change):
        feats = str(tmp_path / "feats")
        assert run(capsys, "score", workspace["pool"], "--out", feats)[0] == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CONFIG, **change}))
        base = ["curate", workspace["pool"], "--config", str(config)]
        fresh, reused = str(tmp_path / "fresh.json"), str(tmp_path / "reused.json")
        assert run(capsys, *base, "--out", fresh)[0] == 0
        assert run(capsys, *base, "--out", reused, "--features", feats)[0] == 0
        with open(fresh, "rb") as a, open(reused, "rb") as b:
            assert a.read() == b.read()

    def stale_store_error(self, capsys, workspace, tmp_path, change, config=CONFIG):
        """stderr of `curate --features` on a store scored from a copy of the
        workspace pool, after `change(root)` altered that copy."""
        root = tmp_path / "w"
        root.mkdir()
        for name in ("pool.jsonl", "scene.map.json"):
            shutil.copy(os.path.join(workspace["root"], name), root / name)
        pool, feats = str(root / "pool.jsonl"), str(root / "feats")
        assert run(capsys, "score", pool, "--out", feats)[0] == 0
        change(root)
        (root / "config.json").write_text(json.dumps(config))
        code, _, err = run(
            capsys, "curate", pool, "--config", str(root / "config.json"),
            "--out", str(root / "r.json"), "--features", feats,
        )
        assert code == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert feats in err and "rescore" in err
        return err

    @pytest.mark.parametrize(
        "field,value", [("roi_radius", 5.0), ("normalization", "none")]
    )
    def test_store_scored_under_other_config_is_stale(
        self, capsys, workspace, tmp_path, field, value
    ):
        config = {**CONFIG, field: value}
        err = self.stale_store_error(capsys, workspace, tmp_path, lambda root: None, config)
        assert "provenance.json" in err and f"{field}={value!r}" in err

    def test_store_of_a_changed_pool_is_stale(self, capsys, workspace, tmp_path):
        def change_one_byte(root):
            path = root / "pool.jsonl"
            text = path.read_text()
            at = text.rindex('"speed":') + len('"speed":')
            path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :])

        err = self.stale_store_error(capsys, workspace, tmp_path, change_one_byte)
        assert "does not cover the pool" in err

    def test_store_of_a_changed_map_is_stale(self, capsys, workspace, tmp_path):
        def move_a_lane(root):
            path = root / "scene.map.json"
            obj = json.loads(path.read_text())
            obj["lanes"][0]["centerline"][0][1] += 0.5
            path.write_text(json.dumps(obj))

        err = self.stale_store_error(capsys, workspace, tmp_path, move_a_lane)
        assert "scene.map.json changed" in err

    def test_pool_replaced_during_scoring_is_stale(self, capsys, workspace, tmp_path, monkeypatch):
        """`score` fingerprints the bytes it parsed, not the file it finds
        afterwards: a pool with the same ids copied over the scored one
        while scoring runs leaves a stale store."""
        other = str(tmp_path / "other" / "pool.jsonl")
        synth = ["synth", "--template", "straight_road", "--plan", "cruise"]
        synth += ["--snippets", "4", "--frames", "40", "--seed", "9", "--jitter", "--out", other]
        assert run(capsys, *synth)[0] == 0
        score_pool = features.score_pool

        def score_then_replace(*args, **kwargs):
            bundle = score_pool(*args, **kwargs)
            shutil.copy(other, tmp_path / "w" / "pool.jsonl")
            return bundle

        monkeypatch.setattr(features, "score_pool", score_then_replace)
        err = self.stale_store_error(capsys, workspace, tmp_path, lambda root: None)
        assert "does not cover the pool" in err

    def test_store_without_provenance_is_stale(self, capsys, workspace, tmp_path):
        def drop_provenance(root):
            os.remove(root / "feats" / "provenance.json")

        err = self.stale_store_error(capsys, workspace, tmp_path, drop_provenance)
        assert os.path.join(str(tmp_path / "w" / "feats"), "provenance.json") in err

    def test_rescoring_replaces_the_provenance(self, capsys, workspace, tmp_path):
        feats = str(tmp_path / "feats")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**CONFIG, "roi_radius": 5.0}))
        assert run(capsys, "score", workspace["pool"], "--out", feats)[0] == 0
        assert run(capsys, "score", workspace["pool"], "--out", feats, "--config", str(config))[0] == 0
        base = ["curate", workspace["pool"], "--config", str(config)]
        fresh, reused = str(tmp_path / "fresh.json"), str(tmp_path / "reused.json")
        assert run(capsys, *base, "--out", fresh)[0] == 0
        assert run(capsys, *base, "--out", reused, "--features", feats)[0] == 0
        with open(fresh, "rb") as a, open(reused, "rb") as b:
            assert a.read() == b.read()

    def damaged_store_error(self, capsys, workspace, tmp_path, damage):
        feats = str(tmp_path / "feats")
        assert run(capsys, "score", workspace["pool"], "--out", feats)[0] == 0
        damage(feats)
        code, _, err = run(
            capsys, "curate", workspace["pool"], "--config", workspace["config"],
            "--out", str(tmp_path / "r.json"), "--features", feats,
        )
        assert code == 2
        assert "Traceback" not in err
        return err

    def test_store_without_normalization_is_a_domain_error(self, capsys, workspace, tmp_path):
        def drop_normalization(feats):
            os.remove(os.path.join(feats, "normalization.json"))

        err = self.damaged_store_error(capsys, workspace, tmp_path, drop_normalization)
        assert "normalization.json" in err

    def test_store_missing_a_frame_row_is_a_domain_error(self, capsys, workspace, tmp_path):
        def drop_last_frame_row(feats):
            path = os.path.join(feats, "frame_features.jsonl")
            with open(path) as fh:
                lines = fh.read().splitlines()
            with open(path, "w") as fh:
                fh.write("\n".join(lines[:-1]) + "\n")

        err = self.damaged_store_error(capsys, workspace, tmp_path, drop_last_frame_row)
        assert "frame_features.jsonl" in err
        assert "s0003" in err

    def test_frame_row_shorter_than_the_pool_is_a_domain_error(self, capsys, workspace, tmp_path):
        def cut_last_frame_row(feats):
            damage_line(
                os.path.join(feats, "frame_features.jsonl"),
                5,
                lambda row: row.__setitem__("values", row["values"][:1]),
            )

        err = self.damaged_store_error(capsys, workspace, tmp_path, cut_last_frame_row)
        assert "frame_features.jsonl" in err
        assert "'s0003' has 1 frame rows" in err

    @pytest.mark.parametrize(
        "damage,named",
        [
            (lambda row: row.pop("values"), "s0003"),
            (lambda row: row["values"].pop(), "s0003"),
            (lambda row: row["values"].__setitem__(0, float("nan")), "s0003"),
            (lambda row: row.pop("valid"), "s0003"),
            (lambda row: row.pop("snippet_id"), "row 5"),
        ],
        ids=["no_values", "short_values", "nan_value", "no_valid", "no_snippet_id"],
    )
    def test_bad_snippet_row_is_a_domain_error(self, capsys, workspace, tmp_path, damage, named):
        def damage_last_snippet_row(feats):
            damage_line(os.path.join(feats, "snippet_features.jsonl"), 5, damage)

        err = self.damaged_store_error(capsys, workspace, tmp_path, damage_last_snippet_row)
        assert "snippet_features.jsonl" in err
        assert named in err

    @pytest.mark.parametrize(
        "name,lineno,damage,named",
        [
            ("frame_features.jsonl", 5, lambda row: row.pop("values"), "s0003"),
            ("frame_features.jsonl", 5, lambda row: row["values"][7].__setitem__(2, NAN), "s0003"),
            ("frame_features.jsonl", 5, lambda row: row["values"][7].pop(), "s0003"),
            ("frame_features.jsonl", 5, lambda row: row.pop("snippet_id"), "row 5"),
            ("normalization.json", 1, lambda obj: obj.pop("snippet"), "'snippet'"),
            ("normalization.json", 1, lambda obj: obj["frame"]["std"].pop(), "'frame'"),
            ("normalization.json", 1, lambda obj: obj["snippet"]["mean"].__setitem__(0, NAN), "'snippet'"),
            ("normalization.json", 1, lambda obj: obj["frame"].update(flagged=[1.5]), "'frame'"),
        ],
        ids=[
            "frame_no_values",
            "frame_nan_value",
            "frame_short_row",
            "frame_no_snippet_id",
            "no_snippet_stats",
            "short_frame_std",
            "nan_snippet_mean",
            "non_integer_flagged",
        ],
    )
    def test_bad_frame_row_or_stats_is_a_domain_error(
        self, capsys, workspace, tmp_path, name, lineno, damage, named
    ):
        def damage_store(feats):
            damage_line(os.path.join(feats, name), lineno, damage)

        err = self.damaged_store_error(capsys, workspace, tmp_path, damage_store)
        assert name in err
        assert named in err

    def test_config_flag_is_required(self, capsys, workspace, tmp_path):
        code, _, err = run(
            capsys, "curate", workspace["pool"], "--out", str(tmp_path / "r.json")
        )
        assert code == 1
        assert "--config" in err

    def test_malformed_config_is_a_domain_error(self, capsys, workspace, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"tasks": [{"name": "t", "weights": {"warp": 1.0}, "budget": 1}]}, fh)
        code, _, err = run(
            capsys, "curate", workspace["pool"], "--config", bad,
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "unknown feature name" in err

    def test_non_object_task_is_a_domain_error(self, capsys, workspace, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"tasks": [3]}, fh)
        code, _, err = run(
            capsys, "curate", workspace["pool"], "--config", bad,
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "Traceback" not in err
        assert "'tasks' must be a list of objects" in err

    def test_over_budget_warns_on_stderr_but_succeeds(self, capsys, workspace, tmp_path):
        greedy = str(tmp_path / "greedy.json")
        with open(greedy, "w") as fh:
            json.dump({"tasks": CONFIG["tasks"], "k_div": 50}, fh)
        code, _, err = run(
            capsys, "curate", workspace["pool"], "--config", greedy,
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert "warning:" in err and "fall short" in err


class TestBaseline:
    def test_random_selection(self, capsys, workspace, tmp_path):
        out = str(tmp_path / "rn.json")
        code, stdout, _ = run(
            capsys, "baseline", workspace["pool"], "--method", "random",
            "-k", "2", "--seed", "5", "--out", out,
        )
        assert code == 0
        with open(out) as fh:
            obj = json.load(fh)
        assert validate_result_obj(obj) == []
        assert obj["method"] == "random"
        assert len(obj["selected"]) == 2

    def test_entropy_selection(self, capsys, workspace, tmp_path):
        out = str(tmp_path / "al.json")
        code, _, _ = run(
            capsys, "baseline", workspace["pool"], "--method", "entropy",
            "-k", "2", "--forecasts", workspace["forecasts"], "--out", out,
        )
        assert code == 0
        with open(out) as fh:
            obj = json.load(fh)
        assert obj["method"] == "entropy"
        audit_values = [e["value"] for e in obj["audit"]]
        assert audit_values == sorted(audit_values, reverse=True)

    def test_entropy_without_forecasts_is_usage(self, capsys, workspace, tmp_path):
        code, _, err = run(
            capsys, "baseline", workspace["pool"], "--method", "entropy",
            "-k", "1", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "--forecasts" in err

    def test_negative_budget_is_usage(self, capsys, workspace, tmp_path):
        code, _, err = run(
            capsys, "baseline", workspace["pool"], "--method", "random",
            "-k", "-1", "--out", str(tmp_path / "r.json"),
        )
        assert code == 1
        assert "budget" in err

    def test_negative_seed_is_usage(self, capsys, workspace, tmp_path):
        out = str(tmp_path / "r.json")
        code, _, err = run(
            capsys, "baseline", workspace["pool"], "--method", "random",
            "-k", "3", "--seed", "-1", "--out", out,
        )
        assert code == 1
        assert "--seed" in err and "Traceback" not in err
        assert not os.path.exists(out)

    def test_malformed_forecast_horizon_is_a_domain_error(self, capsys, workspace, tmp_path):
        forecasts = str(tmp_path / "forecasts.jsonl")
        shutil.copy(workspace["forecasts"], forecasts)
        damage_line(forecasts, 1, lambda header: header.__setitem__("horizon", "x"))
        code, _, err = run(
            capsys, "baseline", workspace["pool"], "--method", "entropy",
            "-k", "1", "--forecasts", forecasts, "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "Traceback" not in err
        assert f"{forecasts} line 1" in err

    def test_forecast_coverage_gap_is_a_domain_error(self, capsys, workspace, tmp_path):
        header_only = str(tmp_path / "empty_forecasts.jsonl")
        with open(header_only, "w") as fh:
            fh.write('{"kind":"forecast_header","schema_version":1,"horizon":5}\n')
        code, _, err = run(
            capsys, "baseline", workspace["pool"], "--method", "entropy",
            "-k", "1", "--forecasts", header_only, "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert "no forecasts for snippet(s)" in err


class TestReport:
    @pytest.fixture()
    def result_path(self, capsys, workspace, tmp_path):
        out = str(tmp_path / "result.json")
        assert (
            run(
                capsys, "curate", workspace["pool"], "--config", workspace["config"],
                "--out", out,
            )[0]
            == 0
        )
        return out

    def test_column_a_few_ulps_wide_is_one_histogram_bin(self):
        lo = 0.1
        hi = float(np.nextafter(lo, 1.0))
        rows = list(cli._histogram_rows(["x", "y"], np.array([[lo, 0.0], [hi, 1.0]])))
        assert rows[1] == ["x", 0, repr(lo), repr(hi), 2]
        assert len(rows) == 2 + cli.HISTOGRAM_BINS

    def test_summary_features_and_histograms(self, capsys, workspace, tmp_path, result_path):
        out_dir = str(tmp_path / "report")
        code, stdout, _ = run(
            capsys, "report", workspace["pool"], result_path, "--out-dir", out_dir
        )
        assert code == 0
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["kind"] == "curation_report"
        assert len(summary["features"]) == features.SNIPPET_DIM
        with open(os.path.join(out_dir, "features.csv")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + len(summary["selected"])
        assert os.path.exists(os.path.join(out_dir, "histograms.csv"))

    # recorded from the report writer that opened each CSV directly
    REPORT_DIGESTS = {
        "features.csv": "2cafc64d6d903964f24d7aa567c328f5e186bb7e0d3c805a6c170f624cb857df",
        "histograms.csv": "9cd6d311eb42eb292f2c40c718306b6c014281011ef5a852801c6abedbb515f2",
        "summary.json": "92ce5b68997570b9ad1a6b63f25f0df68b4e4be62422a57a146ab561b5f0e15c",
    }

    def test_every_output_is_written_atomically(self, capsys, workspace, tmp_path, monkeypatch):
        written = []
        real_write = scene.write_atomic

        def recording(path, text):
            written.append(os.path.relpath(path, tmp_path))
            real_write(path, text)

        assert cli.write_atomic is real_write  # the CSV writer holds the name too
        for module in (scene, cli):
            monkeypatch.setattr(module, "write_atomic", recording)
        pool, feats = str(tmp_path / "pool.jsonl"), str(tmp_path / "feats")
        forecasts, result = str(tmp_path / "forecasts.jsonl"), str(tmp_path / "result.json")
        out_dir = tmp_path / "report"
        commands = [
            ["synth", "--snippets", "4", "--frames", "40", "--seed", "3", "--jitter",
             "--out", pool, "--cards", str(tmp_path / "cards.json"), "--forecasts", forecasts],
            ["score", pool, "--out", feats],
            ["curate", pool, "--config", workspace["config"], "--features", feats, "--out", result],
            ["baseline", pool, "--method", "entropy", "-k", "2", "--forecasts", forecasts,
             "--out", str(tmp_path / "entropy.json")],
            ["report", pool, result, "--out-dir", str(out_dir)],
        ]
        for argv in commands:
            before = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")}
            written.clear()
            assert run(capsys, *argv)[0] == 0
            after = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")}
            assert sorted(written) == sorted(after - before - {"feats", "report"}), argv[0]
            for name in written:
                text = (tmp_path / name).read_text()
                assert text.endswith("\n"), name
                if name.endswith((".json", ".jsonl")):
                    for line in text.splitlines():
                        assert line == canonical_dumps(json.loads(line)), name
        got = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir))
        }
        assert got == self.REPORT_DIGESTS

    def test_detections_are_read_once_per_selected_snippet(
        self, capsys, workspace, tmp_path, result_path, monkeypatch
    ):
        # a scoring batch gates and groups its snippets' joined columns in
        # one call each: count the detection rows every call covers
        rows = {"detection_arrays": 0, "build_track_paths": 0}
        size = {
            "detection_arrays": lambda s, *_: len(s.det_frame),
            "build_track_paths": lambda det: len(det.in_roi),
        }

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                rows[name] += size[name](*args)
                return fn(*args, **kwargs)

            return wrapper

        for name in rows:
            wrapped = counted(name, getattr(traffic, name))
            monkeypatch.setattr(traffic, name, wrapped)
        out_dir = str(tmp_path / "report")
        assert run(capsys, "report", workspace["pool"], result_path, "--out-dir", out_dir)[0] == 0
        with open(result_path) as fh:
            selected = set(json.load(fh)["selected"])
        pool = load_pool(workspace["pool"])
        dets = sum(len(s.det_frame) for s in pool.snippets if s.snippet_id in selected)
        assert selected and dets > 0
        assert rows == {"detection_arrays": dets, "build_track_paths": dets}

    def test_reported_means_match_direct_scoring(self, capsys, workspace, tmp_path, result_path):
        out_dir = str(tmp_path / "report")
        assert run(capsys, "report", workspace["pool"], result_path, "--out-dir", out_dir)[0] == 0
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        pool = load_pool(workspace["pool"])
        by_id = {s.snippet_id: s for s in pool.snippets}
        rows = [
            features.compute_snippet_features(*measure_args(by_id[sid], pool.scene_map))[0].values
            for sid in summary["selected"]
        ]
        want = np.mean(np.stack(rows), axis=0)
        got = np.array([entry["mean"] for entry in summary["features"]])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_label_mix_keeps_tracks_outside_the_gate(self, capsys, tmp_path):
        # a parked car ("far") and a walker ("gone") that never come within
        # the 75 m gate keep their (class, motion) keys at 0.0
        def frames(*tracks):  # (frames seen, track_id, class, center, speed)
            return [tuple(make_detection(*t[1:]) for t in tracks if k in t[0]) for k in range(10)]

        ego = [(0.5 * k, 0.0) for k in range(10)]
        a = drive(ego, "a", "L0", detections=frames(
            (range(10), "near", "vehicle", (3.0, 0.0), 2.0),
            (range(10), "far", "vehicle", (500.0, 0.0), 0.0),
            (range(5), "walker", "pedestrian", (0.0, 5.0), 0.1),
        ))
        b = drive(ego, "b", "L1", detections=frames(
            (range(6, 10), "late", "bicyclist", (2.0, 2.0), 4.0),
            (range(10), "gone", "pedestrian", (0.0, 300.0), 1.5),
        ))
        pool, result = str(tmp_path / "pool.jsonl"), str(tmp_path / "result.json")
        scene.save_pool(pool_of([a, b]), pool)
        assert run(capsys, "baseline", pool, "--method", "random", "-k", "2", "--out", result)[0] == 0
        out_dir = tmp_path / "report"
        assert run(capsys, "report", pool, result, "--out-dir", str(out_dir))[0] == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["selected"] == ["a", "b"]
        # in-gate observations over the 20 frames
        assert summary["label_stats"] == {
            "bicyclist": {"dynamic": 4 / 20},
            "pedestrian": {"dynamic": 0.0, "static": 5 / 20},
            "vehicle": {"dynamic": 10 / 20, "static": 0.0},
        }

    def test_dangling_result_ids_rejected(self, capsys, workspace, tmp_path, result_path):
        with open(result_path) as fh:
            obj = json.load(fh)
        obj["selected"] = obj["selected"] + ["s_ghost"]
        tampered = str(tmp_path / "tampered.json")
        with open(tampered, "w") as fh:
            json.dump(obj, fh)
        code, _, err = run(
            capsys, "report", workspace["pool"], tampered, "--out-dir", str(tmp_path / "r")
        )
        assert code == 2
        assert "s_ghost" in err

    def test_result_schema_enforced(self, capsys, workspace, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"kind": "curation_result", "method": "curate"}, fh)
        code, _, err = run(
            capsys, "report", workspace["pool"], bad, "--out-dir", str(tmp_path / "r")
        )
        assert code == 2
        assert "missing key" in err

    def test_unparseable_result_rejected(self, capsys, workspace, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            fh.write("{nope")
        code, _, err = run(
            capsys, "report", workspace["pool"], bad, "--out-dir", str(tmp_path / "r")
        )
        assert code == 2
        assert "not valid JSON" in err


SYNTH = ["synth", "--frames", "60"]
# each command's argv given its output path, and for a command whose output
# is a directory, the first file it writes or removes there
OUTPUTS = {
    "synth": (lambda ws, tmp, out: [*SYNTH, "--out", out], None),
    "synth --cards": (lambda ws, tmp, out: [*SYNTH, "--out", f"{tmp}/p.jsonl", "--cards", out], None),
    "synth --forecasts": (
        lambda ws, tmp, out: [*SYNTH, "--out", f"{tmp}/p.jsonl", "--forecasts", out], None
    ),
    "score": (lambda ws, tmp, out: ["score", ws["pool"], "--out", out], "provenance.json"),
    "curate": (
        lambda ws, tmp, out: ["curate", ws["pool"], "--config", ws["config"], "--out", out], None
    ),
    "baseline": (
        lambda ws, tmp, out: ["baseline", ws["pool"], "--method", "random", "-k", "1", "--out", out],
        None,
    ),
    "report": (
        lambda ws, tmp, out: ["report", ws["pool"], ws["result"], "--out-dir", out], "summary.json"
    ),
}


class TestUnwritableOutput:
    @pytest.fixture(scope="class")
    def ws(self, workspace):
        result = str(workspace["root"] / "unwritable_result.json")
        argv = ["curate", workspace["pool"], "--config", workspace["config"], "--out", result]
        assert main(argv) == 0
        return {**workspace, "result": result}

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    @pytest.mark.parametrize("blocker", ["file where a directory goes", "directory where the file goes"])
    def test_unwritable_output_is_a_domain_error(self, capsys, ws, tmp_path, command, blocker):
        argv, first = OUTPUTS[command]
        if blocker == "file where a directory goes":
            blocked = tmp_path / "blocker"
            blocked.write_text("")
            out = blocked if first else blocked / "out.json"
        else:
            out = tmp_path / "out"
            blocked = out / first if first else out
            blocked.mkdir(parents=True)
        code, _, err = run(capsys, *argv(ws, tmp_path, str(out)))
        assert code == 2
        assert "Traceback" not in err
        assert f"error: cannot write {blocked}" in err
        assert not list(tmp_path.rglob(".tmp-*.part"))
        # no new file: a synth output that fails removes those written before it
        assert [p for p in tmp_path.rglob("*") if p.is_file() and p != blocked] == []

    def test_failed_forecasts_remove_the_pool_map_and_cards(self, capsys, tmp_path):
        blocked = tmp_path / "f.jsonl"
        blocked.mkdir()
        cards = ["--cards", str(tmp_path / "cards.json")]
        argv = [*SYNTH, "--out", str(tmp_path / "p.jsonl"), *cards, "--forecasts", str(blocked)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"error: cannot write {blocked}" in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_pool_is_removed_when_its_map_cannot_be_written(self, capsys, tmp_path):
        blocked = tmp_path / "scene.map.json"
        blocked.mkdir()
        code, _, err = run(capsys, *SYNTH, "--out", str(tmp_path / "p.jsonl"))
        assert code == 2
        assert f"error: cannot write {blocked}" in err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_missing_parent_directory_is_created(self, capsys, ws, tmp_path, command):
        argv, first = OUTPUTS[command]
        out = tmp_path / "new" / "dir" / "out"
        assert run(capsys, *argv(ws, tmp_path, str(out)))[0] == 0
        assert (out / first if first else out).is_file()


class TestSchema:
    def test_schema_prints_machine_readable_layout(self, capsys):
        code, stdout, _ = run(capsys, "schema")
        assert code == 0
        obj = json.loads(stdout)
        assert len(obj["snippet"]) == features.SNIPPET_DIM
        assert len(obj["frame"]) == features.FRAME_DIM
        assert obj["snippet"][0]["index"] == 0
