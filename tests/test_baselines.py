import json

import numpy as np
import pytest

from logcurator.baselines import (
    ForecastEntry,
    ForecastError,
    GaussianForecast,
    al_select,
    baseline_result,
    entry_entropy,
    load_forecasts,
    random_select,
    snippet_entropy,
    write_forecasts,
)
from logcurator.selection import result_to_obj, validate_result_obj

from support import forecast_rows


def entry(actor="a0", step=0, mu=(0.0, 0.0), cov=(1.0, 0.0, 1.0)):
    return ForecastEntry(actor, step, mu, cov)


def forecast(sid, frames, horizon=6):
    """The columns of {frame_index: [entry, ...]}, frames in ascending order."""
    rows = [(fi, e) for fi in sorted(frames) for e in frames[fi]]
    return GaussianForecast(
        sid,
        horizon,
        frame_index=np.array([fi for fi, _ in rows], dtype=int),
        actor_id=tuple(e.actor_id for _, e in rows),
        timestep=np.array([e.timestep for _, e in rows], dtype=int),
        mu=np.array([e.mu for _, e in rows], dtype=float).reshape(-1, 2),
        cov=np.array([e.cov for _, e in rows], dtype=float).reshape(-1, 3),
    )



def rotated_cov(sxx, syy, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([sxx, syy]) @ rot.T
    return (float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))


class TestEntropy:
    def test_unit_gaussian_reference_value(self):
        got = entry_entropy(entry())
        assert got == pytest.approx(np.log(2.0 * np.pi * np.e), abs=1e-9)

    def test_stretched_axis_adds_half_log_det(self):
        got = entry_entropy(entry(cov=(4.0, 0.0, 1.0)))
        assert got == pytest.approx(np.log(2.0 * np.pi * np.e) + np.log(2.0), abs=1e-9)

    def test_rotation_leaves_entropy_alone(self):
        base = entry_entropy(entry(cov=(3.0, 0.0, 0.5)))
        for theta in (0.3, 1.1, 2.7, -0.8):
            got = entry_entropy(entry(cov=rotated_cov(3.0, 0.5, theta)))
            assert got == pytest.approx(base, abs=1e-9)

    def test_mean_is_irrelevant(self):
        assert entry_entropy(entry(mu=(512.0, -77.0))) == entry_entropy(entry())

    @pytest.mark.parametrize("cov", [(0.0, 0.0, 1.0), (1.0, 2.0, 1.0), (-1.0, 0.0, -1.0)])
    def test_degenerate_covariance_rejected(self, cov):
        with pytest.raises(ForecastError, match="positive definite"):
            entry_entropy(entry(cov=cov))

    def test_frame_entropy_adds_exactly(self):
        one = snippet_entropy(forecast("s0", {4: [entry()]}))
        two = snippet_entropy(forecast("s0", {4: [entry("a0"), entry("a1")]}))
        assert two == 2.0 * one

    def test_snippet_entropy_sums_frames(self):
        fc = forecast("s0", {0: [entry()], 7: [entry("a1"), entry("a2")]})
        assert snippet_entropy(fc) == pytest.approx(3.0 * entry_entropy(entry()), rel=1e-12)

    def test_covariance_scaling_adds_log_c_per_entry(self):
        frames = {
            fi: [entry(f"a{j}", t) for j in range(2) for t in range(3)]
            for fi in (0, 5)
        }
        base = snippet_entropy(forecast("s0", frames))
        scaled = {
            fi: [
                ForecastEntry(e.actor_id, e.timestep, e.mu, (4.0, 0.0, 4.0))
                for e in es
            ]
            for fi, es in frames.items()
        }
        got = snippet_entropy(forecast("s0", scaled))
        assert got == pytest.approx(base + 12.0 * np.log(4.0), abs=1e-9)

    def test_bad_frame_reported_with_context(self):
        fc = forecast("s_bad", {3: [entry(cov=(1.0, 5.0, 1.0))]})
        with pytest.raises(ForecastError, match="s_bad frame 3"):
            snippet_entropy(fc)


class TestRandomSelect:
    IDS = [f"s{i:02d}" for i in range(6)]

    def no_overlap(self):
        return {sid: set() for sid in self.IDS}

    def test_zero_budget(self):
        picked, audit = random_select(self.IDS, self.no_overlap(), 0, seed=1)
        assert picked == [] and audit == []

    def test_full_budget_is_a_permutation(self):
        picked, audit = random_select(self.IDS, self.no_overlap(), len(self.IDS), seed=9)
        assert sorted(picked) == self.IDS
        assert [e.snippet_id for e in audit] == picked
        assert all(e.task == "rn" and e.value is None for e in audit)

    def test_same_seed_repeats_different_seed_moves(self):
        first, _ = random_select(self.IDS, self.no_overlap(), 4, seed=42)
        again, _ = random_select(self.IDS, self.no_overlap(), 4, seed=42)
        assert first == again
        orders = {tuple(random_select(self.IDS, self.no_overlap(), 4, seed=s)[0]) for s in range(8)}
        assert len(orders) > 1

    def test_input_order_is_irrelevant(self):
        shuffled = list(reversed(self.IDS))
        a, _ = random_select(self.IDS, self.no_overlap(), 3, seed=5)
        b, _ = random_select(shuffled, self.no_overlap(), 3, seed=5)
        assert a == b

    def test_overlapping_pair_never_coselected(self):
        adjacency = {sid: set() for sid in self.IDS}
        adjacency["s00"].add("s01")
        adjacency["s01"].add("s00")
        for seed in range(20):
            picked, audit = random_select(self.IDS, adjacency, len(self.IDS), seed=seed)
            assert not ({"s00", "s01"} <= set(picked))
            assert len(picked) == len(self.IDS) - 1
            blockers = [e for e in audit if e.eliminated]
            assert len(blockers) == 1 and blockers[0].snippet_id in {"s00", "s01"}


class TestEntropySelect:
    def pool(self, spread):
        forecasts = {}
        for sid, c in spread.items():
            frames = {fi: [entry("a0", t, cov=(c, 0.0, c)) for t in range(2)] for fi in range(2)}
            forecasts[sid] = forecast(sid, frames)
        return forecasts

    def test_widest_forecasts_picked_first(self):
        forecasts = self.pool({"s_a": 1.0, "s_b": 16.0, "s_c": 4.0})
        adjacency = {sid: set() for sid in forecasts}
        picked, audit = al_select(sorted(forecasts), forecasts, adjacency, 2)
        assert picked == ["s_b", "s_c"]
        assert audit[0].value > audit[1].value
        assert all(e.task == "al" for e in audit)

    def test_ties_fall_back_to_ascending_id(self):
        forecasts = self.pool({"s_c": 1.0, "s_a": 1.0, "s_b": 1.0})
        adjacency = {sid: set() for sid in forecasts}
        picked, _ = al_select(sorted(forecasts), forecasts, adjacency, 2)
        assert picked == ["s_a", "s_b"]

    def test_missing_forecasts_named(self):
        forecasts = self.pool({"s_a": 1.0})
        ids = ["s_a"] + [f"s_missing{i}" for i in range(10)]
        with pytest.raises(ForecastError, match="s_missing0") as exc:
            al_select(ids, forecasts, {sid: set() for sid in ids}, 1)
        assert "s_missing7" in str(exc.value)
        assert "s_missing8" not in str(exc.value)

    def test_overlap_bumps_to_next_best(self):
        forecasts = self.pool({"s_a": 16.0, "s_b": 8.0, "s_c": 1.0})
        adjacency = {"s_a": {"s_b"}, "s_b": {"s_a"}, "s_c": set()}
        picked, audit = al_select(sorted(forecasts), forecasts, adjacency, 2)
        assert picked == ["s_a", "s_c"]
        assert audit[0].eliminated == ("s_b",)

    def test_zero_budget(self):
        forecasts = self.pool({"s_a": 1.0})
        picked, audit = al_select(["s_a"], forecasts, {"s_a": set()}, 0)
        assert picked == [] and audit == []


class TestBaselineResult:
    def test_result_shape_and_validation(self):
        picked, audit = random_select(["s_a", "s_b"], {"s_a": set(), "s_b": set()}, 1, seed=3)
        res = baseline_result("rn", 1, picked, audit, seed=3)
        obj = result_to_obj(res)
        assert validate_result_obj(obj) == []
        assert obj["method"] == "rn"
        assert obj["tasks"] == [{"name": "rn", "budget": 1, "snippet_ids": picked}]
        assert obj["diverse"] == {"budget": 0, "snippet_ids": []}
        assert obj["warnings"] == []

    def test_short_selection_warns(self):
        res = baseline_result("al", 5, ["s_a"], [], seed=0)
        assert res.warnings == ["baseline al: selected 1 of 5"]


class TestForecastFiles:
    def sample(self):
        return {
            "s_a": forecast(
                "s_a",
                {
                    0: [entry("a0", 0, (1.0, 2.0), (2.0, 0.5, 1.0)), entry("a1", 0)],
                    3: [entry("a0", 1, (-4.0, 0.25), (1.5, 0.0, 1.5))],
                },
            ),
            "s_b": forecast("s_b", {1: [entry("b0", 2, (0.0, 9.0), (3.0, 1.0, 2.0))]}),
        }

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "forecasts.jsonl")
        write_forecasts(path, self.sample(), horizon=6)
        back = load_forecasts(path)
        assert set(back) == {"s_a", "s_b"}
        assert back["s_a"].horizon == 6
        assert forecast_rows(back["s_a"]) == forecast_rows(self.sample()["s_a"])
        assert forecast_rows(back["s_b"]) == forecast_rows(self.sample()["s_b"])

    def test_rewrite_is_byte_stable(self, tmp_path):
        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        write_forecasts(str(one), self.sample(), horizon=6)
        write_forecasts(str(two), load_forecasts(str(one)), horizon=6)
        assert one.read_bytes() == two.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ForecastError, match="cannot read"):
            load_forecasts(str(tmp_path / "none.jsonl"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ForecastError, match="empty"):
            load_forecasts(str(path))

    def test_header_must_parse(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(ForecastError, match="header is not valid JSON"):
            load_forecasts(str(path))

    def test_header_must_come_first(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "forecast"}\n')
        with pytest.raises(ForecastError, match="first record must be the forecast header"):
            load_forecasts(str(path))

    def test_broken_line_is_located(self, tmp_path):
        path = str(tmp_path / "forecasts.jsonl")
        write_forecasts(path, self.sample(), horizon=6)
        lines = open(path).read().splitlines()
        lines[2] = "{broken"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ForecastError, match="line 3: invalid JSON"):
            load_forecasts(path)

    def test_foreign_record_is_located(self, tmp_path):
        path = str(tmp_path / "forecasts.jsonl")
        write_forecasts(path, self.sample(), horizon=6)
        lines = open(path).read().splitlines()
        lines.insert(1, '{"kind": "snippet"}')
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ForecastError, match="line 2: expected a forecast record"):
            load_forecasts(path)

    def test_incomplete_record_is_located(self, tmp_path):
        path = str(tmp_path / "forecasts.jsonl")
        write_forecasts(path, self.sample(), horizon=6)
        lines = open(path).read().splitlines()
        lines[1] = '{"kind": "forecast", "snippet_id": "s_a"}'
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ForecastError, match="line 2: malformed"):
            load_forecasts(path)

    @pytest.mark.parametrize(
        "field,value,rule",
        [
            ("frame_index", 2.7, "every frame_index must be an integer"),
            ("timestep", "3", "every timestep must be an integer"),
            ("timestep", True, "every timestep must be an integer"),
            ("mu", [1.0, "2.5"], "every mu and cov value must be a number"),
            ("mu", [1.0, float("nan")], "every mu and cov value must be finite"),
            ("cov", [1.0, 0.0, float("inf")], "every mu and cov value must be finite"),
            ("cov", [1.0, 0.0, 10**400], "every mu and cov value must be a number"),
            ("cov", [1.0, 0.0], "cov an array of 3"),
            ("mu", {"x": 1.0, "y": 2.0}, "mu must be an array of 2 numbers"),
        ],
    )
    def test_bad_number_is_located(self, tmp_path, field, value, rule):
        path = str(tmp_path / "forecasts.jsonl")
        write_forecasts(path, self.sample(), horizon=6)
        lines = open(path).read().splitlines()
        record = json.loads(lines[2])
        record[field] = value
        lines[2] = json.dumps(record)
        lines[3] = lines[3].replace('"timestep":1', '"timestep":0.5')  # a later fault is not named
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ForecastError, match=f"{path} line 3: malformed forecast record: ") as exc:
            load_forecasts(path)
        assert rule in str(exc.value)

    def test_integral_float_frame_index_is_accepted(self, tmp_path):
        path = str(tmp_path / "forecasts.jsonl")
        write_forecasts(path, self.sample(), horizon=6)
        text = open(path).read().replace('"frame_index":3', '"frame_index":3.0')
        with open(path, "w") as fh:
            fh.write(text)
        assert load_forecasts(path)["s_a"].frame_index.tolist() == [0, 0, 3]


class TestEntropyOverflow:
    def test_overflowing_covariance_is_named(self):
        fc = forecast("s_big", {0: [entry()], 5: [entry("a7", 2, cov=(1e308, 0.0, 1e308))]})
        with pytest.raises(ForecastError, match="snippet s_big frame 5: covariance for actor a7 step 2 has no finite entropy"):
            al_select(["s_big"], {"s_big": fc}, {"s_big": set()}, 1)

    def test_non_positive_definite_row_is_named_before_an_overflow(self):
        frames = {0: [entry("a0", 1, cov=(1e308, 0.0, 1e308))], 2: [entry("a1", 4, cov=(1.0, 3.0, 1.0))]}
        with pytest.raises(ForecastError, match="snippet s0 frame 2: covariance for actor a1 step 4 is not positive definite"):
            snippet_entropy(forecast("s0", frames))

    def test_entry_entropy_rejects_an_overflow(self):
        with pytest.raises(ForecastError, match="^covariance for actor a0 step 0 has no finite entropy$"):
            entry_entropy(entry(cov=(1e200, 0.0, 1e200)))
