import json

import numpy as np
import pytest

from logcurator import features
from logcurator.baselines import snippet_entropy
from logcurator.scene import load_pool, save_pool, snippets_overlap
from logcurator.synthgen import (
    ScenarioError,
    ScenarioSpec,
    default_spec,
    generate_pool,
    synth_forecasts,
    validate_spec,
)

from support import measure_args


def quiet_spec(**overrides):
    base = dict(
        n_parked=0,
        n_movers=0,
        n_pedestrians=0,
        with_circle=False,
        crossing_road=False,
        crossing_actors=False,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def measure(pool, snippet_id):
    s = next(x for x in pool.snippets if x.snippet_id == snippet_id)
    vec, _ = features.compute_snippet_features(*measure_args(s, pool.scene_map))
    return vec, dict(zip(features.SNIPPET_FEATURE_NAMES, vec.values))


def assert_card_closes(spec):
    pool, cards = generate_pool(spec)
    for sid, card in cards.items():
        vec, named = measure(pool, sid)
        assert vec.valid
        for name, (value, tol) in card.fields.items():
            assert named[name] == pytest.approx(value, abs=tol), f"{sid}:{name}"


class TestCards:
    def test_empty_cruise_card_is_all_zero_and_closes(self):
        pool, cards = generate_pool(quiet_spec(num_frames=80))
        card = cards["s0000"]
        assert card is not None
        assert all(value == 0.0 for value, _ in card.fields.values())
        vec, _ = measure(pool, "s0000")
        assert vec.valid
        assert np.max(np.abs(vec.values)) < 1e-9

    def test_turn_card_reads_the_corner_radius(self):
        spec = default_spec("straight_road", "turn", turn_radius=20.0)
        pool, cards = generate_pool(spec)
        value, tol = cards["s0000"].fields["sdv_path"]
        assert value == 0.05 and tol == 2e-3
        _, named = measure(pool, "s0000")
        assert named["sdv_path"] == pytest.approx(0.05, abs=tol)
        assert named["turns"] == 1.0

    def test_three_vehicles_one_walker_mix(self):
        spec = quiet_spec(n_parked=1, n_movers=2, n_pedestrians=1)
        pool, cards = generate_pool(spec)
        value, tol = cards["s0000"].fields["class_div"]
        assert value == 2.0
        _, named = measure(pool, "s0000")
        assert named["class_div"] == pytest.approx(2.0, abs=tol)

    def test_speed_ramp_card_closes(self):
        assert_card_closes(default_spec("straight_road", "speed_ramp"))

    def test_curved_road_cruise_card_closes(self):
        assert_card_closes(default_spec("curved_road", "cruise"))

    def test_card_round_trips_through_plain_objects(self):
        _, cards = generate_pool(quiet_spec(num_frames=10))
        card = cards["s0000"]
        obj = json.loads(json.dumps(card.to_obj()))
        assert obj["snippet_id"] == card.snippet_id
        assert {k: (d["value"], d["tol"]) for k, d in obj["fields"].items()} == card.fields


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = ScenarioSpec(seed=7, n_snippets=3, num_frames=40, jitter=True)
        for sub in ("one", "two"):
            pool, _ = generate_pool(spec)
            save_pool(pool, str(tmp_path / sub / "pool.jsonl"))
        for name in ("pool.jsonl", "scene.map.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_jitter_varies_between_logs_not_reruns(self):
        spec = ScenarioSpec(seed=7, n_snippets=2, num_frames=40, jitter=True)
        pool, cards = generate_pool(spec)
        assert all(card is None for card in cards.values())
        a, b = pool.snippets
        va = a.ego_pose[1, 0] - a.ego_pose[0, 0]
        vb = b.ego_pose[1, 0] - b.ego_pose[0, 0]
        assert va != vb

    def test_generated_pools_pass_validation(self, tmp_path):
        spec = default_spec("four_way_intersection", "cruise", n_snippets=2, num_frames=60)
        pool, _ = generate_pool(spec)
        path = str(tmp_path / "pool.jsonl")
        save_pool(pool, path)
        back = load_pool(path)
        assert [s.snippet_id for s in back.snippets] == ["s0000", "s0001"]


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides,msg",
        [
            ({"template": "tunnel"}, "unknown template"),
            ({"plan": "drift"}, "unknown plan"),
            ({"n_snippets": 0}, "at least 1 snippet"),
            ({"plan": "speed_ramp", "num_frames": 2}, "at least 3 frames"),
            ({"plan": "lane_change", "num_frames": 30}, "at least 60 frames"),
            ({"plan": "nudge", "num_frames": 59}, "at least 60 frames"),
            ({"plan": "turn"}, "too short"),
            (
                {"template": "four_way_intersection", "crossing_road": False},
                "requires the crossing road",
            ),
            ({"crossing_road": False}, "crossing actors require"),
            ({"n_movers": 5}, "at most 4 moving"),
            ({"overlap_every": 1}, "overlap_every"),
        ],
    )
    def test_infeasible_specs_rejected(self, overrides, msg):
        with pytest.raises(ScenarioError, match=msg):
            validate_spec(ScenarioSpec(**overrides))

    def test_default_spec_trims_clashing_props(self):
        for template in ("straight_road", "four_way_intersection", "hilly"):
            for plan in ("cruise", "turn", "nudge"):
                validate_spec(default_spec(template, plan))
        turn = default_spec("straight_road", "turn")
        assert not turn.with_circle and not turn.crossing_road
        inter = default_spec("four_way_intersection", "turn")
        assert inter.crossing_road


class TestPoolShapes:
    def test_overlapping_windows_share_logs(self):
        spec = quiet_spec(n_snippets=4, num_frames=40, overlap_every=2)
        pool, cards = generate_pool(spec)
        assert all(card is None for card in cards.values())
        s = {x.snippet_id: x for x in pool.snippets}
        assert s["s0000"].log_id == s["s0001"].log_id
        assert s["s0002"].log_id == s["s0003"].log_id
        assert s["s0001"].log_id != s["s0002"].log_id
        assert snippets_overlap(s["s0000"], s["s0001"])
        assert not snippets_overlap(s["s0001"], s["s0002"])
        assert s["s0001"].frame_range == (20, 59)

    def test_bicycle_cadence(self):
        spec = quiet_spec(n_snippets=6, num_frames=30, bicycle_every=3)
        pool, _ = generate_pool(spec)
        for j, s in enumerate(sorted(pool.snippets, key=lambda x: x.snippet_id)):
            labels = {s.classes[c] for c in s.det_label.tolist()}
            assert ("bicyclist" in labels) == (j % 3 == 0)

    def test_snippet_windows_and_ids(self):
        pool, _ = generate_pool(quiet_spec(n_snippets=3, num_frames=25, id_prefix="pool_a_"))
        assert [s.snippet_id for s in pool.snippets] == [
            "pool_a_0000",
            "pool_a_0001",
            "pool_a_0002",
        ]
        assert all(s.frame_range == (0, 24) for s in pool.snippets)
        assert len({s.log_id for s in pool.snippets}) == 3


class TestForecasts:
    def test_every_snippet_gets_scoreable_forecasts(self):
        spec = quiet_spec(n_parked=1, n_movers=2, n_pedestrians=1, n_snippets=6, num_frames=30)
        pool, _ = generate_pool(spec)
        forecasts = synth_forecasts(pool)
        assert set(forecasts) == {s.snippet_id for s in pool.snippets}
        entropies = {sid: snippet_entropy(fc) for sid, fc in forecasts.items()}
        assert all(np.isfinite(v) for v in entropies.values())
        # graded covariance scales force distinct ranks inside each cycle of 5
        assert len(set(round(v, 6) for v in entropies.values())) > 1

    def test_horizon_steps_enumerated(self):
        pool, _ = generate_pool(quiet_spec(n_parked=1, n_movers=1, num_frames=10))
        fc = synth_forecasts(pool, horizon=4)["s0000"]
        assert fc.horizon == 4
        assert set(fc.timestep.tolist()) == {1, 2, 3, 4}

    def test_actor_cap_respected(self):
        pool, _ = generate_pool(quiet_spec(n_parked=2, n_movers=1, num_frames=10))
        fc = synth_forecasts(pool, horizon=3, actors_per_frame=1)["s0000"]
        for frame_index in set(fc.frame_index.tolist()):
            rows = np.flatnonzero(fc.frame_index == frame_index)
            assert len({fc.actor_id[i] for i in rows}) == 1
