import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from logcurator import selection
from logcurator.features import FeatureBundle, NormalizationStats, SNIPPET_DIM, SNIPPET_FEATURE_NAMES
from logcurator.geometry import CURVE_VALUES
from logcurator.scene import Snippet, canonical_dumps, snippets_overlap
from logcurator.selection import (
    AuditEntry,
    ConfigError,
    CurationConfig,
    TaskConfig,
    config_from_obj,
    curate,
    dissimilarity,
    overlap_adjacency,
    resolve_weights,
    result_to_obj,
    select_challenging,
    select_diverse,
    validate_result_obj,
)

from support import drive


def identity_stats(dim):
    return NormalizationStats(np.zeros(dim), np.ones(dim), ())


def toy_bundle(values, frames, valid=None):
    """Bundle with hand-picked features and identity normalization."""
    ids = sorted(values)
    matrix = np.array([np.atleast_1d(values[sid]) for sid in ids], dtype=float)
    frame_mats = {
        sid: np.atleast_2d(np.asarray(frames[sid], dtype=float)) for sid in ids
    }
    ok = np.array([True if valid is None else valid[sid] for sid in ids], dtype=bool)
    fdim = next(iter(frame_mats.values())).shape[1]
    return FeatureBundle(
        ids, matrix, ok, frame_mats, identity_stats(matrix.shape[1]), identity_stats(fdim)
    )


def snippet_row(snippet_id, log_id, first=0, n=3):
    return drive(
        [(float(k), 0.0) for k in range(n)],
        snippet_id=snippet_id,
        log_id=log_id,
        first=first,
    )


def pick_value(values, weights):
    """Audit value of a one-snippet, one-task challenging phase."""
    task = TaskConfig("t", np.asarray(weights, dtype=float), 1)
    _, audit = select_challenging(["s0"], np.array([values]), np.array([True]), [task], {"s0": set()})
    return audit[0].value


class TestScore:
    def test_zero_weights_score_zero(self):
        assert pick_value([5.0, -2.0, 9.0], np.zeros(3)) == 0.0

    def test_basis_weight_reads_one_slot(self):
        assert pick_value([5.0, -2.0, 9.0], [0.0, 1.0, 0.0]) == -2.0

    def test_weighted_sum(self):
        assert pick_value([1.0, 2.0, 3.0], [0.5, 0.0, 1.0]) == 3.5

    def test_audit_values_are_row_dot_weights(self):
        rng = np.random.default_rng(3)
        ids = [f"s{i:02d}" for i in range(12)]
        matrix = rng.normal(size=(12, SNIPPET_DIM))
        tasks = [TaskConfig(f"t{j}", rng.normal(size=SNIPPET_DIM), 3) for j in range(2)]
        weights = {t.name: t.weights for t in tasks}
        adjacency = {sid: set() for sid in ids}
        _, audit = select_challenging(ids, matrix, np.ones(12, dtype=bool), tasks, adjacency)
        assert len(audit) == 6
        for e in audit:
            assert e.value == float(matrix[ids.index(e.snippet_id)] @ weights[e.task])


class TestWeightsAndConfig:
    def test_named_weights_fill_their_slots(self):
        w = resolve_weights({"class_div": 2.0, "nudges": -1.0})
        assert w.shape == (SNIPPET_DIM,)
        assert w[SNIPPET_FEATURE_NAMES.index("class_div")] == 2.0
        assert w[SNIPPET_FEATURE_NAMES.index("nudges")] == -1.0
        assert np.count_nonzero(w) == 2

    def test_unknown_feature_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown feature name"):
            resolve_weights({"velocity": 1.0})

    def test_list_weights_must_span_schema(self):
        full = resolve_weights([0.0] * SNIPPET_DIM)
        assert full.shape == (SNIPPET_DIM,)
        with pytest.raises(ConfigError, match="entries"):
            resolve_weights([1.0, 2.0])

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            resolve_weights({"class_div": float("nan")})

    def test_defaults_from_empty_object(self):
        cfg = config_from_obj({})
        assert cfg.tasks == ()
        assert cfg.k_div == 0
        assert cfg.normalization == "zscore"
        assert cfg.dissimilarity == "directed"

    def test_scalars_take_their_field_types(self):
        cfg = config_from_obj({"k_div": 3.0, "roi_radius": 50, "normalization": "none"})
        assert cfg.k_div == 3 and type(cfg.k_div) is int
        task = {"name": "t", "weights": {}, "budget": 1.0}
        budget = config_from_obj({"tasks": [task]}).tasks[0].budget
        assert budget == 1 and type(budget) is int
        assert cfg.roi_radius == 50.0 and type(cfg.roi_radius) is float
        assert cfg.normalization == "none"
        assert config_from_obj({"resample_points": CURVE_VALUES}).resample_points == CURVE_VALUES

    @pytest.mark.parametrize(
        "obj,msg",
        [
            ([], "JSON object"),
            ({"tasks": [{"name": "t", "budget": 1}]}, "task missing field"),
            (
                {
                    "tasks": [
                        {"name": "t", "weights": {}, "budget": 1},
                        {"name": "t", "weights": {}, "budget": 1},
                    ]
                },
                "duplicate task name",
            ),
            ({"tasks": [{"name": "t", "weights": {}, "budget": -1}]}, "non-negative"),
            ({"tasks": [{"name": "t", "weights": {}, "budget": 1.5}]}, "non-negative"),
            ({"k_div": -1}, "k_div"),
            ({"seed": -5}, "seed"),
            ({"roi_radius": 0.0}, "roi_radius"),
            ({"resample_points": 2}, "resample_points"),
            ({"resample_points": CURVE_VALUES + 1}, f"resample_points must be >= 3 and <= {CURVE_VALUES}"),
            ({"resample_points": 1e300}, "resample_points"),
            ({"normalization": "minmax"}, "normalization"),
            ({"dissimilarity": "hausdorff"}, "dissimilarity"),
            ({"k_div": 2.7}, "'k_div' must be an integer"),
            ({"tasks": [{"name": "t", "weights": {}, "budget": True}]}, "budget"),
            ({"tasks": [{"name": "t", "weights": {}, "budget": "2"}]}, "non-negative"),
            ({"tasks": [{"name": "t", "weights": {}, "budget": float("inf")}]}, "non-negative"),
            ({"tasks": [{"name": None, "weights": {}, "budget": 1}]}, "task name must be a string"),
            ({"tasks": [{"name": 5, "weights": {}, "budget": 1}]}, "task name must be a string"),
            ({"tasks": [{"name": ["a"], "weights": {}, "budget": 1}]}, "task name must be a string"),
            ({"horizon": float("nan")}, "'horizon' must be finite"),
            ({"kdiv": 3}, "unknown config field.*'kdiv'"),
            ({"seed": True}, "'seed' must be a number"),
            ({"roi_radius": "75"}, "'roi_radius' must be a number"),
            ({"normalization": 1}, "'normalization' must be a string"),
            ({"tasks": [3]}, "'tasks' must be a list of objects"),
            ({"tasks": {"a": 1}}, "'tasks' must be a list of objects"),
            ({"tasks": 3}, "'tasks' must be a list of objects"),
            (
                {"tasks": [{"name": "t", "weights": {"turns": "x"}, "budget": 1}]},
                "task 't': weight of feature 'turns' must be a number",
            ),
            (
                {"tasks": [{"name": "t", "weights": ["x"] * SNIPPET_DIM, "budget": 1}]},
                "task 't': weight of feature 'curve_mean' must be a number",
            ),
            (
                {"tasks": [{"name": "t", "weights": "x", "budget": 1}]},
                "task 't': weights must be an object",
            ),
            ({"near_dist": -3}, "near_dist must be >= 0"),
            ({"horizon": -5}, "horizon must be >= 0"),
            ({"static_speed": -0.1}, "static_speed must be >= 0"),
            ({"ego_width": -2.0}, "ego_width must be >= 0"),
            ({"nudge_object_dist": -1.0}, "nudge_object_dist must be >= 0"),
            ({"lane_change_min_frames": -1}, "lane_change_min_frames must be >= 0"),
            ({"nudge_min_bound_frames": -1}, "nudge_min_bound_frames must be >= 0"),
            ({"map_match_gate": -1}, "map_match_gate must be positive"),
            ({"map_match_gate": 0}, "map_match_gate must be positive"),
            ({"lane_width_fallback": 0}, "lane_width_fallback must be positive"),
            ({"map_match_min_frac": 7}, r"map_match_min_frac must be in \[0, 1\]"),
            ({"map_match_min_frac": -0.5}, r"map_match_min_frac must be in \[0, 1\]"),
        ],
    )
    def test_malformed_configs_rejected(self, obj, msg):
        with pytest.raises(ConfigError, match=msg):
            config_from_obj(obj)


class TestDissimilarity:
    def test_bitwise_equal_sets_score_exactly_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 4))
        assert dissimilarity(a, a.copy()) == 0.0

    def test_directed_asymmetry_one_dim(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0]])
        assert dissimilarity(a, b) == 1.0
        assert dissimilarity(b, a) == 0.0

    def test_two_dim_worst_frame(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        b = np.array([[0.0, 0.0]])
        assert dissimilarity(a, b) == 5.0

    def test_symmetric_mode_takes_the_max(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0]])
        assert dissimilarity(a, b, directed=False) == 1.0
        assert dissimilarity(b, a, directed=False) == 1.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims differ"):
            dissimilarity(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_empty_frame_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            dissimilarity(np.zeros((0, 2)), np.zeros((1, 2)))

    def test_matches_plain_loop_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.integers(-6, 7, size=(rng.integers(1, 5), 3)).astype(float)
            b = rng.integers(-6, 7, size=(rng.integers(1, 5), 3)).astype(float)
            worst = 0.0
            for fa in a:
                closest = min(float(np.sqrt(np.sum((fa - fb) ** 2))) for fb in b)
                worst = max(worst, closest)
            assert dissimilarity(a, b) == pytest.approx(worst, rel=1e-12)


class TestChallenging:
    def run(self, values, tasks, adjacency=None, valid=None):
        ids = sorted(values)
        matrix = np.array([[values[sid]] for sid in ids], dtype=float)
        ok = [True if valid is None else valid[sid] for sid in ids]
        adj = {sid: set() for sid in ids}
        for a, b in adjacency or ():
            adj[a].add(b)
            adj[b].add(a)
        return select_challenging(ids, matrix, ok, tasks, adj)

    def test_greedy_descending_scores(self):
        picked, audit = self.run(
            {"s_a": 3.0, "s_b": 2.0, "s_c": 1.0},
            (TaskConfig("t0", np.array([1.0]), 2),),
        )
        assert picked == {"t0": ["s_a", "s_b"]}
        assert [e.value for e in audit] == [3.0, 2.0]

    def test_overlap_blocks_runner_up(self):
        picked, audit = self.run(
            {"s_a": 3.0, "s_b": 2.0, "s_c": 1.0},
            (TaskConfig("t0", np.array([1.0]), 2),),
            adjacency=[("s_a", "s_b")],
        )
        assert picked == {"t0": ["s_a", "s_c"]}
        assert audit[0].eliminated == ("s_b",)

    def test_round_robin_shares_the_argmax(self):
        tasks = (
            TaskConfig("hi", np.array([1.0]), 1),
            TaskConfig("lo", np.array([-1.0]), 1),
        )
        picked, audit = self.run({"s_a": 3.0, "s_b": 2.0, "s_c": 1.0}, tasks)
        assert picked == {"hi": ["s_a"], "lo": ["s_c"]}
        assert [e.task for e in audit] == ["hi", "lo"]
        assert audit[1].value == -1.0

    def test_ties_break_by_ascending_id(self):
        picked, _ = self.run(
            {"s_c": 1.0, "s_a": 1.0, "s_b": 1.0},
            (TaskConfig("t0", np.array([1.0]), 2),),
        )
        assert picked == {"t0": ["s_a", "s_b"]}

    def test_unrankable_never_picked(self):
        picked, _ = self.run(
            {"s_a": 3.0, "s_b": 2.0},
            (TaskConfig("t0", np.array([1.0]), 1),),
            valid={"s_a": False, "s_b": True},
        )
        assert picked == {"t0": ["s_b"]}

    def test_budget_past_pool_stops_clean(self):
        picked, audit = self.run(
            {"s_a": 1.0, "s_b": 2.0},
            (TaskConfig("t0", np.array([1.0]), 5),),
        )
        assert picked == {"t0": ["s_b", "s_a"]}
        assert len(audit) == 2

    def test_each_pick_dominates_feasible_alternatives(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = [f"s{i:02d}" for i in range(8)]
            matrix = rng.integers(-4, 5, size=(8, 3)).astype(float)
            valid = rng.random(8) > 0.2
            adj = {sid: set() for sid in ids}
            for i in range(8):
                for j in range(i + 1, 8):
                    if rng.random() < 0.15:
                        adj[ids[i]].add(ids[j])
                        adj[ids[j]].add(ids[i])
            tasks = (
                TaskConfig("t0", rng.integers(-3, 4, size=3).astype(float), 2),
                TaskConfig("t1", rng.integers(-3, 4, size=3).astype(float), 2),
            )
            picked, audit = select_challenging(ids, matrix, valid, tasks, adj)
            weights = {t.name: t.weights for t in tasks}
            alive = {sid for sid, ok in zip(ids, valid) if ok}
            for entry in audit:
                assert entry.snippet_id in alive
                w = weights[entry.task]
                best = max(float(matrix[ids.index(sid)] @ w) for sid in alive)
                got = float(matrix[ids.index(entry.snippet_id)] @ w)
                assert got == pytest.approx(best, rel=1e-12, abs=1e-12)
                winners = sorted(
                    sid for sid in alive if float(matrix[ids.index(sid)] @ w) == got
                )
                assert entry.snippet_id == winners[0]
                alive.discard(entry.snippet_id)
                assert entry.eliminated == tuple(sorted(alive & adj[entry.snippet_id]))
                alive -= adj[entry.snippet_id]
            assert sorted(len(picked[t.name]) for t in tasks) == sorted(
                min(t.budget, len(picked[t.name])) for t in tasks
            )


class TestDiverse:
    def run(self, frames, selected, k, adjacency=None, seed_norms=None, valid=None):
        ids = sorted(frames)
        mats = {sid: np.atleast_2d(np.asarray(v, dtype=float)) for sid, v in frames.items()}
        ok = [True if valid is None else valid[sid] for sid in ids]
        adj = {sid: set() for sid in ids}
        for a, b in adjacency or ():
            adj[a].add(b)
            adj[b].add(a)
        norms = seed_norms or {sid: 0.0 for sid in ids}
        return select_diverse(ids, mats, ok, selected, k, adj, True, norms)

    def test_farthest_point_order(self):
        picked, audit = self.run(
            {"s_a": [[0.0]], "s_b": [[1.0]], "s_c": [[10.0]]},
            selected=["s_a"],
            k=2,
        )
        assert picked == ["s_c", "s_b"]
        assert [e.value for e in audit] == [10.0, 1.0]
        assert not any(e.seed for e in audit)

    def test_empty_anchor_seeds_by_norm(self):
        picked, audit = self.run(
            {"s_a": [[0.0]], "s_b": [[1.0]], "s_c": [[10.0]]},
            selected=[],
            k=2,
            seed_norms={"s_a": 1.0, "s_b": 9.0, "s_c": 2.0},
        )
        assert picked == ["s_b", "s_c"]
        assert audit[0].seed and audit[0].value == 9.0
        assert not audit[1].seed

    def test_zero_budget_returns_nothing(self):
        picked, audit = self.run({"s_a": [[0.0]]}, selected=["s_a"], k=0)
        assert picked == [] and audit == []

    def test_identical_candidates_fall_back_to_id_order(self):
        picked, audit = self.run(
            {"s_a": [[5.0]], "s_b": [[5.0]], "s_c": [[5.0]], "s_z": [[5.0]]},
            selected=["s_z"],
            k=2,
        )
        assert picked == ["s_a", "s_b"]
        assert all(e.value == 0.0 for e in audit)

    def test_overlap_with_anchor_blocks_candidate(self):
        picked, _ = self.run(
            {"s_a": [[0.0]], "s_b": [[99.0]], "s_c": [[3.0]]},
            selected=["s_a"],
            k=2,
            adjacency=[("s_a", "s_b")],
        )
        assert picked == ["s_c"]

    def test_cached_min_distance_matches_recompute(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            ids = [f"s{i:02d}" for i in range(7)]
            frames = {sid: rng.integers(-5, 6, size=(3, 2)).astype(float) for sid in ids}
            anchor = [ids[0]]
            picked, audit = self.run(frames, selected=anchor, k=4)
            chosen = list(anchor)
            for entry in audit:
                feasible = sorted(set(ids) - set(chosen))
                dists = {
                    sid: min(dissimilarity(frames[sid], frames[o]) for o in chosen)
                    for sid in feasible
                }
                best = max(dists.values())
                assert dists[entry.snippet_id] == pytest.approx(best, rel=1e-12, abs=1e-12)
                winners = sorted(sid for sid in feasible if dists[sid] == dists[entry.snippet_id])
                assert entry.snippet_id == winners[0]
                chosen.append(entry.snippet_id)
            assert picked == chosen[1:]


class TestCurate:
    def test_hand_traced_two_phase_run(self):
        snippets = [snippet_row(f"s_{c}", f"log_{c}") for c in "abcd"]
        bundle = toy_bundle(
            {"s_a": 3.0, "s_b": 2.0, "s_c": 1.0, "s_d": 0.0},
            {"s_a": [[0.0]], "s_b": [[4.0]], "s_c": [[1.0]], "s_d": [[9.0]]},
        )
        cfg = CurationConfig(
            tasks=(TaskConfig("t0", np.array([1.0]), 1),), k_div=2, normalization="none"
        )
        res = curate(snippets, bundle, cfg)
        assert res.tasks == [{"name": "t0", "budget": 1, "snippet_ids": ["s_a"]}]
        assert res.diverse == {"budget": 2, "snippet_ids": ["s_d", "s_b"]}
        assert res.warnings == []
        obj = result_to_obj(res)
        assert obj["selected"] == ["s_a", "s_d", "s_b"]
        assert validate_result_obj(obj) == []

    def test_overlapping_snippets_never_coselected(self):
        same_log = [
            snippet_row("s_a", "log0", first=0),
            snippet_row("s_b", "log0", first=1),
            snippet_row("s_c", "log0", first=10),
        ]
        assert snippets_overlap(same_log[0], same_log[1])
        bundle = toy_bundle(
            {"s_a": 3.0, "s_b": 2.0, "s_c": 1.0},
            {"s_a": [[0.0]], "s_b": [[50.0]], "s_c": [[1.0]]},
        )
        cfg = CurationConfig(
            tasks=(TaskConfig("t0", np.array([1.0]), 1),), k_div=2, normalization="none"
        )
        res = curate(same_log, bundle, cfg)
        assert result_to_obj(res)["selected"] == ["s_a", "s_c"]
        assert any("diverse phase: selected 1 of 2" in w for w in res.warnings)

    def test_pool_order_is_irrelevant(self):
        snippets = [snippet_row(f"s_{c}", f"log_{c}") for c in "abcd"]
        bundle = toy_bundle(
            {"s_a": 3.0, "s_b": 2.0, "s_c": 1.0, "s_d": 0.0},
            {"s_a": [[0.0]], "s_b": [[4.0]], "s_c": [[1.0]], "s_d": [[9.0]]},
        )
        cfg = CurationConfig(
            tasks=(TaskConfig("t0", np.array([1.0]), 2),), k_div=1, normalization="none"
        )
        fwd = result_to_obj(curate(snippets, bundle, cfg))
        rev = result_to_obj(curate(snippets[::-1], bundle, cfg))
        assert canonical_dumps(fwd) == canonical_dumps(rev)

    def test_weight_scaling_leaves_picks_alone(self):
        snippets = [snippet_row(f"s_{c}", f"log_{c}") for c in "abcd"]
        bundle = toy_bundle(
            {"s_a": 1.0, "s_b": 7.0, "s_c": 4.0, "s_d": 2.0},
            {sid: [[v]] for sid, v in {"s_a": 1.0, "s_b": 7.0, "s_c": 4.0, "s_d": 2.0}.items()},
        )
        picks = []
        for lam in (1.0, 123.5):
            cfg = CurationConfig(
                tasks=(TaskConfig("t0", np.array([lam]), 2),), normalization="none"
            )
            res = curate(snippets, bundle, cfg)
            picks.append(res.tasks[0]["snippet_ids"])
        assert picks[0] == picks[1] == ["s_b", "s_c"]

    def test_unrankable_snippets_reported_and_skipped(self):
        snippets = [snippet_row(f"s_{c}", f"log_{c}") for c in "ab"]
        bundle = toy_bundle(
            {"s_a": 9.0, "s_b": 1.0},
            {"s_a": [[0.0]], "s_b": [[1.0]]},
            valid={"s_a": False, "s_b": True},
        )
        cfg = CurationConfig(tasks=(TaskConfig("t0", np.array([1.0]), 1),), normalization="none")
        res = curate(snippets, bundle, cfg)
        assert res.tasks[0]["snippet_ids"] == ["s_b"]
        assert any("unrankable" in w and "s_a" in w for w in res.warnings)

    def test_over_budget_request_warns_and_degrades(self):
        snippets = [snippet_row(f"s_{c}", f"log_{c}") for c in "ab"]
        bundle = toy_bundle(
            {"s_a": 2.0, "s_b": 1.0}, {"s_a": [[0.0]], "s_b": [[1.0]]}
        )
        cfg = CurationConfig(
            tasks=(TaskConfig("t0", np.array([1.0]), 4),), k_div=3, normalization="none"
        )
        res = curate(snippets, bundle, cfg)
        assert result_to_obj(res)["selected"] == ["s_a", "s_b"]
        assert any("selection may fall short" in w for w in res.warnings)
        assert any(w.startswith("task t0") for w in res.warnings)
        assert any(w.startswith("diverse phase") for w in res.warnings)

    def test_zero_budgets_select_nothing(self):
        snippets = [snippet_row("s_a", "log0")]
        bundle = toy_bundle({"s_a": 5.0}, {"s_a": [[1.0]]})
        res = curate(snippets, bundle, CurationConfig(normalization="none"))
        assert result_to_obj(res)["selected"] == []
        assert res.warnings == []

    def test_random_pools_stay_disjoint(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(4, 13))
            snippets = []
            for i in range(n):
                log = f"log{int(rng.integers(0, 3))}"
                first = int(rng.integers(0, 6))
                snippets.append(snippet_row(f"s{i:02d}", log, first=first))
            values = {s.snippet_id: float(rng.integers(0, 20)) for s in snippets}
            frames = {
                s.snippet_id: rng.integers(-5, 6, size=(2, 2)).astype(float)
                for s in snippets
            }
            valid = {s.snippet_id: bool(rng.random() > 0.15) for s in snippets}
            bundle = toy_bundle(values, frames, valid=valid)
            cfg = CurationConfig(
                tasks=(TaskConfig("t0", np.array([1.0]), int(rng.integers(0, 4))),),
                k_div=int(rng.integers(0, 4)),
                normalization="none",
            )
            selected = result_to_obj(curate(snippets, bundle, cfg))["selected"]
            assert len(selected) == len(set(selected))
            by_id = {s.snippet_id: s for s in snippets}
            for i, a in enumerate(selected):
                assert valid[a]
                for b in selected[i + 1 :]:
                    assert not snippets_overlap(by_id[a], by_id[b])


class TestResultObjects:
    def make_obj(self):
        res = selection.CurationResult(
            method="curate",
            seed=0,
            tasks=[{"name": "t0", "budget": 1, "snippet_ids": ["s_a"]}],
            diverse={"budget": 1, "snippet_ids": ["s_b"]},
            audit=[AuditEntry("challenging", 0, "t0", "s_a", 1.0, ())],
            warnings=[],
        )
        return result_to_obj(res)

    def test_well_formed_object_passes(self):
        obj = self.make_obj()
        assert validate_result_obj(obj) == []
        assert obj["kind"] == "curation_result"
        assert obj["selected"] == ["s_a", "s_b"]

    def test_missing_keys_reported(self):
        obj = self.make_obj()
        del obj["audit"]
        assert any("audit" in p for p in validate_result_obj(obj))

    def test_duplicate_selection_reported(self):
        obj = self.make_obj()
        obj["selected"] = ["s_a", "s_a"]
        assert any("duplicate" in p for p in validate_result_obj(obj))

    def test_wrong_kind_rejected(self):
        assert validate_result_obj({"kind": "pool_header"}) == [
            "not a curation_result object"
        ]


class TestOverlapAdjacency:
    def test_same_log_shared_frames_link_both_ways(self):
        a = snippet_row("s_a", "log0", first=0, n=10)
        b = snippet_row("s_b", "log0", first=5, n=10)
        c = snippet_row("s_c", "log0", first=20, n=10)
        d = snippet_row("s_d", "log1", first=0, n=10)
        adj = overlap_adjacency([a, b, c, d])
        assert adj["s_a"] == {"s_b"}
        assert adj["s_b"] == {"s_a"}
        assert adj["s_c"] == set()
        assert adj["s_d"] == set()

    # (log, first frame, extra frames): few logs and short windows, so
    # touching, nested and identical ranges come up often
    WINDOWS = st.lists(
        st.tuples(st.sampled_from(("log0", "log1")), st.integers(0, 12), st.integers(0, 5)),
        max_size=14,
    )

    @example(windows=[("log0", 0, 3), ("log0", 3, 2), ("log0", 4, 0), ("log0", 1, 1), ("log0", 0, 3)])
    @given(windows=WINDOWS)
    def test_sweep_matches_the_all_pairs_walk(self, windows):
        snippets = [
            Snippet(f"s{i:02d}", log, (first, first + extra))
            for i, (log, first, extra) in enumerate(windows)
        ]
        want = {s.snippet_id: set() for s in snippets}
        for a, b in itertools.combinations(snippets, 2):
            if snippets_overlap(a, b):
                want[a.snippet_id].add(b.snippet_id)
                want[b.snippet_id].add(a.snippet_id)
        assert overlap_adjacency(snippets) == want

    def test_sweep_examines_only_pairs_that_can_meet(self, monkeypatch):
        checked = []

        def counted(a, b):
            checked.append((a.snippet_id, b.snippet_id))
            return snippets_overlap(a, b)

        monkeypatch.setattr(selection, "snippets_overlap", counted)
        # ten back-to-back windows of one log and one window of another
        snippets = [Snippet(f"s{i}", "log0", (10 * i, 10 * i + 9)) for i in range(10)]
        snippets.append(Snippet("t0", "log1", (0, 99)))
        adj = overlap_adjacency(snippets)
        assert checked == []
        assert all(not partners for partners in adj.values())
        snippets.append(Snippet("s_wide", "log0", (15, 34)))
        adj = overlap_adjacency(snippets)
        assert adj["s_wide"] == {"s1", "s2", "s3"}
        assert len(checked) == 3
