"""Release gates, one test per shipped guarantee.

These exercise the public surface end to end: curvature fidelity, hand-computed
measure values, the frozen golden curation trace, dominance and disjointness
sweeps against brute-force oracles, determinism across worker counts, synthetic
card closure over the whole template matrix, rare-class enrichment, and the
throughput ceilings. The oracles here recompute everything from scratch with
plain loops each step; they must never share the incremental code paths of the
library routines they check.
"""

import math
import os
import time

import numpy as np

from logcurator.baselines import (
    ForecastEntry,
    al_select,
    baseline_result,
    entry_entropy,
    random_select,
)
from logcurator.features import (
    FRAME_FEATURES,
    SNIPPET_FEATURES,
    FeatureBundle,
    NormalizationStats,
    compute_snippet_features,
    score_pool,
    write_features,
)
from logcurator.scene import canonical_dumps, load_pool
from logcurator.selection import (
    CurationConfig,
    TaskConfig,
    curate,
    dissimilarity,
    load_config,
    overlap_adjacency,
    resolve_weights,
    result_to_obj,
    select_diverse,
)
from logcurator.synthgen import (
    PLANS,
    TEMPLATES,
    ScenarioSpec,
    default_spec,
    generate_pool,
    synth_forecasts,
)

import support

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "golden")
SIDX = {name: i for i, (name, _) in enumerate(SNIPPET_FEATURES)}
SNIPPET_DIM = len(SNIPPET_FEATURES)
FRAME_DIM = len(FRAME_FEATURES)


def _identity_stats(dim):
    return NormalizationStats(np.zeros(dim), np.ones(dim), ())


def _naive_adjacency(snippets):
    """Overlap pairs recomputed directly from log ids and frame windows."""
    adj = {s.snippet_id: set() for s in snippets}
    items = sorted(snippets, key=lambda s: s.snippet_id)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if a.log_id != b.log_id:
                continue
            if a.frame_range[1] < b.frame_range[0] or b.frame_range[1] < a.frame_range[0]:
                continue
            adj[a.snippet_id].add(b.snippet_id)
            adj[b.snippet_id].add(a.snippet_id)
    return adj


def _naive_dot(row, weights):
    total = 0.0
    for v, w in zip(row, weights):
        total += float(v) * float(w)
    return total


def _naive_rows(mat, stats):
    """Row-by-row standardization with the flagged-dimension rule applied."""
    flagged = set(stats.flagged)
    rows = []
    for row in np.asarray(mat, dtype=float):
        vals = []
        for i, v in enumerate(row):
            div = 1.0 if i in flagged else float(stats.std[i])
            vals.append((float(v) - float(stats.mean[i])) / div)
        rows.append(tuple(vals))
    return tuple(rows)


def _naive_directed(a_rows, b_rows):
    # exhaustive over every frame pair; math.dist keeps the kernel honest
    # without borrowing the library's squared-norm expansion
    worst = 0.0
    for fa in a_rows:
        best = min(math.dist(fa, fb) for fb in b_rows)
        if best > worst:
            worst = best
    return worst


def _replay_audit(pool, bundle, config, res):
    """Walk the audit trail and require every pick to dominate all feasible
    rivals under from-scratch recomputation, with the recorded value and the
    recorded eliminations matching as well."""
    ids = list(bundle.ids)
    idx = {sid: i for i, sid in enumerate(ids)}
    adjacency = _naive_adjacency(pool.snippets)
    weights_of = {t.name: t.weights for t in config.tasks}
    frame_rows = {sid: _naive_rows(bundle.frame_mats[sid], bundle.frame_stats) for sid in ids}
    norms = {}
    for i, sid in enumerate(ids):
        z = _naive_rows(bundle.matrix[i : i + 1], bundle.snippet_stats)[0]
        norms[sid] = math.sqrt(sum(v * v for v in z))
    one_way = config.dissimilarity == "directed"

    def naive_d(x, y):
        d = _naive_directed(x, y)
        return d if one_way else max(d, _naive_directed(y, x))

    alive = {sid for sid, ok in zip(ids, bundle.valid) if ok}
    anchor = []
    for entry in res.audit:
        assert entry.snippet_id in alive
        cand = sorted(alive)
        if entry.phase == "challenging":
            scores = {sid: _naive_dot(bundle.matrix[idx[sid]], weights_of[entry.task]) for sid in cand}
            top = max(scores.values())
            mine = scores[entry.snippet_id]
            assert mine >= top - 1e-9 * max(1.0, abs(top))
            assert abs(entry.value - mine) <= 1e-9 * max(1.0, abs(mine))
        elif entry.seed:
            top = max(norms[sid] for sid in cand)
            mine = norms[entry.snippet_id]
            assert mine >= top - 1e-9 * max(1.0, abs(top))
            assert abs(entry.value - mine) <= 1e-9 * max(1.0, abs(mine))
        else:
            # the squared-norm expansion loses a few digits near zero, so the
            # distance comparisons get a correspondingly looser band
            dists = {
                sid: min(naive_d(frame_rows[sid], frame_rows[o]) for o in anchor) for sid in cand
            }
            top = max(dists.values())
            mine = dists[entry.snippet_id]
            assert mine >= top - 1e-6 * max(1.0, abs(top))
            assert abs(entry.value - mine) <= 1e-6 * max(1.0, abs(mine))
        anchor.append(entry.snippet_id)
        alive.discard(entry.snippet_id)
        assert set(entry.eliminated) == alive & adjacency[entry.snippet_id]
        alive -= adjacency[entry.snippet_id]
    return len(res.audit)


def _bike_mean(pool, picked):
    by_id = {s.snippet_id: s for s in pool.snippets}
    means = []
    for sid in picked:
        s = by_id[sid]
        total = sum(1 for c in s.det_label.tolist() if s.classes[c] == "bicyclist")
        means.append(total / s.num_frames)
    return sum(means) / len(means)


def test_01_curvature_fidelity():
    t0 = time.perf_counter()
    circle = support.circle_points(10.0, 1000)
    measured = support.curve_complexity(circle, 100)
    assert 0.098 <= measured <= 0.102

    line = np.column_stack([np.linspace(0.0, 80.0, 41), np.linspace(0.0, 8.0, 41)])
    assert support.curve_complexity(line, 100) == 0.0

    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    moved = circle @ rot.T + np.array([12.3, -45.6])
    assert abs(support.curve_complexity(moved, 100) - measured) <= 1e-9
    assert time.perf_counter() - t0 < 1.0


def scored(s, *names):
    """The named values of the snippet's scored vector; the default 75 m
    gate holds every detection of the snippets below."""
    values = compute_snippet_features(*support.measure_args(s))[0].values
    return [float(values[SIDX[name]]) for name in names]


def test_02_hand_computed_measure_oracles():
    # crowding: three movers on even frames, five on odd, so the per-frame
    # dynamic count averages to exactly four
    movers = [
        support.make_detection(f"v{i}", "vehicle", (2.0 * i, 4.0), speed=2.0) for i in range(5)
    ]
    per_frame = [tuple(movers[:3] if k % 2 == 0 else movers) for k in range(60)]
    s_crowd = support.drive([(1.0 * k, 0.0) for k in range(60)], detections=per_frame)
    static, dynamic = scored(s_crowd, "crowd_static", "crowd_dynamic")
    assert static == 0.0
    assert abs(dynamic - 4.0) <= 1e-12

    # class mix: two cars and a walker give (1+2)(1+1)/3; three cars (1+3)/3
    mixed = (
        support.make_detection("c0", "vehicle", (3.0, 4.0)),
        support.make_detection("c1", "vehicle", (-3.0, 4.0)),
        support.make_detection("p0", "pedestrian", (0.0, -5.0)),
    )
    s_mixed = support.drive(
        [(0.1 * k, 0.0) for k in range(60)], detections=support.constant_detections(mixed, 60)
    )
    assert abs(scored(s_mixed, "class_div")[0] - 2.0) <= 1e-12

    cars = tuple(support.make_detection(f"c{i}", "vehicle", (2.0 * i, 5.0)) for i in range(3))
    s_cars = support.drive(
        [(0.1 * k, 0.0) for k in range(60)], detections=support.constant_detections(cars, 60)
    )
    assert abs(scored(s_cars, "class_div")[0] - 4.0 / 3.0) <= 1e-12

    # speed spread: steady tracks at 5 and 7 leave only the unit variance of
    # their means; one track sweeping 0, 2, 4 leaves only its inner 8/3
    steady = (
        support.make_detection("a", "vehicle", (5.0, 3.0), speed=5.0),
        support.make_detection("b", "vehicle", (-5.0, 3.0), speed=7.0),
    )
    s_two = support.drive(
        [(0.1 * k, 0.0) for k in range(10)], detections=support.constant_detections(steady, 10)
    )
    assert abs(scored(s_two, "speed_div")[0] - 1.0) <= 1e-12

    ramp = [
        (support.make_detection("a", "vehicle", (5.0, 3.0), speed=2.0 * k),) for k in range(3)
    ]
    s_ramp = support.drive([(0.1 * k, 0.0) for k in range(3)], detections=ramp)
    assert abs(scored(s_ramp, "speed_div")[0] - 8.0 / 3.0) <= 1e-12

    unit = ForecastEntry("a", 1, (0.0, 0.0), (1.0, 0.0, 1.0))
    assert abs(entry_entropy(unit) - math.log(2.0 * math.pi * math.e)) <= 1e-9


def test_03_golden_curation_trace():
    pool = load_pool(os.path.join(GOLDEN_DIR, "pool.jsonl"))
    config = load_config(os.path.join(GOLDEN_DIR, "config.json"))
    bundle = score_pool(pool, config)
    res = curate(pool.snippets, bundle, config)
    got = (canonical_dumps(result_to_obj(res)) + "\n").encode("utf-8")
    with open(os.path.join(GOLDEN_DIR, "expected_result.json"), "rb") as fh:
        want = fh.read()
    assert got == want


def test_04_picks_dominate_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    plans = ("cruise", "speed_ramp")
    checked = 0
    for trial in range(200):
        spec = default_spec(
            TEMPLATES[trial % len(TEMPLATES)],
            plans[(trial // len(TEMPLATES)) % len(plans)],
            n_snippets=int(rng.integers(4, 13)),
            num_frames=10,
            seed=int(rng.integers(0, 10_000)),
            jitter=True,
            overlap_every=int(rng.integers(0, 2)) * 2,
            n_parked=int(rng.integers(0, 3)),
            n_movers=int(rng.integers(0, 3)),
            n_pedestrians=int(rng.integers(0, 3)),
        )
        pool, _ = generate_pool(spec)
        bundle = score_pool(pool, CurationConfig())
        tasks = tuple(
            TaskConfig(f"t{j}", rng.normal(size=SNIPPET_DIM), int(rng.integers(1, 3)))
            for j in range(int(rng.integers(1, 3)))
        )
        config = CurationConfig(
            tasks=tasks,
            k_div=int(rng.integers(0, 3)),
            seed=trial,
            dissimilarity="directed" if rng.integers(0, 2) else "symmetric",
        )
        res = curate(pool.snippets, bundle, config)
        checked += _replay_audit(pool, bundle, config, res)
    assert checked > 400
    assert time.perf_counter() - t0 < 60.0


def test_05_disjoint_across_randomized_runs():
    rng = np.random.default_rng(7)
    runs = 0
    for _ in range(25):
        n = int(rng.integers(5, 9))
        snippets = []
        for i in range(n):
            first = int(rng.integers(0, 7))
            log = f"log{int(rng.integers(0, 3))}"
            pts = [(first + 0.5 * k, 0.0) for k in range(4)]
            snippets.append(support.drive(pts, snippet_id=f"s{i:02d}", log_id=log, first=first))
        pool = support.pool_of(snippets)
        truth = _naive_adjacency(pool.snippets)
        ids = sorted(s.snippet_id for s in snippets)
        for r in range(40):
            valid = rng.random(n) > 0.2
            if not valid.any():
                valid[0] = True
            bundle = FeatureBundle(
                ids=list(ids),
                matrix=rng.normal(size=(n, SNIPPET_DIM)),
                valid=valid,
                frame_mats={sid: rng.normal(size=(4, FRAME_DIM)) for sid in ids},
                snippet_stats=_identity_stats(SNIPPET_DIM),
                frame_stats=_identity_stats(FRAME_DIM),
            )
            tasks = tuple(
                TaskConfig(f"t{j}", rng.normal(size=SNIPPET_DIM), int(rng.integers(1, 3)))
                for j in range(int(rng.integers(1, 3)))
            )
            config = CurationConfig(tasks=tasks, k_div=int(rng.integers(0, 3)), seed=r)
            selected = result_to_obj(curate(pool.snippets, bundle, config))["selected"]
            assert len(set(selected)) == len(selected)
            for i, a in enumerate(selected):
                for b in selected[i + 1 :]:
                    assert b not in truth[a]
            runs += 1
    assert runs == 1000


def test_06_dissimilarity_is_directed():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [0.0]])
    assert dissimilarity(a, b) == 1.0
    assert dissimilarity(b, a) == 0.0

    rng = np.random.default_rng(99)
    for _ in range(100):
        frames = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 11))))
        assert dissimilarity(frames, frames) == 0.0


def test_07_identical_output_across_worker_counts(tmp_path):
    spec = default_spec("curved_road", "cruise", n_snippets=8, num_frames=40, seed=11, jitter=True)
    pool, _ = generate_pool(spec)
    scoring = CurationConfig()
    b_one = score_pool(pool, scoring, jobs=1)
    b_three = score_pool(pool, scoring, jobs=3)
    d_one, d_three = str(tmp_path / "one"), str(tmp_path / "three")
    write_features(d_one, b_one)
    write_features(d_three, b_three)
    for name in ("snippet_features.jsonl", "frame_features.jsonl", "normalization.json"):
        with open(os.path.join(d_one, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(d_three, name), "rb") as fh:
            assert fh.read() == first

    config = CurationConfig(
        tasks=(TaskConfig("busy", np.ones(SNIPPET_DIM), 2),), k_div=3, seed=4
    )
    r_one = canonical_dumps(result_to_obj(curate(pool.snippets, b_one, config)))
    r_three = canonical_dumps(result_to_obj(curate(pool.snippets, b_three, config)))
    assert r_one == r_three

    ids = sorted(s.snippet_id for s in pool.snippets)
    adjacency = overlap_adjacency(pool.snippets)
    rn = [
        canonical_dumps(result_to_obj(baseline_result("random", 3, *random_select(ids, adjacency, 3, seed=4), seed=4)))
        for _ in range(2)
    ]
    assert rn[0] == rn[1]
    forecasts = synth_forecasts(pool)
    al = [
        canonical_dumps(result_to_obj(baseline_result("entropy", 3, *al_select(ids, forecasts, adjacency, 3), seed=0)))
        for _ in range(2)
    ]
    assert al[0] == al[1]


def test_08_synthetic_cards_close_over_template_matrix():
    misses = []
    for template in TEMPLATES:
        for plan in PLANS:
            pool, cards = generate_pool(default_spec(template, plan, seed=9))
            bundle = score_pool(pool, CurationConfig())
            for sid, card in sorted(cards.items()):
                assert card is not None
                row = bundle.matrix[bundle.ids.index(sid)]
                for name, (want, tol) in sorted(card.fields.items()):
                    got = float(row[SIDX[name]])
                    if not abs(got - want) <= tol:
                        misses.append(
                            f"{template}/{plan} {sid} {name}: {got!r} vs {want!r} (tol {tol!r})"
                        )
    assert not misses, "\n".join(misses)


def test_09_bicycle_weighted_curation_beats_random():
    spec = ScenarioSpec(
        template="straight_road",
        plan="cruise",
        seed=5,
        n_snippets=40,
        num_frames=30,
        n_parked=1,
        n_movers=1,
        n_pedestrians=0,
        with_circle=False,
        crossing_road=False,
        crossing_actors=False,
        bicycle_every=10,
    )
    pool, _ = generate_pool(spec)
    bundle = score_pool(pool, CurationConfig())
    weights = resolve_weights({"bike_curve": 1.0, "bike_crossing": 1.0, "class_div": 1.0})
    config = CurationConfig(tasks=(TaskConfig("bicycles", weights, 4),), k_div=0, seed=0)
    res = curate(pool.snippets, bundle, config)
    picked = res.tasks[0]["snippet_ids"]
    assert len(picked) == 4

    # this seed hands the random walk one bicycle snippet, so the margin
    # below is tested against a nonzero baseline rather than against zero
    ids = sorted(s.snippet_id for s in pool.snippets)
    adjacency = overlap_adjacency(pool.snippets)
    rn_picked, _ = random_select(ids, adjacency, 4, seed=3)
    curated_mean = _bike_mean(pool, picked)
    random_mean = _bike_mean(pool, rn_picked)
    assert random_mean > 0.0
    assert curated_mean >= 2.0 * random_mean

    again = curate(pool.snippets, score_pool(pool, CurationConfig()), config)
    assert canonical_dumps(result_to_obj(again)) == canonical_dumps(result_to_obj(res))


def test_10_throughput_guardrail():
    spec = default_spec(
        "straight_road", "cruise", n_snippets=1000, num_frames=250, seed=3, jitter=True
    )
    pool, _ = generate_pool(spec)

    t0 = time.perf_counter()
    bundle = score_pool(pool, CurationConfig())
    assert time.perf_counter() - t0 < 300.0
    assert bool(np.all(bundle.valid))

    ids = bundle.ids
    adjacency = overlap_adjacency(pool.snippets)
    normalized = {sid: bundle.frame_stats.apply(bundle.frame_mats[sid]) for sid in ids}
    seed_norms = {
        sid: float(np.linalg.norm(bundle.snippet_stats.apply(bundle.matrix[i])))
        for i, sid in enumerate(ids)
    }
    t1 = time.perf_counter()
    picked, _ = select_diverse(ids, normalized, bundle.valid, [], 50, adjacency, True, seed_norms)
    assert time.perf_counter() - t1 < 120.0
    assert len(picked) == 50
