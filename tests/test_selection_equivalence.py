"""The ranked challenging phase, the lazy diverse phase and both baselines
against the selection loops they replace.

Every comparison is exact (`==` on picks and audit entries): the lazy
diverse phase must make the same picks with the same values as updating
every cached min-distance against every new pick, the ranked challenging
phase the same as rescoring every alive candidate each round, and the
baselines on `selection.walk` the same as their own walk.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import baselines, selection, synthgen
from logcurator.features import score_pool
from logcurator.selection import (
    ConfigError,
    TaskConfig,
    config_from_obj,
    dissimilarity,
    overlap_adjacency,
    select_challenging,
    select_diverse,
)


@st.composite
def pools(draw, max_n=9):
    """ids, validity and a symmetric overlap adjacency."""
    n = draw(st.integers(1, max_n))
    ids = [f"s{i}" for i in draw(st.permutations(range(n)))]
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    adjacency = {sid: set() for sid in ids}
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else ():
        adjacency[a].add(b)
        adjacency[b].add(a)
    return ids, valid, adjacency


@st.composite
def diverse_cases(draw):
    ids, valid, adjacency = draw(pools())
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        # few small integers: tied distances and duplicate frame sets
        value = st.integers(-2, 2).map(float)
    else:
        value = st.floats(-1e3, 1e3, allow_nan=False)
    frames = {
        sid: np.array(
            draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=5))
        )
        for sid in ids
    }
    selected = draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)))
    k_div = draw(st.integers(0, len(ids) + 2))
    seed_norms = {sid: float(draw(st.integers(0, 3))) for sid in ids}
    return ids, frames, valid, selected, k_div, adjacency, draw(st.booleans()), seed_norms


@settings(max_examples=400)
@given(diverse_cases())
def test_diverse_matches_full_update(case):
    assert select_diverse(*case) == ref.select_diverse(*case)


def test_diverse_many_anchors_and_candidates():
    rng = np.random.default_rng(5)
    for directed in (True, False):
        ids = [f"s{i:02d}" for i in range(40)]
        frames = {
            sid: rng.normal(scale=rng.uniform(0.5, 4.0), size=(int(rng.integers(1, 9)), 4))
            + rng.normal(scale=3.0, size=4)
            for sid in ids
        }
        adjacency = {sid: set() for sid in ids}
        for i in range(0, 39, 3):
            adjacency[ids[i]].add(ids[i + 1])
            adjacency[ids[i + 1]].add(ids[i])
        for selected in ([], ids[:1], ids[5:25:2]):
            norms = dict.fromkeys(ids, 1.0)
            args = (ids, frames, [True] * 40, selected, 30, adjacency, directed, norms)
            assert select_diverse(*args) == ref.select_diverse(*args)


def test_bound_margin_covers_expansion_rounding():
    """A candidate whose distance to the second anchor suffers cancellation
    in the a^2 + b^2 - 2ab expansion: the centroid bound exceeds the
    candidate's min over the first anchor by far more than 1e-9, yet the
    computed distance is below that min, so skipping the pair on a fixed
    margin would report the wrong value."""
    rng = np.random.default_rng(1)
    a = rng.uniform(3000.0, 4000.0, size=(1, 10))
    near = [a + rng.uniform(-0.002, 0.002, size=(1, 10)) for _ in range(300)]
    # (computed distance, centroid bound, index); one frame each, so the
    # bound is the exact distance
    rows = sorted(
        (dissimilarity(a, x), float(np.linalg.norm(a[0] - x[0])), i) for i, x in enumerate(near)
    )
    found = next(
        (p, q, d_p, d_q)
        for d_p, lb, p in rows
        for d_q, _, q in rows
        if d_p < d_q < lb - 1e-9
    )
    p, q, d_p, d_q = found
    frames = {"a": a, "p": near[p], "q": near[q]}
    ids = sorted(frames)
    args = (ids, frames, [True] * 3, ["q", "p"], 1, {sid: set() for sid in ids}, True, {})
    picked, audit = select_diverse(*args)
    assert (picked, audit) == ref.select_diverse(*args)
    assert picked == ["a"] and audit[0].value == d_p < d_q


@st.composite
def challenging_cases(draw):
    ids, valid, adjacency = draw(pools(max_n=12))
    dim = draw(st.integers(1, 3))
    entry = st.integers(-3, 3).map(float)
    row = st.lists(entry, min_size=dim, max_size=dim)
    matrix = np.array(draw(st.lists(row, min_size=len(ids), max_size=len(ids))))
    tasks = tuple(
        TaskConfig(f"t{i}", np.array(draw(row)), draw(st.integers(0, 5)))
        for i in range(draw(st.integers(0, 3)))
    )
    return ids, matrix, valid, tasks, adjacency


@settings(max_examples=400)
@given(challenging_cases())
def test_challenging_matches_rescoring(case):
    assert select_challenging(*case) == ref.select_challenging(*case)


def test_challenging_refuses_a_score_that_is_not_finite():
    # finite rows and weights can still score NaN or inf: products that
    # overflow in the dot product. The invalid s1 is never scored, and a
    # task without budget scores nothing.
    ids = ["s0", "s1", "s2", "s3", "s4"]
    matrix = np.array([[1.0, 0.0], [math.nan, 0.0], [1e308, 1e308], [1e308, -1e308], [1.0, 1.0]])
    tasks = (TaskConfig("idle", np.array([math.inf, 1.0]), 0), TaskConfig("t", np.array([10.0, 10.0]), 5))
    valid = [True, False, True, True, True]
    with pytest.raises(ConfigError) as err:
        select_challenging(ids, matrix, valid, tasks, {sid: set() for sid in ids})
    assert str(err.value) == "task 't': its weights give snippet s2 a score that is not finite"


# s0 and s1 overlap, and so do s1 and s2
CHAIN = (
    ["s2", "s0", "s1", "s3"],
    [True] * 4,
    {"s0": {"s1"}, "s1": {"s0", "s2"}, "s2": {"s1"}, "s3": set()},
)


@example(pool=CHAIN, k=0, seed=0)
@example(pool=CHAIN, k=9, seed=0)
@settings(max_examples=300)
@given(pool=pools(), k=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_random_baseline_matches_its_walk(pool, k, seed):
    ids, _, adjacency = pool
    assert baselines.random_select(ids, adjacency, k, seed) == ref.random_select(
        ids, adjacency, k, seed
    )


@example(pool=CHAIN, k=0, sxx=[1.0] * 4)
@example(pool=CHAIN, k=9, sxx=[1.0, 2.0, 2.0, 0.5])
@settings(max_examples=300)
@given(
    pool=pools(), k=st.integers(0, 12), sxx=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=9)
)
def test_entropy_baseline_matches_its_walk(pool, k, sxx):
    """One forecast row per snippet, from few covariances: tied entropies
    fall back to id order."""
    ids, _, adjacency = pool
    got, want = {}, {}
    for sid, v in zip(ids, sxx):
        got[sid] = baselines.GaussianForecast(
            sid, 1, np.array([0]), ("a",), np.array([1]), np.zeros((1, 2)), np.array([[v, 0.0, 1.0]])
        )
        entry = ref.ForecastEntry("a", 1, (0.0, 0.0), (v, 0.0, 1.0))
        want[sid] = ref.GaussianForecast(sid, 1, {0: (entry,)})
    assert baselines.al_select(ids, got, adjacency, k) == ref.al_select(ids, want, adjacency, k)


def test_lazy_diverse_halves_the_dissimilarity_calls(monkeypatch):
    spec = synthgen.default_spec(
        "straight_road",
        "cruise",
        seed=3,
        n_snippets=60,
        num_frames=30,
        jitter=True,
        overlap_every=2,
        n_movers=1,
        n_parked=1,
        n_pedestrians=0,
        with_circle=False,
        crossing_actors=False,
    )
    pool, _ = synthgen.generate_pool(spec)
    config = config_from_obj(
        {
            "k_div": 12,
            "tasks": [
                {"name": "crowded", "budget": 2, "weights": {"crowd_dynamic": 1.0}},
                {"name": "speedy", "budget": 2, "weights": {"sdv_speed_var": 1.0}},
                {"name": "spread", "budget": 2, "weights": {"dist_var": 1.0}},
            ],
        }
    )
    bundle = score_pool(pool, config)
    ids = bundle.ids
    adjacency = overlap_adjacency(pool.snippets)
    picked, _ = select_challenging(ids, bundle.matrix, bundle.valid, config.tasks, adjacency)
    selected = [sid for t in config.tasks for sid in picked[t.name]]
    frames = {sid: bundle.frame_stats.apply(bundle.frame_mats[sid]) for sid in ids}
    args = (ids, frames, bundle.valid, selected, config.k_div, adjacency, True, {})

    calls = {}

    def counting(module):
        def counted(a, b, directed=True):
            calls[module] = calls.get(module, 0) + 1
            return dissimilarity(a, b, directed)

        monkeypatch.setattr(module, "dissimilarity", counted)

    counting(selection)
    counting(ref)
    lazy = select_diverse(*args)
    full = ref.select_diverse(*args)
    assert lazy == full
    assert len(lazy[0]) == config.k_div
    assert 0 < calls[selection] <= calls[ref] / 2
