"""The column forecast baseline against the per-entry one it replaced.

`load_forecasts` streams each record into flat columns and `snippet_entropy`
scores a snippet in one array pass; `reference_measures` keeps the loader
that held one `ForecastEntry` per record in a dict of frames, and its
scalar entropy. Written files put records in any order: a frame's entries
split across the file, frames interleaved, snippets the pool does not hold.
Loaded rows, scores, picks, audit entries and error messages must be equal
with `==`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_measures as ref
from logcurator import baselines
from logcurator.baselines import ForecastError
from logcurator.scene import canonical_dumps

from support import forecast_rows

SNIPPETS = ("s0", "s1", "s2", "s3")
HEADER = {"kind": "forecast_header", "schema_version": 1, "horizon": 3}


@st.composite
def covariances(draw):
    """(sxx, sxy, syy): mostly positive definite, at scales from 1e-6 to
    1e6, and now and then singular or indefinite."""
    sxx, syy = (draw(st.floats(1e-6, 1e6)) for _ in range(2))
    rho = draw(st.one_of(st.floats(-0.999, 0.999), st.sampled_from([-1.0, 1.0, 3.0])))
    if draw(st.integers(0, 19)) == 0:
        sxx = -sxx
    return [sxx, rho * float(np.sqrt(sxx * syy)) if sxx > 0 else 0.0, syy]


@st.composite
def records(draw):
    """Forecast records in file order, drawn already shuffled."""
    n = draw(st.integers(0, 40))
    out = []
    for _ in range(n):
        out.append(
            {
                "kind": "forecast",
                "snippet_id": draw(st.sampled_from(SNIPPETS)),
                "frame_index": draw(st.integers(0, 5)),
                "actor_id": draw(st.sampled_from(["a0", "a1", "a2"])),
                "timestep": draw(st.integers(1, 3)),
                "mu": [draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))],
                "cov": draw(covariances()),
            }
        )
    return draw(st.permutations(out))


def write(path, recs):
    with open(path, "w") as fh:
        fh.write("\n".join(canonical_dumps(r) for r in [HEADER, *recs]) + "\n")


def outcome(fn, *args):
    """fn(*args), or the text of the ForecastError it raises."""
    try:
        return fn(*args)
    except ForecastError as exc:
        return f"ForecastError: {exc}"


def reference_rows(fc):
    return [
        (fi, e.actor_id, e.timestep, e.mu, e.cov)
        for fi in sorted(fc.frames)
        for e in fc.frames[fi]
    ]


def check(tmp_path, recs, pool, k):
    path = str(tmp_path / "forecasts.jsonl")
    write(path, recs)
    got, want = baselines.load_forecasts(path), ref.load_forecasts(path)
    assert list(got) == list(want)
    for sid in want:
        assert got[sid].horizon == want[sid].horizon
        assert forecast_rows(got[sid]) == reference_rows(want[sid])
        assert outcome(baselines.snippet_entropy, got[sid]) == outcome(ref.snippet_entropy, want[sid])
    adjacency = {sid: set() for sid in pool}
    if len(pool) > 1:  # the first two pool snippets overlap
        a, b = sorted(pool)[:2]
        adjacency[a].add(b)
        adjacency[b].add(a)
    assert outcome(baselines.al_select, pool, got, adjacency, k) == outcome(
        ref.al_select, pool, want, adjacency, k
    )


# one frame's entries split across the file, frames interleaved, and a
# non-positive-definite row in a snippet outside the pool
SPLIT = [
    {"kind": "forecast", "snippet_id": "s0", "frame_index": 2, "actor_id": "a0",
     "timestep": 1, "mu": [0.0, 0.0], "cov": [2.0, 0.5, 1.0]},
    {"kind": "forecast", "snippet_id": "s1", "frame_index": 0, "actor_id": "a1",
     "timestep": 1, "mu": [1.0, 0.0], "cov": [1.0, 2.0, 1.0]},
    {"kind": "forecast", "snippet_id": "s0", "frame_index": 0, "actor_id": "a1",
     "timestep": 2, "mu": [0.0, 1.0], "cov": [0.3, 0.0, 7.0]},
    {"kind": "forecast", "snippet_id": "s0", "frame_index": 2, "actor_id": "a2",
     "timestep": 3, "mu": [0.5, 1.0], "cov": [1e-6, 0.0, 1e6]},
]


@example(recs=SPLIT, pool_size=1, k=1)
@example(recs=SPLIT, pool_size=2, k=2)  # s1's covariance is not positive definite
@settings(max_examples=200, deadline=None)
@given(recs=records(), pool_size=st.integers(0, len(SNIPPETS)), k=st.integers(0, 4))
def test_column_baseline_matches_the_entry_reference(tmp_path_factory, recs, pool_size, k):
    pool = [sid for sid in SNIPPETS[:pool_size] if any(r["snippet_id"] == sid for r in recs)]
    check(tmp_path_factory.mktemp("fc"), recs, pool, k)


def test_split_frames_and_foreign_snippets_are_exercised(tmp_path):
    path = str(tmp_path / "forecasts.jsonl")
    write(path, SPLIT)
    fc = baselines.load_forecasts(path)["s0"]
    assert fc.frame_index.tolist() == [0, 2, 2]
    assert fc.actor_id == ("a1", "a0", "a2")
    # s1 is not in the pool, so its covariance is never scored
    picked, audit = baselines.al_select(["s0"], baselines.load_forecasts(path), {"s0": set()}, 1)
    assert picked == ["s0"] and np.isfinite(audit[0].value)
    with pytest.raises(ForecastError, match="snippet s1 frame 0: covariance for actor a1 step 1"):
        baselines.al_select(["s0", "s1"], baselines.load_forecasts(path), {"s0": set(), "s1": set()}, 1)


@settings(max_examples=200, deadline=None)
@given(dets=st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=1, max_size=70))
def test_array_log_matches_scalar_log(dets):
    assert np.log(np.array(dets)).tolist() == [float(np.log(d)) for d in dets]
