"""Feature-store digests pinned for fixed pools.

Scoring is deterministic and the store is canonical JSON, so a change in any
measure, down to the last bit of one float, changes a digest. The values were
recorded from the per-detection loop implementation of the traffic and frame
measures and must survive any refactor of them.
"""

import hashlib
import os

import pytest

from logcurator import features, synthgen
from logcurator.scene import load_pool
from logcurator.selection import CurationConfig

GOLDEN_POOL = os.path.join(os.path.dirname(__file__), "data", "golden", "pool.jsonl")

DIGESTS = {
    "golden": {
        "frame_features.jsonl": "c77133da92d1399110da504593a41e43d1ad6866e92928ee1d823d98c232a50a",
        "normalization.json": "330504732bbedade94d9b120a27926a0a6f26eff4b6386fc1309373f47eda097",
        "snippet_features.jsonl": "e8804b01c49670d074eefe9371a25590945d10ecaad9710f119a45354600489d",
    },
    "synth": {
        "frame_features.jsonl": "a931b21b133439f0d3447f4e205738b243d73747fcbd787f28f7c3462368036e",
        "normalization.json": "7083cbed09fc8ba5eae4a85b0ffb59e0d6755f4932b7f611e604f4b567acd4e3",
        "snippet_features.jsonl": "2adcce3a47cbbe8b8cb4079bfc203ff6c724a41b441a703b523d85a3c0afe65b",
    },
    # a 5 m gate drops most detections, so the gated paths are pinned too
    "synth_roi5": {
        "frame_features.jsonl": "1929a30dc4a99acde35cd576eb06f617efdf21f62fbc33b0f5d76a78b38413dd",
        "normalization.json": "c3565e6c2b77460faed8b2ba7c1082be3d847b52a29ab56a3e525bd016c9f092",
        "snippet_features.jsonl": "c2bb56ddcd8ab47f16aeda33d3cd7ff4ab9b9ca23ec0fc4427d0b40ec11cb9d8",
    },
}


def _synth_pool():
    spec = synthgen.default_spec(
        "four_way_intersection",
        "turn",
        seed=11,
        n_snippets=6,
        num_frames=40,
        jitter=True,
        bicycle_every=2,
    )
    return synthgen.generate_pool(spec)[0]


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_feature_store_digests(case, tmp_path):
    if case == "golden":
        pool, cfg = load_pool(GOLDEN_POOL), CurationConfig()
    else:
        pool = _synth_pool()
        cfg = CurationConfig(roi_radius=5.0) if case == "synth_roi5" else CurationConfig()
    features.write_features(str(tmp_path), features.score_pool(pool, cfg))
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(tmp_path))
    }
    assert got == DIGESTS[case]
