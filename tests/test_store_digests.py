"""Feature-store digests pinned for fixed pools.

Scoring is deterministic and the store is canonical JSON, so a change in any
measure, down to the last bit of one float, changes a digest. The values were
recorded from the per-detection loop implementation of the traffic and frame
measures and must survive any refactor of them. The synth pool's own files
and its forecasts are pinned too; those digests were recorded when snippets
were still per-frame and per-detection objects, before they became columns.
"""

import hashlib
import os

import pytest

from logcurator import baselines, features, synthgen
from logcurator.scene import MapIndex, load_pool, save_pool
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
    # turns on a straight road: the map's one element, a traffic light, makes
    # an element table of one polyline
    "straight_turn": {
        "frame_features.jsonl": "b0a7cc98c62bfd8b4bb8621d0b3e60fe239ad07f10ffdabd5b88b8951ded2f2e",
        "normalization.json": "6ddc100afdbbb0e23c721844cc124ebef83cb769bead3c41a23745ebba0eb35c",
        "snippet_features.jsonl": "b1df54346c48cb8ba525df071a99556b6714a28651ad06e8ec66ade260ffc4ec",
    },
}


SYNTH_FILES = {
    "forecasts.jsonl": "a55c3ab7a9222f1505767528c44516004ee6bd08aed9132de7e807213904dfa0",
    "pool.jsonl": "d9c793c086c76f0410f10e6b594261c526275e3155ca3b09bcade1562550fa3d",
    "scene.map.json": "7300d8bb43f868727114a573e5e9627f7b4bf141a49d1a3bf0f7f3e2e4600039",
}


def _digests(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
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


def _straight_turn_pool():
    spec = synthgen.default_spec("straight_road", "turn", seed=11, n_snippets=6, num_frames=40, jitter=True)
    pool = synthgen.generate_pool(spec)[0]
    assert len(MapIndex(pool.scene_map).elements.starts) == 1
    return pool


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_feature_store_digests(case, tmp_path):
    if case == "golden":
        pool, cfg = load_pool(GOLDEN_POOL), CurationConfig()
    elif case == "straight_turn":
        pool, cfg = _straight_turn_pool(), CurationConfig()
    else:
        pool = _synth_pool()
        cfg = CurationConfig(roi_radius=5.0) if case == "synth_roi5" else CurationConfig()
    features.write_features(str(tmp_path), features.score_pool(pool, cfg))
    assert _digests(tmp_path) == DIGESTS[case]


def test_synth_pool_and_forecast_digests(tmp_path):
    pool = _synth_pool()
    save_pool(pool, str(tmp_path / "pool.jsonl"))
    forecasts = synthgen.synth_forecasts(pool, 5)
    baselines.write_forecasts(str(tmp_path / "forecasts.jsonl"), forecasts, 5)
    assert _digests(tmp_path) == SYNTH_FILES
