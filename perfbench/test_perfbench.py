"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench

Each test runs the real harness on a shrunken workload (a few dozen
snippets); the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.1"]
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _result(capsys, argv, corrupt=None):
    rc = run.main(argv, corrupt=corrupt)
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(capsys, workload, trace):
    rc, lines, result = _result(capsys, ["--workload", workload, "--trace", trace, *TINY])
    assert rc == 0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert lines[0].startswith("# workload=") and any(l.startswith("# host: nproc=") for l in lines)
    assert any(l.startswith("failed_ops_ratio 0.0 ratio") for l in lines)


def _inputs_index(out_dir):
    with open(os.path.join(os.path.dirname(out_dir), "inputs", "index.json")) as fh:
        return json.load(fh)


def test_overlapping_selection_counts_as_failed(capsys):
    def inject_overlap(name, out_dir):
        if name != "curate":
            return
        path = os.path.join(out_dir, "result.json")
        with open(path) as fh:
            obj = json.load(fh)
        snippets = _inputs_index(out_dir)["snippets"]
        first = obj["selected"][0]
        partner = next(
            sid for sid, (log, _) in snippets.items() if log == snippets[first][0] and sid != first
        )
        last = obj["selected"][-1]
        obj["selected"][-1] = partner
        for group in obj["tasks"] + [obj["diverse"]]:
            group["snippet_ids"] = [partner if s == last else s for s in group["snippet_ids"]]
        with open(path, "w") as fh:
            json.dump(obj, fh)

    rc, lines, result = _result(capsys, ["--workload", "wide-curate", *TINY], inject_overlap)
    assert rc == 1 and result["correct"] is False and result["failed"] >= 1
    assert any("overlap" in l for l in lines if l.startswith("# check curate"))


def test_store_with_a_missing_row_counts_as_failed(capsys):
    def drop_row(name, out_dir):
        if name != "score":
            return
        path = os.path.join(out_dir, "store", "snippet_features.jsonl")
        with open(path) as fh:
            rows = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(rows[:-1])

    rc, lines, result = _result(capsys, ["--workload", "short-triage", *TINY], drop_row)
    assert rc == 1 and result["correct"] is False and result["failed"] >= 1
    assert any(l.startswith("# check score: store has") for l in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "dense-score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
