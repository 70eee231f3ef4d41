"""Output checks for one benchmark repetition, run in a process of its own.

    python perfbench/check.py INPUTS_DIR JOBS_JSON REPORT_OUT

JOBS_JSON lists the outputs to check, one job per CLI command:
{"command": "score", "store": DIR}, {"command": "curate", "store": DIR,
"result": PATH} or {"command": "baseline", "result": PATH, "method": M,
"k": K}. REPORT_OUT receives {command: [problem, ...]}; an empty list means
the command's output passed. Checks recompute what they can with plain
numpy rather than through the functions under test.
"""

import json
import os
import sys

import numpy as np

from logcurator.scene import Snippet, snippets_overlap
from logcurator.selection import validate_result_obj


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


class Inputs:
    def __init__(self, inputs_dir):
        with open(os.path.join(inputs_dir, "index.json")) as fh:
            index = json.load(fh)
        with open(index["files"]["config"]) as fh:
            self.config = json.load(fh)
        self.length = index["snippet_length"]
        self.snippets = {
            sid: Snippet(sid, log_id, tuple(frame_range), ())
            for sid, (log_id, frame_range) in index["snippets"].items()
        }
        self.ids = sorted(self.snippets)
        by_log = {}
        for s in self.snippets.values():
            by_log.setdefault(s.log_id, []).append(s)
        self.adjacency = {sid: set() for sid in self.ids}
        for group in by_log.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    if snippets_overlap(a, b):
                        self.adjacency[a.snippet_id].add(b.snippet_id)
                        self.adjacency[b.snippet_id].add(a.snippet_id)


class Store:
    """A feature store read straight from its files, with its problems."""

    def __init__(self, directory, inputs):
        self.problems = []
        try:
            self._load(directory, inputs)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            self.problems.append(f"store unreadable or malformed: {exc!r}")

    def _load(self, directory, inputs):
        srows = _read_jsonl(os.path.join(directory, "snippet_features.jsonl"))
        frows = _read_jsonl(os.path.join(directory, "frame_features.jsonl"))
        with open(os.path.join(directory, "normalization.json")) as fh:
            norm = json.load(fh)
        self.names = srows[0].get("names", [])
        frame_dim = len(frows[0].get("names", []))
        self.ids = [r.get("snippet_id") for r in srows[1:]]
        if self.ids != inputs.ids:
            self.problems.append(
                f"store has {len(self.ids)} snippet rows; pool has {len(inputs.ids)} ids"
            )
        self.matrix = np.array([r.get("values") for r in srows[1:]], dtype=float)
        self.valid = {r.get("snippet_id"): r.get("valid") is True for r in srows[1:]}
        if self.matrix.shape != (len(self.ids), len(self.names)) or not np.all(np.isfinite(self.matrix)):
            self.problems.append(f"snippet matrix {self.matrix.shape} is ragged or not finite")
        self.frames = {r.get("snippet_id"): np.asarray(r.get("values"), dtype=float) for r in frows[1:]}
        if sorted(self.frames) != inputs.ids:
            self.problems.append(f"store has {len(self.frames)} frame rows; pool has {len(inputs.ids)} ids")
        for sid, mat in self.frames.items():
            if mat.shape != (inputs.length, frame_dim) or not np.all(np.isfinite(mat)):
                self.problems.append(f"frame matrix of {sid} is {mat.shape} or not finite")
                break
        self.stats = {}
        for part, dim in (("snippet", len(self.names)), ("frame", frame_dim)):
            mean = np.asarray(norm[part]["mean"], dtype=float)
            divisor = np.asarray(norm[part]["std"], dtype=float).copy()
            divisor[list(norm[part]["flagged"])] = 1.0
            if mean.shape != (dim,) or divisor.shape != (dim,) or not np.all(np.isfinite(mean + divisor)):
                self.problems.append(f"{part} normalization is malformed")
            self.stats[part] = (mean, divisor)

    def weights(self, spec):
        w = np.zeros(len(self.names))
        for name, value in spec.items():
            w[self.names.index(name)] = value
        return w

    def normalized_frames(self, sid):
        mean, divisor = self.stats["frame"]
        return (self.frames[sid] - mean) / divisor


def directed_distance(a, b):
    """max over frames of a of the distance to the nearest frame of b."""
    diff = a[:, None, :] - b[None, :, :]
    return float(np.sqrt(np.max(np.min(np.einsum("ijk,ijk->ij", diff, diff), axis=1))))


def _close(x, y, tol=1e-6):
    return abs(x - y) <= tol * max(1.0, abs(y))


def _common_checks(obj, inputs):
    problems = validate_result_obj(obj)
    if problems:
        return problems
    selected = obj["selected"]
    unknown = [sid for sid in selected if sid not in inputs.snippets]
    if unknown:
        return [f"selected ids not in the pool: {unknown[:5]}"]
    for i, a in enumerate(selected):
        for b in selected[i + 1 :]:
            if snippets_overlap(inputs.snippets[a], inputs.snippets[b]):
                problems.append(f"selected snippets {a} and {b} overlap")
    return problems


def _non_increasing(values, what):
    for i in range(1, len(values)):
        if values[i] > values[i - 1]:
            return [f"{what}: audit value rises at entry {i} ({values[i - 1]} -> {values[i]})"]
    return []


def check_curate(obj, inputs, store):
    problems = _common_checks(obj, inputs)
    if problems or store.problems:
        return problems + [f"store: {p}" for p in store.problems]
    cfg = inputs.config
    tasks = {t["name"]: t for t in cfg["tasks"]}
    if [t["name"] for t in obj["tasks"]] != list(tasks):
        problems.append("result tasks differ from the config tasks")
    for t in obj["tasks"]:
        if len(t["snippet_ids"]) != tasks.get(t["name"], {}).get("budget"):
            problems.append(f"task {t['name']}: {len(t['snippet_ids'])} picks, budget not met")
    if len(obj["diverse"]["snippet_ids"]) != cfg["k_div"]:
        problems.append(f"diverse: {len(obj['diverse']['snippet_ids'])} picks of k_div {cfg['k_div']}")

    # Replay the audit trail: every pick is feasible, its value is right,
    # no feasible candidate scores higher (challenging phase), and its
    # eliminated list is exactly its feasible overlap partners.
    row = {sid: i for i, sid in enumerate(store.ids)}
    alive = {sid for sid in store.ids if store.valid[sid]}
    anchors = []
    for n, e in enumerate(obj["audit"]):
        pick, value = e["snippet_id"], e["value"]
        if pick not in alive:
            problems.append(f"audit {n}: {pick} was not feasible")
            break
        if e["phase"] == "challenging":
            w = store.weights(tasks[e["task"]]["weights"])
            cand = sorted(alive)
            scores = store.matrix[[row[sid] for sid in cand]] @ w
            if not _close(value, float(store.matrix[row[pick]] @ w), 1e-9):
                problems.append(f"audit {n}: value {value} is not the score of {pick}")
            if float(np.max(scores)) > value + 1e-9 * max(1.0, abs(value)):
                problems.append(f"audit {n}: a feasible snippet outscores {pick}")
        elif e["seed"]:
            mean, divisor = store.stats["snippet"]
            norms = np.linalg.norm((store.matrix - mean) / divisor, axis=1)
            if not _close(value, float(norms[row[pick]])) or max(norms[row[s]] for s in alive) > value + 1e-6:
                problems.append(f"audit {n}: seed pick {pick} is not the largest standardized norm")
        else:
            a = store.normalized_frames(pick)
            expected = min(directed_distance(a, store.normalized_frames(b)) for b in anchors)
            if not _close(value, expected):
                problems.append(f"audit {n}: diverse value {value} != min distance {expected}")
        eliminated = sorted(inputs.adjacency[pick] & (alive - {pick}))
        if list(e["eliminated"]) != eliminated:
            problems.append(f"audit {n}: eliminated list of {pick} is wrong")
        alive -= {pick} | inputs.adjacency[pick]
        anchors.append(pick)

    for name in tasks:
        values = [e["value"] for e in obj["audit"] if e["phase"] == "challenging" and e["task"] == name]
        problems += _non_increasing(values, f"task {name}")
    diverse = [e["value"] for e in obj["audit"] if e["phase"] == "diverse" and not e["seed"]]
    problems += _non_increasing(diverse, "diverse phase")
    return problems


def check_baseline(obj, inputs, method, k):
    problems = _common_checks(obj, inputs)
    if problems:
        return problems
    if obj["method"] != method or len(obj["selected"]) != k:
        problems.append(f"{obj['method']} baseline picked {len(obj['selected'])}, asked {method} k={k}")
    blocked = set()
    for n, e in enumerate(obj["audit"]):
        pick = e["snippet_id"]
        eliminated = sorted(inputs.adjacency[pick] - blocked - {pick})
        if pick in blocked or list(e["eliminated"]) != eliminated:
            problems.append(f"audit {n}: {pick} was blocked or its eliminated list is wrong")
        blocked |= {pick} | inputs.adjacency[pick]
    if method == "entropy":
        problems += _non_increasing([e["value"] for e in obj["audit"]], "entropy baseline")
    return problems


def run_checks(inputs_dir, jobs):
    inputs = Inputs(inputs_dir)
    stores = {}
    report = {}
    for job in jobs:
        if "store" in job and job["store"] not in stores:
            stores[job["store"]] = Store(job["store"], inputs)
        if job["command"] == "score":
            report["score"] = stores[job["store"]].problems
            continue
        try:
            with open(job["result"]) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            report[job["command"]] = [f"result unreadable: {exc}"]
            continue
        try:
            if job["command"] == "curate":
                report["curate"] = check_curate(obj, inputs, stores[job["store"]])
            else:
                report["baseline"] = check_baseline(obj, inputs, job["method"], job["k"])
        except (LookupError, TypeError, ValueError) as exc:
            report[job["command"]] = [f"result malformed: {exc!r}"]
    return report


def main(argv) -> int:
    inputs_dir, jobs_path, report_path = argv
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    with open(report_path, "w") as fh:
        json.dump(run_checks(inputs_dir, jobs), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
