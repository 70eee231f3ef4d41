"""End-to-end benchmark of the logcurator CLI, with a traced per-layer mode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed in a child process, then runs
the real CLI commands (score, curate, baseline), one fresh process per
command with `--jobs 1`, repeating the whole pipeline while the next
repetition still fits in S seconds. Every output is checked; a non-zero
exit or a failed check counts as a failed operation. The report starts
with a provenance header, lists every metric by name and unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured untraced. --trace 1
runs each repetition twice, untraced and then through perfbench/tracer.py
(same commands in-process, layer functions wrapped), and reports the
per-layer metrics plus the tracing overhead. See perfbench/README.md.

The harness itself stays small: it never loads a pool or a store, because
Linux carries a parent's peak RSS into every child's ru_maxrss.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

DEADLINE_S = 170.0  # a run must exit within 180 s
SETUP_MIN = 7
SPEED_EXPONENT = {"s": -1, "ms": -1, "MB/s": 1}  # how each unit scales with host speed
# BLAS thread pools would make a --jobs 1 command use both vCPUs, so its
# time would depend on whatever else runs on the second one.
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STORE_FILES = ("snippet_features.jsonl", "frame_features.jsonl", "normalization.json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "score_s": "s",
    "curate_s": "s",
    "baseline_s": "s",
    "pipeline_s": "s",
    "score_rss_mb": "MB",
    "curate_rss_mb": "MB",
}

# per-layer metric -> (unit, span name or count key, kind); kinds:
# "incl" inclusive seconds, "self" self seconds, "count" a counter
SPAN_METRICS = {
    "scene.load_pool_s": ("s", "scene.load_pool", "incl"),
    "scene.map_index_s": ("s", "scene.map_index", "incl"),
    "geometry.project_s": ("s", "geometry.project", "incl"),
    "geometry.project_calls": ("count", "geometry.project", "calls"),
    "geometry.project_pairs": ("count", "geometry.project_pairs", "count"),
    "sdv.features_s": ("s", "sdv.features", "incl"),
    "sdv.interactions_s": ("s", "sdv.interactions", "incl"),
    "sdv.match_route_s": ("s", "sdv.match_route", "incl"),
    "traffic.features_s": ("s", "traffic.features", "incl"),
    "infra.features_s": ("s", "infra.features", "incl"),
    "features.frame_vectors_s": ("s", "features.frame_vectors", "incl"),
    "features.score_pool_self_s": ("s", "features.score_pool", "self"),
    "features.write_store_s": ("s", "features.write_store", "incl"),
    "features.read_store_s": ("s", "features.read_store", "incl"),
    "features.snippets_scored": ("count", "features.snippets_scored", "count"),
    "features.snippets_invalid": ("count", "features.snippets_invalid", "count"),
    "selection.diverse_s": ("s", "selection.diverse", "incl"),
    "selection.dissimilarity_calls": ("count", "selection.dissimilarity_calls", "count"),
    "selection.adjacency_s": ("s", "selection.adjacency", "incl"),
    "selection.overlap_checks": ("count", "selection.overlap_checks", "count"),
    "selection.challenging_s": ("s", "selection.challenging", "incl"),
    "selection.challenging_picks": ("count", "selection.challenging_picks", "count"),
    "selection.curate_self_s": ("s", "selection.curate", "self"),
    "selection.eliminated": ("count", "selection.eliminated", "count"),
    "baselines.load_forecasts_s": ("s", "baselines.load_forecasts", "incl"),
    "baselines.entropy_rank_s": ("s", "baselines.entropy_rank", "incl"),
    "baselines.random_select_s": ("s", "baselines.random_select", "incl"),
    "cli.self_s": ("s", "cli.command", "self"),
}
DERIVED_UNITS = {
    "scene.load_pool_mb_per_s": "MB/s",
    "baselines.forecast_mb_per_s": "MB/s",
    "traffic.track_builds_per_snippet": "count",
    "features.snippet_ms_p50": "ms",
    "features.snippet_ms_p90": "ms",
    "features.snippet_samples": "count",
    "synthgen.generate_s": "s",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CURATOR_JOBS", None)
    env.update({name: "1" for name in SINGLE_THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def sha256(path: str):
    try:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        return h.hexdigest()
    except OSError:
        return None


_rng = random.Random(12345)
_PROBE_FLOATS = [_rng.random() for _ in range(40_000)]
_PROBE_DOC = json.dumps([
    {"id": f"a{i}", "kind": "car",
     "xy": [[round(x, 6), round(1 - x, 6)] for x in _PROBE_FLOATS[i * 40:i * 40 + 40]]}
    for i in range(300)
])


def _probe_loop():
    acc = 0
    for i in range(100_000):
        acc += i * i


def _probe_json():
    json.loads(_PROBE_DOC)


def _probe_sort():
    sorted(_PROBE_FLOATS)


# kernel -> its time in seconds on an idle 2-vCPU x86-64 host. Together the
# kernels cover much of what the CLI spends its time on: bytecode, JSON
# parsing and cache-missing memory access.
PROBES = {_probe_loop: 0.0060, _probe_json: 0.0039, _probe_sort: 0.0043}


def probe() -> float:
    """The host's current slowdown against the reference times in PROBES.

    On a shared host the same command takes up to 1.8x longer while
    neighbours are busy, for stretches of seconds to minutes. The kernels
    are timed in three interleaved rounds; the slowdown is the geometric
    mean over kernels of median / reference. They touch a few MB at most,
    so the harness stays small.
    """
    times = {kernel: [] for kernel in PROBES}
    for _ in range(3):
        for kernel, samples in times.items():
            t0 = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - t0)
    log_sum = sum(math.log(statistics.median(t) / PROBES[k]) for k, t in times.items())
    return math.exp(log_sum / len(PROBES))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


class Harness:
    """Starts children, times them and keeps the operation tally."""

    def __init__(self, work: str):
        self.env = child_env()
        self.work = work
        self.started = time.monotonic()
        self.deadline = self.started + DEADLINE_S
        self.ops = []  # one ok flag per operation attempted
        self.n_children = 0
        probe()  # warm-up
        self.probes = [probe()]

    def spawn(self, argv, stdout_path=None):
        """Run one child to completion.

        Returns (wall seconds, host slowdown, peak RSS MB, exit code). A
        speed probe follows every child, so the probes sample the host's
        speed throughout the run; a child's slowdown is the geometric mean
        of the probes just before and just after it.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 1.0, 0.0, -1
        self.n_children += 1
        err_path = os.path.join(self.work, f"child-{self.n_children}.err")
        out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
        try:
            with open(err_path, "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
                watchdog = threading.Timer(remaining, proc.kill)
                watchdog.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    watchdog.cancel()
                wall = time.perf_counter() - t0
        finally:
            if stdout_path:
                out.close()
        self.probes.append(probe())
        slowdown = math.sqrt(self.probes[-2] * self.probes[-1])
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path, "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            print(f"# child exited {proc.returncode}: {' '.join(argv[1:4])} ...\n{tail}", file=sys.stderr)
        return wall, slowdown, usage.ru_maxrss / 1024.0, proc.returncode

    def setup_sample(self, path: str):
        """One fresh `logcurator.cli schema`: interpreter start plus import.
        Returns (wall seconds, host slowdown)."""
        wall, slowdown, _, rc = self.spawn([sys.executable, "-m", "logcurator.cli", "schema"], path)
        try:
            with open(path) as fh:
                obj = json.load(fh)
            ok = rc == 0 and len(obj["snippet"]) > 0 and len(obj["frame"]) > 0
        except (OSError, ValueError, LookupError, TypeError):
            ok = False
        self.ops.append(ok)
        return wall, slowdown


def commands(w: dict, inputs: dict, out: str) -> list:
    """(name, CLI args, output files, check job) for one pipeline run."""
    files = inputs["files"]
    store = os.path.join(out, "store")
    result = os.path.join(out, "result.json")
    base = os.path.join(out, "baseline.json")
    b = w["baseline"]
    baseline_args = ["baseline", files["pool"], "--method", b["method"], "-k", str(b["k"]),
                     "--seed", "0", "--out", base]
    if b["method"] == "entropy":
        baseline_args += ["--forecasts", files["forecasts"]]
    return [
        ("score", ["score", files["pool"], "--out", store, "--jobs", "1"],
         [os.path.join(store, f) for f in STORE_FILES], {"command": "score", "store": store}),
        ("curate", ["curate", files["pool"], "--config", files["config"], "--features", store,
                    "--out", result, "--jobs", "1"],
         [result], {"command": "curate", "store": store, "result": result}),
        ("baseline", baseline_args, [base],
         {"command": "baseline", "result": base, "method": b["method"], "k": b["k"]}),
    ]


def run_pipeline(harness, w, inputs, out, traced, corrupt=None):
    """One pass over the workload's commands; per command its timing,
    exit code, output hashes and (traced) summary path."""
    os.makedirs(out, exist_ok=True)
    steps = {}
    for name, args, outputs, job in commands(w, inputs, out):
        if traced:
            summary = os.path.join(out, f"{name}.summary.json")
            spans = os.path.join(out, f"{name}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), summary, spans, *args]
        else:
            summary = None
            argv = [sys.executable, "-m", "logcurator.cli", *args]
        wall, slowdown, rss, rc = harness.spawn(argv)
        if corrupt is not None:
            corrupt(name, out)
        steps[name] = {"wall_s": wall, "s": wall / slowdown, "rss_mb": rss, "rc": rc, "summary": summary,
                       "hashes": {os.path.relpath(p, out): sha256(p) for p in outputs},
                       "job": job}
    return steps


def check_outputs(harness, inputs_dir, steps, scratch) -> dict:
    """Run check.py on one pipeline's outputs: {command: [problems]}."""
    jobs_path = os.path.join(scratch, "check-jobs.json")
    report_path = os.path.join(scratch, "check-report.json")
    with open(jobs_path, "w") as fh:
        json.dump([s["job"] for s in steps.values()], fh)
    rc = harness.spawn([sys.executable, os.path.join(HERE, "check.py"), inputs_dir, jobs_path, report_path])[-1]
    if rc != 0:
        return {name: [f"check.py exited {rc}"] for name in steps}
    with open(report_path) as fh:
        return json.load(fh)


def layer_metrics(steps) -> dict:
    """Per-layer metrics of one traced pipeline run (summed over commands)."""
    layers, counts, snippet_ms = {}, {}, []
    for step in steps.values():
        try:
            with open(step["summary"]) as fh:
                summary = json.load(fh)
        except (OSError, ValueError):
            continue
        for name, entry in summary["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, n in summary["counts"].items():
            counts[name] = counts.get(name, 0) + n
        snippet_ms += summary["snippet_ms"]
    out = {}
    for metric, (_, key, kind) in SPAN_METRICS.items():
        if kind == "count":
            out[metric] = counts.get(key, 0)
        else:
            entry = layers.get(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            out[metric] = entry["calls"] if kind == "calls" else entry[f"{kind}_s"]

    def rate(nbytes, seconds):
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    out["scene.load_pool_mb_per_s"] = rate(counts.get("scene.load_pool_bytes", 0), out["scene.load_pool_s"])
    out["baselines.forecast_mb_per_s"] = rate(
        counts.get("baselines.forecast_bytes", 0), out["baselines.load_forecasts_s"]
    )
    scored = out["features.snippets_scored"]
    builds = layers.get("traffic.build_track_paths", {}).get("calls", 0)
    out["traffic.track_builds_per_snippet"] = builds / scored if scored else 0.0
    out["features.snippet_ms_p50"] = percentile(snippet_ms, 50) if snippet_ms else 0.0
    out["features.snippet_ms_p90"] = percentile(snippet_ms, 90) if snippet_ms else 0.0
    out["features.snippet_samples"] = len(snippet_ms)
    return out


def provenance(args, inputs) -> list:
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"host: nproc={len(os.sched_getaffinity(0))} cpu_count={os.cpu_count()} "
        f"python={platform.python_version()} numpy={inputs['numpy']} platform={platform.platform()}",
    ]
    rev, dirty = "none", "n/a"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout
            dirty = "yes" if status.strip() else "no"
        except (OSError, subprocess.CalledProcessError):
            rev = "unknown"
    lines.append(f"tree: git={rev} dirty={dirty}")
    lines.append("params: " + json.dumps(inputs["params"], sort_keys=True))
    lines.append("inputs: " + " ".join(f"{k}={v}B" for k, v in sorted(inputs["bytes"].items())))
    return lines


def main(argv=None, corrupt=None) -> int:
    """`corrupt(name, out_dir)`, when given, alters a command's outputs right
    after it ran in the first repetition; the self-tests use it to show that
    a bad output counts as a failed operation."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink the workload (self-tests)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logcurator", "cli.py")):
        print(f"error: no logcurator sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}-{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, Harness(work), work, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, harness, work, corrupt) -> int:
    """Generate, run, check and report one workload; returns the exit code."""
    inputs_dir = os.path.join(work, "inputs")
    rc = harness.spawn([sys.executable, os.path.join(HERE, "gen.py"), args.workload,
                        str(args.seed), inputs_dir, "--scale", repr(args.scale)])[-1]
    if rc != 0:
        print("error: input generation failed", file=sys.stderr)
        return 1
    with open(os.path.join(inputs_dir, "index.json")) as fh:
        inputs = json.load(fh)
    inputs.pop("snippets")
    w = inputs["params"]

    schema_out = os.path.join(work, "schema.json")
    harness.setup_sample(schema_out)  # warm-up: byte-compiles the package
    setup = []

    modes = ("plain", "traced") if args.trace else ("plain",)
    reps = []
    t0 = time.monotonic()
    while True:
        # set-up samples are spread over the run, so their median sees the
        # host's typical state rather than one moment of it
        setup.append(harness.setup_sample(schema_out))
        rep_start = time.monotonic()
        rep = {}
        for mode in modes:
            out = os.path.join(work, f"rep{len(reps)}-{mode}")
            hook = corrupt if not reps and mode == "plain" else None
            rep[mode] = run_pipeline(harness, w, inputs, out, mode == "traced", hook)
        reps.append(rep)
        now = time.monotonic()
        if now - t0 + (now - rep_start) > args.seconds or now + (now - rep_start) > harness.deadline:
            break

    if args.trace:
        keep = os.path.join(WORK_ROOT, "spans", f"{args.workload}-seed{args.seed}")
        os.makedirs(keep, exist_ok=True)
        for name, step in reps[0]["traced"].items():
            spans = step["summary"].replace(".summary.json", ".spans.json")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(keep, os.path.basename(spans)))
    while len(setup) < SETUP_MIN:
        setup.append(harness.setup_sample(schema_out))
    reference = reps[0]["plain"]
    problems = check_outputs(harness, inputs_dir, reference, work)
    hashes = {}
    for rep in reps:
        for mode, steps in rep.items():
            for name, step in steps.items():
                ok = (step["rc"] == 0 and not problems.get(name, ["not checked"])
                      and step["hashes"] == reference[name]["hashes"])
                harness.ops.append(ok)
                for rel, digest in step["hashes"].items():
                    hashes.setdefault(f"{name}:{rel}", set()).add(digest)

    def samples(mode, key, name=None):
        if name is None:
            return [sum(s[key] for s in rep[mode].values()) for rep in reps]
        return [rep[mode][name][key] for rep in reps]

    attempted = len(harness.ops)
    failed = harness.ops.count(False)
    slowdown = statistics.median(harness.probes)
    if args.trace:
        per_rep = [layer_metrics(rep["traced"]) for rep in reps]
        raw = {m: [r[m] for r in per_rep] for m in per_rep[0]}
        raw["trace.overhead_ratio"] = [
            t / p for t, p in zip(samples("traced", "wall_s"), samples("plain", "wall_s"))
        ]
        raw["synthgen.generate_s"] = [inputs["generate_s"]]
        units = {m: spec[0] for m, spec in SPAN_METRICS.items()} | DERIVED_UNITS
        # Spans are timed in-process, not child by child, so layer times and
        # rates are scaled by the run's median slowdown.
        series = {name: [v * slowdown ** SPEED_EXPONENT.get(units[name], 0) for v in values]
                  for name, values in raw.items()}
    else:
        # Each child's time is divided by the slowdown measured around it.
        raw = {
            "setup_s": [wall for wall, _ in setup],
            "score_s": samples("plain", "wall_s", "score"),
            "curate_s": samples("plain", "wall_s", "curate"),
            "baseline_s": samples("plain", "wall_s", "baseline"),
            "pipeline_s": samples("plain", "wall_s"),
        }
        series = {
            "setup_s": [wall / slow for wall, slow in setup],
            "score_s": samples("plain", "s", "score"),
            "curate_s": samples("plain", "s", "curate"),
            "baseline_s": samples("plain", "s", "baseline"),
            "pipeline_s": samples("plain", "s"),
            "score_rss_mb": samples("plain", "rss_mb", "score"),
            "curate_rss_mb": samples("plain", "rss_mb", "curate"),
        }
        units = END_TO_END_UNITS
    metrics, unscaled = {}, {}
    for name, values in series.items():
        value = statistics.median(values)
        if units[name] == "count" and float(value).is_integer():
            value = int(value)
        metrics[name] = value
        if name in raw and raw[name] != values:
            unscaled[name] = statistics.median(raw[name])

    for line in provenance(args, inputs):
        print("# " + line)
    print(f"# host slowdown: median {slowdown:.4f}, range {min(harness.probes):.4f}-{max(harness.probes):.4f} "
          f"over {len(harness.probes)} probes; times below are divided by it, rates multiplied")
    print(f"# repetitions: {len(reps)} x {'+'.join(modes)}; setup samples: {len(setup)}; "
          f"generate {inputs['generate_s']:.2f} s; run {time.monotonic() - harness.started:.1f} s")
    if args.trace:
        print(f"# spans: {os.path.relpath(keep, ROOT)}")
    for key in sorted(hashes):
        digests = hashes[key]
        print(f"# sha256 {key} {' '.join(sorted(d or 'missing' for d in digests))}"
              + ("" if len(digests) == 1 else "  MISMATCH"))
    for name, found in problems.items():
        for p in found[:10]:
            print(f"# check {name}: {p}")
    for name in sorted(units):
        note = f"  # median of {len(series[name])}"
        if name in unscaled:
            note += f", unscaled {unscaled[name]:.6g}"
        note += ": " + " ".join(f"{v:.6g}" for v in series[name])
        print(f"{name} {metrics[name]!r} {units[name]}{note}")
    if not args.trace:
        method = w["baseline"]["method"]
        print(f"baseline_{method}_s {metrics['baseline_s']!r} s")
    print(f"failed_ops_ratio {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
