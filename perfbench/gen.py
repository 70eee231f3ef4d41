"""Generate one workload's inputs from a seed, in a process of its own.

    python perfbench/gen.py WORKLOAD SEED OUT_DIR [--scale F]

Writes OUT_DIR/pool.jsonl (+ map sidecar), OUT_DIR/config.json,
OUT_DIR/forecasts.jsonl when the workload has a forecast horizon, and
OUT_DIR/index.json: per-snippet log ids and frame ranges for the output
checks, the generator parameters, input byte sizes and generation time.
Run as a child so the command harness never holds a pool in memory: Linux
carries a parent's peak RSS into the ru_maxrss of every child it starts.
"""

import argparse
import copy
import os
import sys
import time

from workloads import WORKLOADS


def scaled_params(name: str, scale: float) -> dict:
    """Workload parameters with snippet count and budgets scaled by `scale`."""
    w = copy.deepcopy(WORKLOADS[name])
    if scale != 1.0:
        spec = w["spec"]
        spec["n_snippets"] = max(8, 2 * round(spec["n_snippets"] * scale / 2))
        for t in w["tasks"]:
            t["budget"] = max(1, round(t["budget"] * scale))
        w["k_div"] = round(w["k_div"] * scale)
        w["baseline"]["k"] = max(1, round(w["baseline"]["k"] * scale))
    return w


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("out_dir")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    import numpy

    from logcurator import baselines, synthgen
    from logcurator.scene import canonical_dumps, save_pool, write_atomic

    w = scaled_params(args.workload, args.scale)
    os.makedirs(args.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    spec = synthgen.default_spec(w["template"], w["plan"], seed=args.seed, **w["spec"])
    pool, _ = synthgen.generate_pool(spec)
    pool_path = os.path.join(args.out_dir, "pool.jsonl")
    save_pool(pool, pool_path)
    files = {"pool": pool_path}
    if w["horizon"]:
        forecasts_path = os.path.join(args.out_dir, "forecasts.jsonl")
        forecasts = synthgen.synth_forecasts(pool, w["horizon"])
        baselines.write_forecasts(forecasts_path, forecasts, w["horizon"])
        files["forecasts"] = forecasts_path
    generate_s = time.perf_counter() - t0

    config = {"seed": 0, "k_div": w["k_div"], "tasks": w["tasks"]}
    config_path = os.path.join(args.out_dir, "config.json")
    write_atomic(config_path, canonical_dumps(config) + "\n")
    files["config"] = config_path

    index = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "params": w,
        "snippet_length": pool.snippet_length,
        "snippets": {s.snippet_id: [s.log_id, list(s.frame_range)] for s in pool.snippets},
        "files": files,
        "bytes": {k: os.path.getsize(p) for k, p in files.items()},
        "generate_s": generate_s,
        "numpy": numpy.__version__,
    }
    write_atomic(os.path.join(args.out_dir, "index.json"), canonical_dumps(index) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
