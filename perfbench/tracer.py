"""Run one logcurator CLI command in-process with per-layer spans and counts.

    python perfbench/tracer.py SUMMARY_OUT SPANS_OUT CLI_ARG...

Wraps the public functions of each layer at the names their callers look
up, then calls `cli.main(argv)`. Each wrapped call records a span (name,
start, end, parent); functions entered more than about 1e5 times per
command (`snippets_overlap`, `dissimilarity`) get a call counter instead,
because a timer there would distort the command it measures. All spans go
to SPANS_OUT; SUMMARY_OUT holds the small aggregates the command harness
reads. Exits with the command's own exit code.
"""

import json
import os
import sys
import time

from logcurator import baselines, cli, features, geometry, scene, sdv, selection, traffic


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, after=None):
        """Wrap `fn` in a timed span; `after(args, result)` may add counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds; plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {}
        for (name, start, end, _), kids in zip(self.spans, child_time):
            entry = layers.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - kids
        snippet_ms = [1e3 * (end - start) for name, start, end, _ in self.spans if name == "features.snippet"]
        return {"layers": layers, "counts": self.counts, "snippet_ms": snippet_ms}


def install(tr: Tracer) -> None:
    def file_bytes(counter):
        return lambda args, result: tr.add(counter, os.path.getsize(args[0]))

    def project_pairs(args, result):
        tr.add("geometry.project_pairs", len(result[0]) * max(len(args[1]) - 1, 1))

    def snippet_done(args, result):
        tr.add("features.snippets_scored", 1)
        tr.add("features.snippets_invalid", 0 if result[0].valid else 1)

    def challenging_done(args, result):
        picked, audit = result
        tr.add("selection.challenging_picks", sum(len(v) for v in picked.values()))
        tr.add("selection.eliminated", sum(len(e.eliminated) for e in audit))

    def diverse_done(args, result):
        tr.add("selection.eliminated", sum(len(e.eliminated) for e in result[1]))

    cli.load_pool = tr.span("scene.load_pool", cli.load_pool, file_bytes("scene.load_pool_bytes"))
    scene.MapIndex.__init__ = tr.span("scene.map_index", scene.MapIndex.__init__)
    geometry.project_points_to_polyline = tr.span(
        "geometry.project", geometry.project_points_to_polyline, project_pairs
    )

    features.score_pool = tr.span("features.score_pool", features.score_pool)
    features.compute_snippet_features = tr.span(
        "features.snippet", features.compute_snippet_features, snippet_done
    )
    features.infra_features = tr.span("infra.features", features.infra_features)
    features.traffic_features = tr.span("traffic.features", features.traffic_features)
    features.sdv_features = tr.span("sdv.features", features.sdv_features)
    features.assemble_frame_vectors = tr.span("features.frame_vectors", features.assemble_frame_vectors)
    features.write_features = tr.span("features.write_store", features.write_features)
    features.read_features = tr.span("features.read_store", features.read_features)
    sdv.interactions = tr.span("sdv.interactions", sdv.interactions)
    sdv.match_route = tr.span("sdv.match_route", sdv.match_route)
    # one wrapper for every module that imported the name
    build_tracks = tr.span("traffic.build_track_paths", traffic.build_track_paths)
    traffic.build_track_paths = sdv.build_track_paths = cli.build_track_paths = build_tracks

    selection.curate = tr.span("selection.curate", selection.curate)
    selection.overlap_adjacency = tr.span("selection.adjacency", selection.overlap_adjacency)
    selection.select_challenging = tr.span(
        "selection.challenging", selection.select_challenging, challenging_done
    )
    selection.select_diverse = tr.span("selection.diverse", selection.select_diverse, diverse_done)
    selection.dissimilarity = tr.counter("selection.dissimilarity_calls", selection.dissimilarity)
    selection.snippets_overlap = tr.counter("selection.overlap_checks", selection.snippets_overlap)

    baselines.load_forecasts = tr.span(
        "baselines.load_forecasts", baselines.load_forecasts, file_bytes("baselines.forecast_bytes")
    )
    baselines.al_select = tr.span("baselines.entropy_rank", baselines.al_select)
    baselines.random_select = tr.span("baselines.random_select", baselines.random_select)


def main(argv) -> int:
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[2:]
    tr = Tracer()
    install(tr)
    rc = tr.span("cli.command", cli.main)(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"argv": cli_argv, "rc": rc, "spans": tr.spans}, fh)
    with open(summary_path, "w") as fh:
        json.dump(tr.summary(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
