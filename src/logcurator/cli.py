"""Command line front end.

Exit codes: 0 on success, 1 for usage problems (bad flags, missing
arguments), 2 for domain failures (unreadable or invalid files, infeasible
scenario specs). All file outputs are canonical JSON written atomically, so
reruns with identical inputs produce byte-identical artifacts.
"""

import os
import sys

import click
import numpy as np

# `synthgen` and `baselines` are imported by the commands that run them
from . import features, selection
from .scene import (
    DETECTION_CLASSES,
    PLANS,
    TEMPLATES,
    ForecastError,
    MapIndex,
    OutputError,
    PoolFormatError,
    PoolValidationError,
    ScenarioError,
    canonical_dumps,
    load_pool,
    read_json,
    remove_output,
    save_pool,
    sidecar_path,
    write_atomic,
    write_json,
)

DOMAIN_ERRORS = (
    OutputError,
    PoolFormatError,
    PoolValidationError,
    selection.ConfigError,
    ForecastError,
    ScenarioError,
)

HISTOGRAM_BINS = 32


def _resolve_jobs(jobs) -> int:
    """--jobs, else CURATOR_JOBS, else 1; a CURATOR_JOBS that is not an
    integer >= 1 is a usage error."""
    if jobs is not None:
        return jobs
    raw = os.environ.get("CURATOR_JOBS", "")
    if not raw:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise click.UsageError(f"CURATOR_JOBS must be an integer >= 1, got {raw!r}")
    return jobs


@click.group()
def cli():
    """Score driving-log snippets and curate labeling sets."""


@cli.command()
def schema():
    """Print the snippet and frame feature schema as JSON."""
    click.echo(canonical_dumps(features.schema_description()))


@cli.command()
@click.option("--template", type=click.Choice(TEMPLATES), default="straight_road", show_default=True)
@click.option("--plan", type=click.Choice(PLANS), default="cruise", show_default=True)
@click.option("--snippets", "n_snippets", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--frames", type=click.IntRange(min=2), default=250, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--jitter/--no-jitter", default=False, show_default=True)
@click.option("--overlap-every", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--bicycle-every", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--id-prefix", default="s", show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Pool NDJSON path; the map sidecar lands next to it.")
@click.option("--cards", "cards_path", type=click.Path(), default=None, help="Also write expectation cards.")
@click.option("--forecasts", "forecasts_path", type=click.Path(), default=None, help="Also write synthetic forecasts.")
@click.option("--horizon", type=click.IntRange(min=1), default=5, show_default=True)
def synth(template, plan, n_snippets, frames, seed, jitter, overlap_every, bicycle_every, id_prefix, out, cards_path, forecasts_path, horizon):
    """Generate a synthetic pool with known expected measure values."""
    from . import baselines, synthgen

    spec = synthgen.default_spec(
        template,
        plan,
        seed=seed,
        n_snippets=n_snippets,
        num_frames=frames,
        jitter=jitter,
        overlap_every=overlap_every,
        bicycle_every=bicycle_every,
        id_prefix=id_prefix,
    )
    pool, cards = synthgen.generate_pool(spec, with_cards=bool(cards_path))
    save_pool(pool, out)
    # a later output that fails takes the ones written before it along
    written = [out, sidecar_path(out, pool.map_name)]
    try:
        if cards_path:
            obj = {
                "kind": "expectation_cards",
                "cards": [c.to_obj() for c in cards.values() if c is not None],
            }
            write_json(cards_path, obj)
            written.append(cards_path)
        if forecasts_path:
            forecasts = synthgen.synth_forecasts(pool, horizon)
            baselines.write_forecasts(forecasts_path, forecasts, horizon)
    except BaseException:
        for path in written:
            remove_output(path)
        raise
    click.echo(f"wrote {len(pool.snippets)} snippet(s) to {out}")


@cli.command()
@click.argument("pool_path", type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Feature directory.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=None, help="Worker processes; defaults to CURATOR_JOBS or 1.")
def score(pool_path, out_dir, config_path, jobs):
    """Compute snippet and frame features for every snippet in a pool."""
    cfg = selection.load_config(config_path) if config_path else selection.CurationConfig()
    pool = load_pool(pool_path)
    bundle = features.score_pool(pool, cfg, _resolve_jobs(jobs))
    provenance = features.pool_provenance(pool, selection.scoring_fields(cfg))
    features.write_features(out_dir, bundle, provenance)
    n_valid = int(np.count_nonzero(bundle.valid))
    click.echo(f"scored {len(bundle.ids)} snippet(s) ({n_valid} rankable) into {out_dir}")


def _stored_features(pool_path, cfg, features_dir):
    """(overlap records, bundle) from a store whose provenance.json
    fingerprints this pool, its map and the scoring fields of `cfg`."""
    records, snippet_length = features.read_provenance(
        features_dir, pool_path, selection.scoring_fields(cfg)
    )
    bundle = features.read_features(features_dir)
    if bundle.ids != [s.snippet_id for s in records]:
        raise selection.ConfigError(
            f"feature directory {features_dir} does not cover the pool snippet ids"
        )
    for sid in bundle.ids:
        if len(bundle.frame_mats[sid]) != snippet_length:
            raise PoolFormatError(
                f"feature file {os.path.join(features_dir, 'frame_features.jsonl')}: snippet "
                f"{sid!r} has {len(bundle.frame_mats[sid])} frame rows, the pool has "
                f"{snippet_length} frames per snippet"
            )
    return records, bundle


@cli.command(name="curate")
@click.argument("pool_path", type=click.Path())
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--features", "features_dir", type=click.Path(), default=None, help="Reuse a feature directory written by score.")
@click.option("--jobs", type=click.IntRange(min=1), default=None)
def curate_cmd(pool_path, config_path, out_path, features_dir, jobs):
    """Select challenging snippets per task, then grow a diverse remainder."""
    cfg = selection.load_config(config_path)
    if features_dir is None:
        pool = load_pool(pool_path)
        records, bundle = pool.snippets, features.score_pool(pool, cfg, _resolve_jobs(jobs))
    else:
        records, bundle = _stored_features(pool_path, cfg, features_dir)
    result = selection.curate(records, bundle, cfg)
    write_json(out_path, selection.result_to_obj(result))
    total = sum(len(t["snippet_ids"]) for t in result.tasks) + len(result.diverse["snippet_ids"])
    click.echo(f"selected {total} snippet(s) into {out_path}")
    for warning in result.warnings:
        click.echo(f"warning: {warning}", err=True)


@cli.command()
@click.argument("pool_path", type=click.Path())
@click.option("--method", type=click.Choice(["random", "entropy"]), required=True)
@click.option("-k", "--budget", "k", type=click.IntRange(min=0), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--forecasts", "forecasts_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
def baseline(pool_path, method, k, seed, forecasts_path, out_path):
    """Pick a labeling set by seeded randomness or forecast entropy."""
    from . import baselines

    if method == "entropy" and not forecasts_path:
        raise click.UsageError("--forecasts is required for the entropy method")
    pool = load_pool(pool_path)
    ids = sorted(s.snippet_id for s in pool.snippets)
    adjacency = selection.overlap_adjacency(pool.snippets)
    if method == "random":
        picked, audit = baselines.random_select(ids, adjacency, k, seed)
    else:
        forecasts = baselines.load_forecasts(forecasts_path)
        picked, audit = baselines.al_select(ids, forecasts, adjacency, k)
    result = baselines.baseline_result(method, k, picked, audit, seed)
    write_json(out_path, selection.result_to_obj(result))
    click.echo(f"selected {len(picked)} snippet(s) into {out_path}")
    for warning in result.warnings:
        click.echo(f"warning: {warning}", err=True)


def _label_stats(scored, frames):
    """{label: {motion: in-gate observations per frame}} over the label mix
    of the `scored` batches, whose snippets hold `frames` frames, with a
    (label, motion) key for every track of that first label and motion."""
    mix = np.zeros((2, len(DETECTION_CLASSES), 2), dtype=int)
    for batch in scored:
        mix += batch.label_mix.sum(axis=0)
    tracks, seen = mix.tolist()
    return {
        label: {
            motion: n / frames if frames else 0.0
            for motion, k, n in zip(("static", "dynamic"), tracks[c], seen[c]) if k
        }
        for c, label in enumerate(DETECTION_CLASSES) if any(tracks[c])
    }


def _write_csv(path, rows) -> None:
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue())


def _histogram_rows(names, matrix):
    yield ["feature", "bin", "lo", "hi", "count"]
    for i, name in enumerate(names):
        col = matrix[:, i] if len(matrix) else np.zeros(0)
        if len(col) == 0:
            continue
        lo, hi = float(np.min(col)), float(np.max(col))
        # np.histogram's own edges; it refuses ones that are not increasing,
        # as when lo and hi are a few ulps apart, so one bin covers them
        edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
        if not np.all(edges[:-1] < edges[1:]):
            yield [name, 0, repr(lo), repr(hi), len(col)]
            continue
        counts, edges = np.histogram(col, bins=HISTOGRAM_BINS, range=(lo, hi))
        for b, c in enumerate(counts):
            yield [name, b, repr(float(edges[b])), repr(float(edges[b + 1])), int(c)]


@cli.command()
@click.argument("pool_path", type=click.Path())
@click.argument("result_path", type=click.Path())
@click.option("--out-dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
def report(pool_path, result_path, out_dir, config_path):
    """Summarize a selection: features, label mix, and histograms."""
    cfg = selection.load_config(config_path) if config_path else selection.CurationConfig()
    pool = load_pool(pool_path)
    obj = read_json(result_path, PoolFormatError, "result")
    problems = selection.validate_result_obj(obj)
    if problems:
        raise PoolFormatError(f"result {result_path}: " + "; ".join(problems))
    chosen = set(obj["selected"])
    by_id = {s.snippet_id: s for s in pool.snippets}
    missing = sorted(chosen - set(by_id))
    if missing:
        raise PoolFormatError(f"result references snippets not in the pool: {', '.join(missing)}")
    snippets = [by_id[sid] for sid in sorted(chosen)]

    index = MapIndex(pool.scene_map)
    scored = list(features.batch_arrays(snippets, index, cfg))
    matrix = np.concatenate([batch.values for batch in scored] or [np.zeros((0, features.SNIPPET_DIM))])

    names = [name for name, _ in features.SNIPPET_FEATURES]
    units = [unit for _, unit in features.SNIPPET_FEATURES]
    summary = {
        "kind": "curation_report",
        "method": obj["method"],
        "selected": sorted(chosen),
        "label_stats": _label_stats(scored, sum(s.num_frames for s in snippets)),
        "features": [
            {
                "name": names[i],
                "unit": units[i],
                "mean": float(np.mean(matrix[:, i])) if len(matrix) else 0.0,
                "min": float(np.min(matrix[:, i])) if len(matrix) else 0.0,
                "max": float(np.max(matrix[:, i])) if len(matrix) else 0.0,
            }
            for i in range(features.SNIPPET_DIM)
        ],
    }
    write_json(os.path.join(out_dir, "summary.json"), summary)

    feature_rows = [[s.snippet_id] + [repr(float(v)) for v in row] for s, row in zip(snippets, matrix)]
    _write_csv(os.path.join(out_dir, "features.csv"), [["snippet_id"] + names] + feature_rows)
    _write_csv(os.path.join(out_dir, "histograms.csv"), _histogram_rows(names, matrix))
    click.echo(f"report for {len(snippets)} snippet(s) written to {out_dir}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except DOMAIN_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        if isinstance(exc, PoolValidationError):
            for finding in exc.findings:
                click.echo(f"  {finding.snippet_id or '-'}: {finding.rule}: {finding.detail}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
