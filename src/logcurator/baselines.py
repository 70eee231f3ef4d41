"""Reference selection baselines: seeded random and forecast-entropy ranking.

The entropy ranker scores a snippet by summing, over every frame and every
(actor, timestep) forecast in it, the differential entropy of the predicted
2D Gaussian. Both baselines take their picks through `selection.walk`, the
non-overlap walk of the challenging phase, and emit the shared result
schema.
"""

from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .scene import ForecastError  # in scene, so that cli needs no baselines
from .scene import _column, _strings, read_header, runs, write_rows
from .selection import AuditEntry, CurationResult, walk

LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)
RECORD_FIELDS = ("snippet_id", "frame_index", "actor_id", "timestep", "mu", "cov")


class ForecastEntry(NamedTuple):
    """One forecast row, the value `entry_entropy` scores."""

    actor_id: str
    timestep: int
    mu: tuple  # (x, y)
    cov: tuple  # (sxx, sxy, syy)


class GaussianForecast(NamedTuple):
    """One snippet's forecasts as columns, one row per (frame, actor,
    timestep) entry. Rows ascend by frame index and keep their file order
    within a frame."""

    snippet_id: str
    horizon: int
    frame_index: np.ndarray  # (n,) int
    actor_id: tuple  # (n,) str
    timestep: np.ndarray  # (n,) int
    mu: np.ndarray  # (n, 2) x, y
    cov: np.ndarray  # (n, 3) sxx, sxy, syy


def _entropies(cov: np.ndarray, actor_id, timestep, where) -> np.ndarray:
    """Differential entropy, in nats, of the 2D Gaussian of each row of
    `cov`. The first row whose covariance is not positive definite raises
    ForecastError; when there is none, the first whose entropy overflows
    does. The message names the row's actor and step after `where(row)`."""

    def check(ok, problem):
        if not ok.all():
            i = int(np.argmin(ok))
            raise ForecastError(
                f"{where(i)}covariance for actor {actor_id[i]} step {timestep[i]} {problem}"
            )

    sxx, sxy, syy = cov.T
    with np.errstate(over="ignore", invalid="ignore"):
        det = sxx * syy - sxy * sxy
    check((sxx > 0.0) & (det > 0.0), "is not positive definite")
    entropy = LOG_2PI_E + 0.5 * np.log(det)
    check(np.isfinite(entropy), "has no finite entropy")
    return entropy


def entry_entropy(entry: ForecastEntry) -> float:
    """Differential entropy of one 2D Gaussian, in nats."""
    cov = np.array([entry.cov], dtype=float)
    return float(_entropies(cov, (entry.actor_id,), (entry.timestep,), lambda i: "")[0])


def snippet_entropy(forecast: GaussianForecast) -> float:
    """Total forecast entropy of one snippet: the entries of each frame
    added in row order, then the frames in ascending order."""
    frame_index = forecast.frame_index
    entropy = _entropies(
        forecast.cov,
        forecast.actor_id,
        forecast.timestep,
        lambda i: f"snippet {forecast.snippet_id} frame {frame_index[i]}: ",
    ).tolist()
    total = 0.0
    for a, b in runs(frame_index):
        total += sum(entropy[a:b])
    return total


def _checked(sids, actors, frame_index, timestep, values):
    """The columns of forecast records, checked: string snippet and actor
    ids, integral frame indices and timesteps, and finite mu and cov
    values, five per record."""
    _strings(sids, "snippet_id", ForecastError)
    _strings(actors, "actor_id", ForecastError)
    frame_index = _column(frame_index, "frame_index", dtype=int, error=ForecastError)
    timestep = _column(timestep, "timestep", dtype=int, error=ForecastError)
    values = _column(values, "mu and cov value", error=ForecastError)
    if not np.isfinite(values).all():
        raise ForecastError("every mu and cov value must be finite")
    return frame_index, timestep, values.reshape(-1, 5)


def _record_fault(obj) -> str:
    """Why `load_forecasts` cannot read `obj` as a forecast record."""
    if not isinstance(obj, dict) or obj.get("kind") != "forecast":
        return "expected a forecast record"
    missing = [key for key in RECORD_FIELDS if key not in obj]
    if missing:
        return f"malformed forecast record: missing field {missing[0]!r}"
    return "malformed forecast record: mu must be an array of 2 numbers and cov an array of 3"


def load_forecasts(path: str) -> dict:
    """Parse a forecast NDJSON file into {snippet_id: GaussianForecast}.

    Each record's fields go to flat columns as its line is read, so no
    parsed record outlives its line. The string and number rules are then
    checked over the columns at once, and a failure names the first record
    that breaks one."""
    _, _, (horizon,), rows = read_header(
        path, ForecastError, "forecast file", "forecast_header", ("horizon",)
    )
    fields = itemgetter("kind", *RECORD_FIELDS)
    lines, sids, actors, frames, steps, values = [], [], [], [], [], []
    add_line, add_sid, add_actor = lines.append, sids.append, actors.append
    add_frame, add_step = frames.append, steps.append
    for lineno, obj in rows:
        try:
            kind, sid, frame_index, actor_id, timestep, mu, cov = fields(obj)
        except (KeyError, TypeError):  # a missing field, or not an object
            kind = None
        if (
            kind != "forecast"
            or type(mu) is not list
            or type(cov) is not list
            or len(mu) != 2
            or len(cov) != 3
        ):
            raise ForecastError(f"forecast file {path} line {lineno}: {_record_fault(obj)}")
        add_line(lineno)
        add_sid(sid)
        add_actor(actor_id)
        add_frame(frame_index)
        add_step(timestep)
        values += mu
        values += cov
    try:
        frame_index, timestep, values = _checked(sids, actors, frames, steps, values)
    except ForecastError as exc:
        where, fault = f"forecast file {path}", exc
        for i, lineno in enumerate(lines):
            try:
                _checked(
                    sids[i : i + 1], actors[i : i + 1], frames[i : i + 1], steps[i : i + 1],
                    values[5 * i : 5 * i + 5],
                )
            except ForecastError as row_fault:
                where, fault = f"forecast file {path} line {lineno}", row_fault
                break
        raise ForecastError(f"{where}: malformed forecast record: {fault}") from exc
    # group by snippet in order of first appearance, then stable by frame
    codes = {sid: i for i, sid in enumerate(dict.fromkeys(sids))}
    code = np.fromiter(map(codes.__getitem__, sids), dtype=int, count=len(sids))
    order = np.lexsort((frame_index, code))
    frame_index, timestep, values = frame_index[order], timestep[order], values[order]
    actors = list(map(actors.__getitem__, order.tolist()))
    ends = np.cumsum(np.bincount(code, minlength=len(codes))).tolist()
    return {
        sid: GaussianForecast(
            sid,
            horizon,
            frame_index[a:b],
            tuple(actors[a:b]),
            timestep[a:b],
            values[a:b, :2],
            values[a:b, 2:],
        )
        for sid, a, b in zip(codes, [0, *ends], ends)
    }


def random_select(ids, adjacency, k: int, seed: int):
    """Seeded uniform walk over the pool, skipping overlaps, until k picks."""
    ordered = sorted(ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    order = [ordered[i] for i in perm]
    steps = walk({"rn": iter(order)}, {"rn": k}, set(order), adjacency)
    audit = [AuditEntry("baseline", i, tag, sid, None, elim) for i, tag, sid, elim in steps]
    return [e.snippet_id for e in audit], audit


def al_select(ids, forecasts: dict, adjacency, k: int):
    """Highest-entropy-first walk; every pool snippet needs a forecast."""
    ordered = sorted(ids)
    missing = [sid for sid in ordered if sid not in forecasts]
    if missing:
        raise ForecastError(f"no forecasts for snippet(s): {', '.join(missing[:8])}")
    scores = {sid: snippet_entropy(forecasts[sid]) for sid in ordered}
    order = sorted(ordered, key=lambda sid: (-scores[sid], sid))
    steps = walk({"al": iter(order)}, {"al": k}, set(order), adjacency)
    audit = [AuditEntry("baseline", i, tag, sid, scores[sid], elim) for i, tag, sid, elim in steps]
    return [e.snippet_id for e in audit], audit


def baseline_result(method: str, k: int, picked, audit, seed: int) -> CurationResult:
    warnings = []
    if len(picked) < k:
        warnings.append(f"baseline {method}: selected {len(picked)} of {k}")
    return CurationResult(
        method=method,
        seed=seed,
        tasks=[{"name": method, "budget": k, "snippet_ids": list(picked)}],
        diverse={"budget": 0, "snippet_ids": []},
        audit=list(audit),
        warnings=warnings,
    )


def write_forecasts(path: str, forecasts: dict, horizon: int) -> None:
    """Serialize forecasts in canonical NDJSON (deterministic record order)."""
    rows = (
        {
            "kind": "forecast",
            "snippet_id": sid,
            "frame_index": frame_index,
            "actor_id": actor_id,
            "timestep": timestep,
            "mu": mu,
            "cov": cov,
        }
        for sid, fc in sorted(forecasts.items())
        for frame_index, actor_id, timestep, mu, cov in zip(
            fc.frame_index.tolist(), fc.actor_id, fc.timestep.tolist(), fc.mu.tolist(), fc.cov.tolist()
        )
    )
    write_rows(path, "forecast_header", {"horizon": horizon}, rows)
