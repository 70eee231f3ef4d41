"""Reference selection baselines: seeded random and forecast-entropy ranking.

The entropy ranker scores a snippet by summing, over every frame and every
(actor, timestep) forecast in it, the differential entropy of the predicted
2D Gaussian. Both baselines honor the same non-overlap constraint as the
curation phases and emit the shared result schema.
"""

from dataclasses import dataclass

import numpy as np

from .scene import canonical_dumps, read_json, write_atomic
from .selection import AuditEntry, CurationResult, take_pick

LOG_2PI_E = float(np.log(2.0 * np.pi) + 1.0)


class ForecastError(ValueError):
    """Raised for malformed forecast files or non-positive-definite covariances."""


@dataclass(frozen=True, slots=True)
class ForecastEntry:
    actor_id: str
    timestep: int
    mu: tuple  # (x, y)
    cov: tuple  # (sxx, sxy, syy)


@dataclass(frozen=True, slots=True)
class GaussianForecast:
    snippet_id: str
    horizon: int
    frames: dict  # frame_index -> tuple of ForecastEntry


def entry_entropy(entry: ForecastEntry) -> float:
    """Differential entropy of one 2D Gaussian, in nats."""
    sxx, sxy, syy = entry.cov
    det = sxx * syy - sxy * sxy
    if not (sxx > 0.0 and det > 0.0):
        raise ForecastError(
            f"covariance for actor {entry.actor_id} step {entry.timestep} is not positive definite"
        )
    return LOG_2PI_E + 0.5 * float(np.log(det))


def frame_entropy(entries) -> float:
    """Total forecast entropy of one frame (sum over actors and timesteps)."""
    return float(sum(entry_entropy(e) for e in entries))


def snippet_entropy(forecast: GaussianForecast) -> float:
    total = 0.0
    for frame_index in sorted(forecast.frames):
        try:
            total += frame_entropy(forecast.frames[frame_index])
        except ForecastError as exc:
            raise ForecastError(
                f"snippet {forecast.snippet_id} frame {frame_index}: {exc}"
            ) from exc
    return total


def load_forecasts(path: str) -> dict:
    """Parse a forecast NDJSON file into {snippet_id: GaussianForecast}."""
    header, rows = read_json(path, ForecastError, "forecast file", lines=True)
    if not isinstance(header, dict) or header.get("kind") != "forecast_header":
        raise ForecastError("first record must be the forecast header")
    try:
        horizon = int(header.get("horizon", 0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ForecastError(f"forecast file {path} line 1: malformed horizon: {exc}") from exc
    frames_by_snippet: dict[str, dict] = {}
    for lineno, obj in rows:
        if not isinstance(obj, dict) or obj.get("kind") != "forecast":
            raise ForecastError(f"forecast file {path} line {lineno}: expected a forecast record")
        try:
            sid = str(obj["snippet_id"])
            frame_index = int(obj["frame_index"])
            entry = ForecastEntry(
                actor_id=str(obj["actor_id"]),
                timestep=int(obj["timestep"]),
                mu=(float(obj["mu"][0]), float(obj["mu"][1])),
                cov=(float(obj["cov"][0]), float(obj["cov"][1]), float(obj["cov"][2])),
            )
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise ForecastError(
                f"forecast file {path} line {lineno}: malformed forecast record: {exc}"
            ) from exc
        frames_by_snippet.setdefault(sid, {}).setdefault(frame_index, []).append(entry)
    return {
        sid: GaussianForecast(
            sid, horizon, {fi: tuple(entries) for fi, entries in frames.items()}
        )
        for sid, frames in frames_by_snippet.items()
    }


def _walk(order, adjacency, k, audit_maker):
    picked = []
    audit = []
    alive = set(order)
    for sid in order:
        if len(picked) >= k:
            break
        if sid not in alive:
            continue
        eliminated = take_pick(sid, alive, adjacency)
        audit.append(audit_maker(len(picked), sid, eliminated))
        picked.append(sid)
    return picked, audit


def random_select(ids, adjacency, k: int, seed: int):
    """Seeded uniform walk over the pool, skipping overlaps, until k picks."""
    ordered = sorted(ids)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ordered))
    order = [ordered[i] for i in perm]
    return _walk(
        order,
        adjacency,
        k,
        lambda i, sid, elim: AuditEntry("baseline", i, "rn", sid, None, elim),
    )


def al_select(ids, forecasts: dict, adjacency, k: int):
    """Highest-entropy-first walk; every pool snippet needs a forecast."""
    ordered = sorted(ids)
    missing = [sid for sid in ordered if sid not in forecasts]
    if missing:
        raise ForecastError(f"no forecasts for snippet(s): {', '.join(missing[:8])}")
    scores = {sid: snippet_entropy(forecasts[sid]) for sid in ordered}
    order = sorted(ordered, key=lambda sid: (-scores[sid], sid))
    return _walk(
        order,
        adjacency,
        k,
        lambda i, sid, elim: AuditEntry("baseline", i, "al", sid, scores[sid], elim),
    )


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
    lines = [
        canonical_dumps({"kind": "forecast_header", "schema_version": 1, "horizon": horizon})
    ]
    for sid in sorted(forecasts):
        fc = forecasts[sid]
        for frame_index in sorted(fc.frames):
            for e in fc.frames[frame_index]:
                lines.append(
                    canonical_dumps(
                        {
                            "kind": "forecast",
                            "snippet_id": sid,
                            "frame_index": frame_index,
                            "actor_id": e.actor_id,
                            "timestep": e.timestep,
                            "mu": [e.mu[0], e.mu[1]],
                            "cov": [e.cov[0], e.cov[1], e.cov[2]],
                        }
                    )
                )
    write_atomic(path, "\n".join(lines) + "\n")
