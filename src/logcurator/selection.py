"""Two-phase labeling-set selection: challenging picks, then diverse picks.

Phase one round-robins over the configured tasks in order, each task
greedily taking the feasible snippet with the highest weighted score. Phase
two grows the set farthest-point style, maximizing each candidate's minimum
directed frame-set dissimilarity to everything already selected. Feasible
always means: rankable, not selected, and not overlapping (same log, shared
frames) anything selected. Every argmax breaks ties by ascending snippet_id.
"""

import heapq
import math
import numbers
from typing import NamedTuple

import numpy as np

from .features import SNIPPET_DIM, SNIPPET_FEATURE_NAMES, FeatureBundle
from .geometry import CURVE_VALUES
from .scene import _string, read_json, snippets_overlap
from .sdv import MAP_MATCH_GATE, MAP_MATCH_MIN_FRAC
from .traffic import STATIC_SPEED

NORMALIZATION_MODES = ("zscore", "none")
DISSIMILARITY_MODES = ("directed", "symmetric")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent curation configs."""


class TaskConfig(NamedTuple):
    name: str
    weights: np.ndarray  # (SNIPPET_DIM,)
    budget: int


class CurationConfig(NamedTuple):
    tasks: tuple = ()
    k_div: int = 0
    seed: int = 0
    roi_radius: float = 75.0
    near_dist: float = 10.0
    horizon: float = 5.0
    resample_points: int = 100
    static_speed: float = STATIC_SPEED
    map_match_gate: float = MAP_MATCH_GATE
    map_match_min_frac: float = MAP_MATCH_MIN_FRAC
    lane_change_min_frames: int = 10
    ego_width: float = 2.0
    lane_width_fallback: float = 3.6
    nudge_object_dist: float = 5.0
    nudge_min_bound_frames: int = 10
    normalization: str = "zscore"
    dissimilarity: str = "directed"


# the config file schema: every CurationConfig field, typed by its annotation
CONFIG_FIELDS = CurationConfig.__annotations__
# the fields only curation reads; every other field shapes the feature store,
# so a new field counts as scoring-relevant until it is listed here
CURATE_ONLY_FIELDS = ("tasks", "k_div", "seed", "dissimilarity")
NON_NEGATIVE_FIELDS = (
    "k_div",
    "seed",
    "near_dist",
    "horizon",
    "static_speed",
    "ego_width",
    "nudge_object_dist",
    "lane_change_min_frames",
    "nudge_min_bound_frames",
)
POSITIVE_FIELDS = ("roi_radius", "map_match_gate", "lane_width_fallback")


def _finite(what: str, value) -> float:
    """`value` as a finite float; a bool, a non-number, an infinity, NaN or
    an integer too large for a float raises ConfigError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out


def resolve_weights(spec) -> np.ndarray:
    """Accept either a full-length list or a {feature_name: weight} map."""
    if not isinstance(spec, dict):
        if not isinstance(spec, (list, tuple, np.ndarray)) or len(spec) != SNIPPET_DIM:
            raise ConfigError(
                f"weights must be an object or have {SNIPPET_DIM} entries, got {spec!r}"
            )
        spec = dict(zip(SNIPPET_FEATURE_NAMES, spec))
    w = np.zeros(SNIPPET_DIM)
    for name, value in spec.items():
        if name not in SNIPPET_FEATURE_NAMES:
            raise ConfigError(f"unknown feature name in weights: {name!r}")
        w[SNIPPET_FEATURE_NAMES.index(name)] = _finite(f"weight of feature {name!r}", value)
    return w


def _scalar(key: str, value, kind: type):
    """Check one scalar config value against its CurationConfig field type."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"config field {key!r} must be a string, got {value!r}")
        return value
    if kind is not int:
        return _finite(f"config field {key!r}", value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config field {key!r} must be an integer, got {value!r}")
    return int(value)


def config_from_obj(obj) -> CurationConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(obj) - CONFIG_FIELDS.keys())
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(map(repr, unknown))}")
    task_objs = obj.get("tasks", [])
    if not isinstance(task_objs, list) or not all(isinstance(t, dict) for t in task_objs):
        raise ConfigError(f"config field 'tasks' must be a list of objects, got {task_objs!r}")
    tasks = []
    names = set()
    for t in task_objs:
        try:
            name = _string(t["name"], "task name", error=ConfigError)
            budget = t["budget"]
            spec = t["weights"]
        except KeyError as exc:
            raise ConfigError(f"task missing field {exc}") from exc
        try:
            weights = resolve_weights(spec)
        except ConfigError as exc:
            raise ConfigError(f"task {name!r}: {exc}") from exc
        if name in names:
            raise ConfigError(f"duplicate task name {name!r}")
        names.add(name)
        try:
            budget = _scalar("budget", budget, int)
            if budget < 0:
                raise ConfigError(budget)
        except ConfigError as exc:
            raise ConfigError(f"task {name!r} budget must be a non-negative integer") from exc
        tasks.append(TaskConfig(name, weights, budget))
    updates = {
        key: _scalar(key, value, CONFIG_FIELDS[key]) for key, value in obj.items() if key != "tasks"
    }
    cfg = CurationConfig(tuple(tasks), **updates)
    for key in NON_NEGATIVE_FIELDS:
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)!r}")
    for key in POSITIVE_FIELDS:
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key} must be positive, got {getattr(cfg, key)!r}")
    if not 0.0 <= cfg.map_match_min_frac <= 1.0:
        raise ConfigError(f"map_match_min_frac must be in [0, 1], got {cfg.map_match_min_frac!r}")
    if not 3 <= cfg.resample_points <= CURVE_VALUES:  # one path's stations fit one curve block
        raise ConfigError(f"resample_points must be >= 3 and <= {CURVE_VALUES}")
    if cfg.normalization not in NORMALIZATION_MODES:
        raise ConfigError(f"normalization must be one of {NORMALIZATION_MODES}")
    if cfg.dissimilarity not in DISSIMILARITY_MODES:
        raise ConfigError(f"dissimilarity must be one of {DISSIMILARITY_MODES}")
    return cfg


def load_config(path: str) -> CurationConfig:
    return config_from_obj(read_json(path, ConfigError, "config"))


def scoring_fields(cfg: CurationConfig) -> dict:
    """The config fields a feature store was scored under, each as its
    annotated type: what `score` fingerprints and `curate --features` checks."""
    return {
        name: kind(getattr(cfg, name))
        for name, kind in CONFIG_FIELDS.items()
        if name not in CURATE_ONLY_FIELDS
    }


def _directed_distance(a: np.ndarray, b: np.ndarray) -> float:
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    sq = a2[:, None] + b2[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return float(np.sqrt(np.max(np.min(sq, axis=1))))


def dissimilarity(a: np.ndarray, b: np.ndarray, directed: bool = True) -> float:
    """Directed frame-set dissimilarity: the worst-covered frame of `a`.

    max over frames of `a` of the distance to the closest frame of `b`; zero
    when every frame of `a` is matched exactly. Not symmetric: a superset is
    fully covered by its subset's frames only in one direction. Bitwise-equal
    inputs short-circuit to exactly 0.0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"frame dims differ: {a.shape[1]} vs {b.shape[1]}")
    if len(a) == 0 or len(b) == 0:
        raise ValueError("dissimilarity needs nonempty frame sets")
    if a.shape == b.shape and np.array_equal(a, b):
        return 0.0
    d = _directed_distance(a, b)
    if directed:
        return d
    return max(d, _directed_distance(b, a))


class AuditEntry(NamedTuple):
    phase: str  # "challenging" | "diverse" | "baseline"
    iteration: int
    task: str | None
    snippet_id: str
    value: float | None  # task score, min-distance, or baseline figure
    eliminated: tuple  # ids newly infeasible due to overlap with this pick
    seed: bool = False


class CurationResult(NamedTuple):
    method: str
    seed: int
    tasks: list  # [{"name", "budget", "snippet_ids"}]
    diverse: dict  # {"budget", "snippet_ids"}
    audit: list  # [AuditEntry]
    warnings: list


def result_to_obj(res: CurationResult):
    selected = [sid for t in res.tasks for sid in t["snippet_ids"]]
    selected += list(res.diverse["snippet_ids"])
    return {
        "kind": "curation_result",
        "schema_version": 1,
        "method": res.method,
        "seed": res.seed,
        "tasks": [
            {"name": t["name"], "budget": t["budget"], "snippet_ids": list(t["snippet_ids"])}
            for t in res.tasks
        ],
        "diverse": {
            "budget": res.diverse["budget"],
            "snippet_ids": list(res.diverse["snippet_ids"]),
        },
        "selected": selected,
        "audit": [
            {
                "phase": e.phase,
                "iteration": e.iteration,
                "task": e.task,
                "snippet_id": e.snippet_id,
                "value": None if e.value is None else float(e.value),
                "eliminated": list(e.eliminated),
                "seed": e.seed,
            }
            for e in res.audit
        ],
        "warnings": list(res.warnings),
    }


def validate_result_obj(obj) -> list:
    """Schema findings for a result object; empty when well-formed."""
    problems = []
    if not isinstance(obj, dict) or obj.get("kind") != "curation_result":
        return ["not a curation_result object"]
    for key in ("schema_version", "method", "seed", "tasks", "diverse", "selected", "audit", "warnings"):
        if key not in obj:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    tasks, diverse, selected, audit = (obj[k] for k in ("tasks", "diverse", "selected", "audit"))
    if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
        problems.append("'tasks' must be an array of objects")
    if not isinstance(audit, list) or not all(isinstance(e, dict) for e in audit):
        problems.append("'audit' must be an array of objects")
    if not isinstance(diverse, dict):
        problems.append("'diverse' must be an object")
    if not isinstance(selected, list) or not all(isinstance(sid, str) for sid in selected):
        problems.append("'selected' must be an array of strings")
    if problems:
        return problems
    for t in tasks:
        for key in ("name", "budget", "snippet_ids"):
            if key not in t:
                problems.append(f"task missing {key!r}")
    for key in ("budget", "snippet_ids"):
        if key not in diverse:
            problems.append(f"diverse missing {key!r}")
    seen = set()
    for sid in selected:
        if sid in seen:
            problems.append(f"duplicate selected id {sid!r}")
        seen.add(sid)
    for e in audit:
        for key in ("phase", "iteration", "task", "snippet_id", "value", "eliminated", "seed"):
            if key not in e:
                problems.append(f"audit entry missing {key!r}")
    return problems


def overlap_adjacency(snippets) -> dict:
    """id -> set of other ids sharing frames of the same log.

    A sweep over each log's snippets in order of first frame: a snippet can
    only overlap the ones after it that start at or before its last frame,
    and each of those pairs is confirmed by `snippets_overlap`."""
    adj = {s.snippet_id: set() for s in snippets}
    by_log = {}
    for s in snippets:
        by_log.setdefault(s.log_id, []).append(s)
    for group in by_log.values():
        group.sort(key=lambda s: s.frame_range[0])
        for i, a in enumerate(group):
            for j in range(i + 1, len(group)):
                b = group[j]
                if b.frame_range[0] > a.frame_range[1]:
                    break
                if snippets_overlap(a, b):
                    adj[a.snippet_id].add(b.snippet_id)
                    adj[b.snippet_id].add(a.snippet_id)
    return adj


def take_pick(pick, alive: set, adjacency) -> tuple:
    """The one non-overlap rule: discard `pick` from `alive`, then remove
    and return (sorted) the still-alive snippets that overlap it."""
    alive.discard(pick)
    eliminated = tuple(sorted(alive & adjacency.get(pick, set())))
    alive.difference_update(eliminated)
    return eliminated


def walk(orders: dict, budgets: dict, alive: set, adjacency) -> list:
    """The one pick walk of the challenging phase and both baselines. In
    each round, every named order with budget left takes its first snippet
    still in `alive`, and `take_pick` drops it and all it overlaps. Each
    order is an iterator over every snippet in `alive`, so a round resumes
    where the last one stopped. The walk stops when no budget or no alive
    snippet is left; it returns (round, name, pick, eliminated) per pick."""
    left = dict(budgets)
    steps = []
    rnd = 0
    while alive and any(n > 0 for n in left.values()):
        for name, order in orders.items():
            if left[name] > 0 and alive:
                pick = next(sid for sid in order if sid in alive)
                steps.append((rnd, name, pick, take_pick(pick, alive, adjacency)))
                left[name] -= 1
        rnd += 1
    return steps


def select_challenging(ids, matrix, valid, tasks, adjacency):
    """Greedy round-robin task picks; returns (per-task id lists, audit).

    A task's scores do not change between rounds, so each task with budget
    scores the rankable snippets once, ranks them by (-score, id), and
    `walk` takes each round's first one still alive. A score that is not
    finite raises ConfigError naming the task and the first such snippet
    in `ids` order."""
    rankable = [(sid, row) for sid, row, ok in zip(ids, matrix, valid) if ok]
    alive = {sid for sid, _ in rankable}
    scores, orders, budgets = {}, {}, {}
    for t in tasks:
        if t.budget > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                score = {sid: float(row @ t.weights) for sid, row in rankable}
            bad = [sid for sid, value in score.items() if not math.isfinite(value)]
            if bad:
                raise ConfigError(
                    f"task {t.name!r}: its weights give snippet {bad[0]} a score that is not finite"
                )
            scores[t.name], orders[t.name] = score, iter(sorted(alive, key=lambda sid: (-score[sid], sid)))
            budgets[t.name] = t.budget
    picked = {t.name: [] for t in tasks}
    audit = []
    for rnd, name, pick, eliminated in walk(orders, budgets, alive, adjacency):
        picked[name].append(pick)
        audit.append(AuditEntry("challenging", rnd, name, pick, scores[name][pick], eliminated))
    return picked, audit


# unit roundoff of float64
_ROUNDOFF = 2.0**-53


def _frame_set_shape(mat: np.ndarray) -> tuple:
    """(center, radius, largest squared frame norm) of one frame set: the
    frame mean, and the largest distance from a frame to it."""
    center = mat.mean(axis=0)
    offsets = mat - center
    radius = math.sqrt(float(np.max(np.einsum("ij,ij->i", offsets, offsets))))
    return center, radius, float(np.max(np.einsum("ij,ij->i", mat, mat)))


def _reach(mat, shape, centers, radii, sq_norms) -> list:
    """Per anchor p, a squared distance r_p such that a partial min m of
    candidate `mat` with m * m < r_p cannot be lowered by d(mat, p).

    Every frame x of `mat` lies at least |x - c_p| - rad_p from every frame
    of p (c_p its center, rad_p its radius), and the mean over x of
    |x - c_p| is at least |c - c_p|, so lb = |c - c_p| - rad_p is at most
    d(mat, p) in either mode. Rounding moves the computed d^2 by up to
    (2D + 4) u (A + B), from the a^2 + b^2 - 2ab expansion in
    `_directed_distance`, and lb^2 by up to (4 (T + 1) sqrt(D) + 12 D + 38)
    u (A + B), from averaging the T frames of `mat`, the norms and the test
    itself: u is the unit roundoff, D the frame dimension, A and B the
    largest squared frame norms. r_p = lb^2 - rate (A + B) takes off more
    than both, so m * m < r_p means the computed d is at least m and the
    min stays the same float. A non-finite input gives no r_p that holds.
    """
    center, _, sq_norm = shape
    offsets = centers - center
    lb = np.sqrt(np.einsum("ij,ij->i", offsets, offsets)) - radii
    frames, dim = mat.shape
    rate = 8.0 * ((frames + 1) * math.sqrt(dim) + 2 * dim + 6) * _ROUNDOFF
    return np.where(lb > 0.0, lb * lb - rate * (sq_norm + sq_norms), -math.inf).tolist()


def select_diverse(ids, frame_mats, valid, selected, k_div, adjacency, directed, seed_norms):
    """Farthest-point growth of the diverse set; returns (ids, audit).

    Exact lazy greedy k-center. A candidate's min-distance to the anchors
    (everything selected) only falls as anchors are added, so each keeps an
    upper bound: its min over the first `applied` anchors. A heap pops
    candidates by (-bound, id). A popped candidate is refreshed against the
    anchors it has not seen, in order, and pushed back; the refresh may stop
    once its partial min is below the best value refreshed in full this
    round, since it then cannot win. A candidate that reaches the top fully
    refreshed is the pick: its bound is its exact min, every other bound is
    at most it, and an equal bound has a larger id. Before each exact pair,
    `_reach` skips an anchor that provably cannot lower the min, so picks and
    values equal those of a full recomputation bit for bit.
    """
    alive = {sid for sid, ok in zip(ids, valid) if ok} - set(selected)
    for sid in selected:
        alive -= adjacency.get(sid, set())
    anchor = list(selected)
    picked = []
    audit = []
    if k_div > 0 and alive and not anchor:
        cand = sorted(alive)
        norms = np.array([seed_norms[sid] for sid in cand])
        best = int(np.argmax(norms))
        pick = cand[best]
        eliminated = take_pick(pick, alive, adjacency)
        anchor.append(pick)
        picked.append(pick)
        value = float(norms[best])
        audit.append(AuditEntry("diverse", 0, None, pick, value, eliminated, seed=True))
    if len(picked) >= k_div or not alive:
        return picked, audit

    shape = {sid: _frame_set_shape(frame_mats[sid]) for sid in alive.union(anchor)}
    cap = len(anchor) + min(k_div - len(picked), len(alive))
    centers = np.empty((cap, frame_mats[anchor[0]].shape[1]))
    radii = np.empty(cap)
    sq_norms = np.empty(cap)
    for j, sid in enumerate(anchor):
        centers[j], radii[j], sq_norms[j] = shape[sid]
    bound = dict.fromkeys(alive, math.inf)
    applied = dict.fromkeys(alive, 0)
    heap = [(-math.inf, sid) for sid in alive]
    heapq.heapify(heap)
    for i in range(len(picked), k_div):
        if not alive:
            break
        k = len(anchor)
        best = -math.inf  # the largest exact min found this round
        while True:
            _, sid = heapq.heappop(heap)
            if sid not in alive:
                continue
            n = applied[sid]
            if n == k:
                break
            m = bound[sid]
            mat = frame_mats[sid]
            for r in _reach(mat, shape[sid], centers[n:k], radii[n:k], sq_norms[n:k]):
                if not m * m < r:
                    d = dissimilarity(mat, frame_mats[anchor[n]], directed)
                    if d < m:
                        m = d
                n += 1
                if m < best:
                    break
            bound[sid], applied[sid] = m, n
            if n == k and m > best:
                best = m
            heapq.heappush(heap, (-m, sid))
        eliminated = take_pick(sid, alive, adjacency)
        centers[k], radii[k], sq_norms[k] = shape[sid]
        anchor.append(sid)
        picked.append(sid)
        audit.append(AuditEntry("diverse", i, None, sid, bound[sid], eliminated))
    return picked, audit


def curate(records, bundle: FeatureBundle, config: CurationConfig) -> CurationResult:
    """Run both phases over a scored pool; `records` are its snippets, of
    which only the ids, log ids and frame ranges are read (overlap)."""
    ids = bundle.ids
    adjacency = overlap_adjacency(records)
    warnings = []
    invalid = sorted(sid for sid, ok in zip(ids, bundle.valid) if not ok)
    if invalid:
        warnings.append(f"excluded {len(invalid)} unrankable snippet(s): {', '.join(invalid)}")
    total_budget = sum(t.budget for t in config.tasks) + config.k_div
    if total_budget > len(ids):
        warnings.append(
            f"requested {total_budget} snippet(s) from a pool of {len(ids)}; selection may fall short"
        )
    picked, audit = select_challenging(ids, bundle.matrix, bundle.valid, config.tasks, adjacency)
    selected = [sid for t in config.tasks for sid in picked[t.name]]
    normalized = {sid: bundle.frame_stats.apply(bundle.frame_mats[sid]) for sid in ids}
    seed_norms = {
        sid: float(np.linalg.norm(bundle.snippet_stats.apply(bundle.matrix[i])))
        for i, sid in enumerate(ids)
    }
    directed = config.dissimilarity == "directed"
    div_ids, div_audit = select_diverse(
        ids, normalized, bundle.valid, selected, config.k_div, adjacency, directed, seed_norms
    )
    for t in config.tasks:
        if len(picked[t.name]) < t.budget:
            warnings.append(f"task {t.name}: selected {len(picked[t.name])} of {t.budget}")
    if len(div_ids) < config.k_div:
        warnings.append(f"diverse phase: selected {len(div_ids)} of {config.k_div}")
    return CurationResult(
        method="curate",
        seed=config.seed,
        tasks=[
            {"name": t.name, "budget": t.budget, "snippet_ids": picked[t.name]}
            for t in config.tasks
        ],
        diverse={"budget": config.k_div, "snippet_ids": div_ids},
        audit=audit + div_audit,
        warnings=warnings,
    )
