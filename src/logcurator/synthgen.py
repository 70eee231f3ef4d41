"""Deterministic synthetic pools with closed-form expectation cards.

Every scenario is built from analytic primitives (a straight or arc corridor,
offset lanes, scripted actors), so the generator can state what each measure
must report without running any measure: expectation cards carry per-field
values with explicit tolerances derived from the construction. Geometric
margins that the cards rely on (clearance to the crossing strip, per-frame
distance bounds against the ROI radius) are asserted at build time; a spec
that violates one raises rather than emitting a pool with an unreliable card.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import GaussianForecast
from .scene import DETECTION_CLASSES, SceneMap, Snippet, SnippetPool, Lane, Intersection, TrafficControl
from .scene import PLANS, TEMPLATES, ScenarioError  # in scene, so that cli needs no synthgen

ROI_GUARD = 73.0  # generator-enforced per-frame actor distance bound
STRIP_MARGIN = 2.0  # required longitudinal clearance around the crossing strip

LANE_WIDTH = 3.6
BIKE_OFFSET = 5.0
NEIGHBOR_OFFSET = -LANE_WIDTH
PARKED_OFFSET = -5.5
PED_OFFSET = 8.0
CIRCLE_RADIUS = 5.0
CIRCLE_LATERAL = 13.0
NEAR_DIST = 10.0


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    template: str = "straight_road"
    plan: str = "cruise"
    seed: int = 0
    n_snippets: int = 1
    num_frames: int = 250
    dt: float = 0.1
    cruise_speed: float = 4.0
    ramp_top_speed: float = 8.0
    curve_radius: float = 150.0
    turn_radius: float = 20.0
    hill_amplitude: float = 2.0
    n_parked: int = 2
    n_movers: int = 2
    n_pedestrians: int = 1
    n_bicyclists: int = 0
    with_circle: bool = True
    crossing_road: bool = True
    crossing_actors: bool = True
    bicycle_every: int = 0  # every k-th snippet gets a bicyclist (0: use n_bicyclists)
    jitter: bool = False
    overlap_every: int = 0  # 2: consecutive snippet pairs share a log with offset windows
    id_prefix: str = "s"
    geo_origin: tuple = (37.0, -122.0)


def validate_spec(spec: ScenarioSpec) -> None:
    if spec.template not in TEMPLATES:
        raise ScenarioError(f"unknown template {spec.template!r}")
    if spec.plan not in PLANS:
        raise ScenarioError(f"unknown plan {spec.plan!r}")
    if spec.n_snippets < 1 or spec.num_frames < 2:
        raise ScenarioError("need at least 1 snippet and 2 frames")
    if spec.plan == "speed_ramp" and spec.num_frames < 3:
        raise ScenarioError("speed_ramp needs at least 3 frames")
    if spec.plan in ("lane_change", "nudge") and spec.num_frames < 60:
        raise ScenarioError(f"{spec.plan} needs at least 60 frames for clean event bounds")
    if spec.plan == "turn" and (spec.with_circle or spec.crossing_actors):
        raise ScenarioError(
            "turn corridors are too short for the circling actor or crossing traffic"
        )
    if spec.template == "four_way_intersection" and not spec.crossing_road:
        raise ScenarioError("the intersection template requires the crossing road")
    if spec.crossing_actors and not spec.crossing_road:
        raise ScenarioError("crossing actors require the crossing road")
    if spec.n_movers > 4:
        raise ScenarioError("at most 4 moving vehicles keep the distance bound")
    if spec.overlap_every not in (0, 2):
        raise ScenarioError("overlap_every must be 0 or 2")


def default_spec(template: str, plan: str, **overrides) -> ScenarioSpec:
    """A feasible spec for any template/plan pair (trims clashing props)."""
    base = ScenarioSpec(template=template, plan=plan)
    if plan == "turn":
        base = replace(base, with_circle=False, crossing_actors=False)
        if template != "four_way_intersection":
            base = replace(base, crossing_road=False)
    return replace(base, **overrides)


@dataclass(frozen=True, slots=True)
class OracleCard:
    """Expected measure values for one snippet: name -> (value, tolerance)."""

    snippet_id: str
    fields: dict

    def to_obj(self):
        return {
            "snippet_id": self.snippet_id,
            "fields": {k: {"value": v, "tol": t} for k, (v, t) in sorted(self.fields.items())},
        }


class _Corridor:
    """Reference line of the scenario: a straight line or a left-turning arc.

    Lateral offsets are exact: on an arc, a lane at offset d is the
    concentric arc of radius (radius - d), so offsets equal radial distances.
    """

    def __init__(self, radius: float | None):
        self.radius = radius

    def point(self, s):
        s = np.asarray(s, dtype=float)
        if self.radius is None:
            return np.stack([s, np.zeros_like(s)], axis=-1)
        r = self.radius
        return np.stack([r * np.sin(s / r), r * (1.0 - np.cos(s / r))], axis=-1)

    def normal(self, s):
        s = np.asarray(s, dtype=float)
        if self.radius is None:
            return np.stack([np.zeros_like(s), np.ones_like(s)], axis=-1)
        a = s / self.radius
        return np.stack([-np.sin(a), np.cos(a)], axis=-1)

    def offset_point(self, s, d):
        return self.point(s) + np.asarray(d, dtype=float)[..., None] * self.normal(s)

    def offset_polyline(self, s0: float, s1: float, d: float, n: int = 100):
        # arcs carry exactly n equal-arc stations: equal arcs give equal
        # chords, so an n-point arc-length resample lands on these vertices
        # and measures the circle instead of chord sag
        if self.radius is None:
            svals = np.array([s0, s1])
        else:
            svals = np.linspace(s0, s1, n)
        return self.offset_point(svals, np.full(len(svals), d))

    def lane_curve_value(self, d: float) -> float:
        """Analytic curve complexity of the offset lane (zero curvature rate)."""
        if self.radius is None:
            return 0.0
        return 1.0 / (self.radius - d)


def _ego_steps(spec: ScenarioSpec, t_log: int):
    n_steps = t_log - 1
    if spec.plan == "speed_ramp":
        v = spec.ramp_top_speed * np.arange(n_steps) / (n_steps - 1)
        return v * spec.dt
    if spec.plan == "turn":
        length = math.pi * spec.turn_radius / 2.0
        return np.full(n_steps, length / n_steps)
    return np.full(n_steps, spec.cruise_speed * spec.dt)


def _lateral_profile(spec: ScenarioSpec, t_log: int):
    lat = np.zeros(t_log)
    if spec.plan == "lane_change":
        # the shift must finish well before the crossing road at mid-route, or
        # the ego would map-match onto the road while between lanes
        i0 = max(1, int(0.2 * t_log))
        blend = max(3, min(30, t_log // 8))
        for j in range(t_log):
            if j < i0:
                continue
            frac = min(1.0, (j - i0 + 1) / blend)
            lat[j] = NEIGHBOR_OFFSET * frac
    elif spec.plan == "nudge":
        i0 = max(1, int(0.3 * t_log))
        up, hold = 8, 14
        peak = 1.2
        for j in range(up):
            if i0 + j < t_log:
                lat[i0 + j] = peak * (j + 1) / up
        for j in range(hold):
            if i0 + up + j < t_log:
                lat[i0 + up + j] = peak
        for j in range(up):
            if i0 + up + hold + j < t_log:
                lat[i0 + up + hold + j] = peak * (up - 1 - j) / up
    return lat


def _wrap(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def _pts(arr) -> tuple:
    return tuple((float(p[0]), float(p[1])) for p in np.asarray(arr, dtype=float))


def _pt(p) -> tuple:
    return (float(p[0]), float(p[1]))


@dataclass
class _Actor:
    track_id: str
    label: str
    positions: np.ndarray  # (T_log, 2)
    speed_field: np.ndarray  # (T_log,)
    size: tuple
    path_value: float | None  # analytic curve complexity, None: not eligible
    path_tol: float
    near: bool  # within NEAR_DIST of the ego path; settled numerically later
    strip_crossing: bool  # enters the crossing strip (vehicles only)
    reachable: bool  # can reach the strip within the horizon (vehicles only)


class _Build:
    """One realized log plus everything the card needs.

    Feasibility margins are enforced only for carded builds; jittered,
    overlapping or uncarded logs carry no expectations, so their geometry
    may drift.
    """

    def __init__(self, spec, rng, t_log, log_id, carded=True):
        self.spec = spec
        self.rng = rng
        self.t_log = t_log
        self.log_id = log_id
        self.carded = carded
        self.actors: list[_Actor] = []
        self.warn_margin = []

        plan = spec.plan
        radius = None
        if plan == "turn":
            radius = spec.turn_radius
        elif spec.template == "curved_road":
            radius = spec.curve_radius
        self.corridor = _Corridor(radius)

        steps = _ego_steps(spec, t_log)
        self.s = np.concatenate([[0.0], np.cumsum(steps)])
        self.length = float(self.s[-1])
        self.lateral = _lateral_profile(spec, t_log)
        self.ego = self.corridor.offset_point(self.s, self.lateral)
        diffs = np.diff(self.ego, axis=0)
        headings = np.arctan2(diffs[:, 1], diffs[:, 0])
        headings = np.concatenate([headings, headings[-1:]])
        # a zero first step (speed ramp) gives atan2(0, 0); copy the next one
        if np.all(diffs[0] == 0.0) and t_log > 2:
            headings[0] = headings[1]
        self.headings = _wrap(headings)
        self.times = np.arange(t_log) * spec.dt
        self.total_time = float(self.times[-1])

        self.anchor_s = 0.5 * self.length
        self.road_half = max(0.2 * self.length, 12.0)
        self.has_strip = spec.crossing_road
        self._build_map()
        self._build_actors()
        self._check_margins()

    # --- map ----------------------------------------------------------------

    def _build_map(self):
        spec = self.spec
        c = self.corridor
        lo, hi = -0.2 * self.length, 1.2 * self.length
        lanes = []
        turn_tag = "left" if spec.plan == "turn" else "straight"
        lanes.append(
            Lane(
                "main",
                _pts(c.offset_polyline(lo, hi, 0.0)),
                right_neighbor="right",
                turn=turn_tag,
                width=LANE_WIDTH,
            )
        )
        lanes.append(
            Lane(
                "right",
                _pts(c.offset_polyline(lo, hi, NEIGHBOR_OFFSET)),
                left_neighbor="main",
                width=LANE_WIDTH,
            )
        )
        self.lane_values = {
            "main": c.lane_curve_value(0.0),
            "right": c.lane_curve_value(NEIGHBOR_OFFSET),
        }
        intersections = []
        controls = []
        crosswalks = []
        heights = []

        anchor_pt = c.point(self.anchor_s)
        anchor_n = c.normal(self.anchor_s)
        anchor_t = np.array([anchor_n[1], -anchor_n[0]])  # left normal rotated back

        if spec.crossing_road:
            h = self.road_half
            road = np.array([anchor_pt - h * anchor_n, anchor_pt + h * anchor_n])
            feeder = np.array(
                [anchor_pt - (h + 0.2 * self.length) * anchor_n, anchor_pt - h * anchor_n]
            )
            lanes.append(Lane("ns", _pts(road), width=LANE_WIDTH))
            lanes.append(Lane("feeder", _pts(feeder), successors=("ns",), width=LANE_WIDTH))
            self.lane_values["ns"] = 0.0
            self.lane_values["feeder"] = 0.0

        self.has_bike_lane = spec.template == "four_way_intersection"
        if self.has_bike_lane:
            lanes.append(
                Lane(
                    "bike",
                    _pts(c.offset_polyline(lo, hi, BIKE_OFFSET)),
                    is_bike_lane=True,
                    width=2.0,
                )
            )
            self.bike_lane_value = c.lane_curve_value(BIKE_OFFSET)

        if spec.template == "four_way_intersection":
            corners = [
                anchor_pt + 8.0 * anchor_t + 8.0 * anchor_n,
                anchor_pt - 8.0 * anchor_t + 8.0 * anchor_n,
                anchor_pt - 8.0 * anchor_t - 8.0 * anchor_n,
                anchor_pt + 8.0 * anchor_t - 8.0 * anchor_n,
            ]
            intersections.append(Intersection(_pts(corners), 4, (2, 2, 1, 1)))
            controls.append(
                TrafficControl(
                    "traffic_light", _pt(anchor_pt - 4.0 * anchor_t + 8.0 * anchor_n), ("main",)
                )
            )
            controls.append(
                TrafficControl(
                    "stop_sign", _pt(anchor_pt + (self.road_half + 2.0) * anchor_n), ("ns",)
                )
            )
            cw_s = 0.7 * self.length
            cw_pt = c.point(cw_s)
            cw_n = c.normal(cw_s)
            cw_t = np.array([cw_n[1], -cw_n[0]])
            crosswalks.append(
                _pts(
                    [
                        cw_pt + 1.5 * cw_t + 7.0 * cw_n,
                        cw_pt - 1.5 * cw_t + 7.0 * cw_n,
                        cw_pt - 1.5 * cw_t - 7.0 * cw_n,
                        cw_pt + 1.5 * cw_t - 7.0 * cw_n,
                    ]
                )
            )

        if spec.plan == "turn":
            pt = c.point(0.3 * self.length)
            nn = c.normal(0.3 * self.length)
            controls.append(TrafficControl("traffic_light", _pt(pt + 5.0 * nn), ("main",)))

        if spec.template == "hilly":
            amp = self.hill_amplitude = spec.hill_amplitude
            svals = np.linspace(0.0, self.length, 100)
            pts = c.offset_point(svals, np.full(100, 0.5))
            for i, p in enumerate(pts):
                heights.append((float(p[0]), float(p[1]), amp if i % 2 else 0.0))

        self.scene_map = SceneMap(
            tuple(lanes), tuple(intersections), tuple(controls), tuple(crosswalks), tuple(heights)
        )
        self.anchor_pt = anchor_pt
        self.anchor_n = anchor_n

    # --- actors ---------------------------------------------------------------

    def _corridor_actor(self, track_id, label, s0, speed, offset, field_value, size):
        svals = s0 + speed * self.times
        pos = self.corridor.offset_point(svals, np.full(self.t_log, offset))
        crossing = False
        if self.has_strip and label == "vehicle":
            lo, hi = float(svals[0]), float(svals[-1])
            gap = max(self.anchor_s - hi, lo - self.anchor_s)
            if self.carded and -STRIP_MARGIN < gap < STRIP_MARGIN:
                raise ScenarioError(
                    f"{track_id}: span end within {STRIP_MARGIN} m of the crossing strip"
                )
            crossing = lo < self.anchor_s < hi
            if self.carded and crossing and abs(offset) > self.road_half - 2.0:
                raise ScenarioError(f"{track_id}: crossing too close to the road end")
        value = self.corridor.lane_curve_value(offset) if speed > 0 else None
        return _Actor(
            track_id,
            label,
            pos,
            np.full(self.t_log, field_value),
            size,
            value,
            2e-3,
            abs(offset) < 10.0,
            crossing,
            False,
        )

    def _build_actors(self):
        spec = self.spec
        rng = self.rng
        v_mean = self.length / self.total_time if self.total_time else 0.0

        n_parked = spec.n_parked
        if spec.jitter and spec.n_parked:
            n_parked = int(rng.integers(1, spec.n_parked + 1))
        for k in range(n_parked):
            frac = 0.35 if k % 2 == 0 else 0.65
            s_pos = (frac + 0.02 * (k // 2)) * self.length
            pos = np.tile(self.corridor.offset_point(np.array([s_pos]), np.array([PARKED_OFFSET])), (self.t_log, 1))
            self.actors.append(
                _Actor(f"parked{k}", "vehicle", pos, np.zeros(self.t_log), (4.5, 1.9), None, 0.0, True, False, False)
            )

        n_movers = spec.n_movers
        if spec.jitter and spec.n_movers:
            n_movers = int(rng.integers(1, spec.n_movers + 1))
        for k in range(n_movers):
            even = k % 2 == 0
            s0 = (0.1 * self.length + 2.0 * k) * (1.0 if even else -1.0)
            u = v_mean * (1.2 if even else 0.8)
            offset = -7.5 if even else 3.5
            fv = 3.0 + 2.0 * k
            if spec.jitter:
                fv += float(rng.uniform(0.0, 1.0))
            self.actors.append(
                self._corridor_actor(f"mover{k}", "vehicle", s0, u, offset, fv, (4.5, 1.9))
            )

        n_ped = spec.n_pedestrians
        if spec.jitter:
            n_ped = int(rng.integers(0, spec.n_pedestrians + 1))
        # the ego shifts toward the right lane; a left-side walker would end
        # up at the nearness threshold, so walk them on the right instead
        ped_offset = -PED_OFFSET if spec.plan == "lane_change" else PED_OFFSET
        for k in range(n_ped):
            self.actors.append(
                self._corridor_actor(
                    f"ped{k}", "pedestrian", 0.3 * self.length + 2.0 * k, 1.0, ped_offset, 1.0, (0.6, 0.6)
                )
            )

        for k in range(spec.n_bicyclists):
            self.actors.append(
                self._corridor_actor(
                    f"bike{k}", "bicyclist", 0.2 * self.length + 2.0 * k, v_mean, BIKE_OFFSET, 4.0, (1.8, 0.6)
                )
            )

        if spec.with_circle:
            u = 2.0 * math.pi * CIRCLE_RADIUS / self.total_time
            theta = -math.pi / 2.0 + 2.0 * math.pi * np.arange(self.t_log) / (self.t_log - 1)
            # a fixed longitudinal gap past the crossing road keeps the strip margin
            # intact on short jittered routes
            s_c = self.anchor_s + max(0.1 * self.length, 11.0)
            center = self.corridor.offset_point(np.array([s_c]), np.array([CIRCLE_LATERAL]))[0]
            pos = center + CIRCLE_RADIUS * np.column_stack([np.cos(theta), np.sin(theta)])
            if self.carded and self.has_strip:
                d = _min_dist_to_segment(pos, self.anchor_pt - self.road_half * self.anchor_n, self.anchor_pt + self.road_half * self.anchor_n)
                if d <= 0.5 * LANE_WIDTH + STRIP_MARGIN:
                    raise ScenarioError("circling actor too close to the crossing strip")
            self.actors.append(
                _Actor(
                    "circle0",
                    "vehicle",
                    pos,
                    np.full(self.t_log, u),
                    (4.5, 1.9),
                    1.0 / CIRCLE_RADIUS,
                    5e-3,
                    True,
                    False,
                    False,
                )
            )

        if spec.crossing_actors:
            h = self.road_half
            u_c = 0.5 * h / (0.5 * self.total_time)
            y = -0.6 * h + u_c * self.times
            pos = self.anchor_pt[None, :] + y[:, None] * self.anchor_n[None, :]
            self.actors.append(
                _Actor("crosser0", "vehicle", pos, np.full(self.t_log, u_c), (4.5, 1.9), 0.0, 1e-9, True, True, False)
            )
            u_f = self.length / self.total_time
            move_time = 0.15 * self.total_time
            yf = -(h + 0.2 * self.length) + u_f * np.minimum(self.times, move_time)
            posf = self.anchor_pt[None, :] + yf[:, None] * self.anchor_n[None, :]
            fieldf = np.where(self.times < move_time, u_f, 0.0)
            self.actors.append(
                _Actor("feeder0", "vehicle", posf, fieldf, (4.5, 1.9), 0.0, 1e-9, False, False, True)
            )

        if spec.plan == "nudge":
            i0 = max(1, int(0.3 * self.t_log))
            s_pos = float(self.s[min(self.t_log - 1, i0 + 15)])
            if self.carded and self.has_strip and abs(s_pos - self.anchor_s) < 0.5 * LANE_WIDTH + STRIP_MARGIN:
                raise ScenarioError("nudge obstacle too close to the crossing strip")
            pos = np.tile(self.corridor.offset_point(np.array([s_pos]), np.array([-0.4])), (self.t_log, 1))
            self.actors.append(
                _Actor("slowcar0", "vehicle", pos, np.zeros(self.t_log), (4.5, 1.9), None, 0.0, True, False, False)
            )

    # --- feasibility ------------------------------------------------------------

    def _check_margins(self):
        for a in self.actors:
            d = np.linalg.norm(a.positions - self.ego, axis=1)
            worst = float(np.max(d))
            if self.carded and worst > ROI_GUARD:
                raise ScenarioError(
                    f"{a.track_id}: distance {worst:.1f} m exceeds the {ROI_GUARD} m bound"
                )
            # settle the nearness flag from realized geometry; require a 1 m
            # margin so chord sampling cannot flip the verdict
            diff = a.positions[:, None, :] - self.ego[None, :, :]
            dmin = float(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).min()))
            if self.carded and NEAR_DIST - 1.0 < dmin < NEAR_DIST + 1.0:
                raise ScenarioError(
                    f"{a.track_id}: path distance {dmin:.2f} m too close to the"
                    f" {NEAR_DIST} m nearness threshold"
                )
            a.near = dmin < NEAR_DIST

    # --- emission ---------------------------------------------------------------

    def snippet(self, snippet_id: str, first: int, count: int) -> Snippet:
        """Log frames first .. first + count - 1 as one snippet's columns;
        every frame sees every actor, in actor order."""
        lat0, lon0 = self.spec.geo_origin
        meters_per_deg = 111320.0
        frames = np.arange(first, first + count)
        ego = self.ego[frames]
        lat = lat0 + ego[:, 1] / meters_per_deg
        lon = lon0 + ego[:, 0] / (meters_per_deg * math.cos(math.radians(lat0)))
        later, earlier = np.minimum(frames + 1, self.t_log - 1), np.maximum(frames - 1, 0)
        n = len(self.actors)
        center, yaw, speed = np.zeros((count, n, 2)), np.zeros((count, n)), np.zeros((count, n))
        for j, a in enumerate(self.actors):
            center[:, j] = a.positions[frames]
            step = a.positions[later] - a.positions[earlier]
            yaw[:, j] = [math.atan2(dy, dx) if (dx or dy) else 0.0 for dx, dy in step.tolist()]
            speed[:, j] = a.speed_field[frames]
        track_ids = tuple(sorted({a.track_id for a in self.actors}))
        tracks = np.array([track_ids.index(a.track_id) for a in self.actors], dtype=int)
        labels = np.array([DETECTION_CLASSES.index(a.label) for a in self.actors], dtype=int)
        sizes = np.array([a.size for a in self.actors], dtype=float).reshape(-1, 2)
        return Snippet(
            snippet_id=snippet_id,
            log_id=self.log_id,
            frame_range=(first, first + count - 1),
            index=frames,
            timestamp=self.times[frames],
            ego_pose=np.column_stack([ego, self.headings[frames]]),
            geo=np.column_stack([lat, lon]),
            track_ids=track_ids,
            det_frame=np.repeat(np.arange(count), n),
            det_track=np.tile(tracks, count),
            det_label=np.tile(labels, count),
            det_center=center.reshape(-1, 2),
            det_yaw=_wrap(yaw.reshape(-1)),
            det_size=np.tile(sizes, (count, 1)),
            det_speed=speed.reshape(-1),
        )

    # --- expectation card ---------------------------------------------------------

    def card_fields(self) -> dict:
        spec = self.spec
        f: dict = {}
        lane_vals = [self.lane_values["main"], self.lane_values["right"]]
        if spec.crossing_road:
            lane_vals += [0.0, 0.0]
        f["curve_mean"] = (float(np.mean(lane_vals)), 2e-3)
        f["crossing_total"] = (4.0 if spec.crossing_road else 0.0, 1e-12)
        four_way = spec.template == "four_way_intersection"
        f["at_intersection"] = (1.0 if four_way else 0.0, 1e-12)
        f["intersection_roads"] = (4.0 if four_way else 0.0, 1e-12)
        f["intersection_lanes"] = (6.0 if four_way else 0.0, 1e-12)
        lights = (1.0 if four_way else 0.0) + (1.0 if spec.plan == "turn" else 0.0)
        f["traffic_lights"] = (lights, 1e-12)
        f["signs"] = (1.0 if four_way else 0.0, 1e-12)
        if self.has_bike_lane:
            f["bike_curve"] = (self.bike_lane_value, 2e-3)
            f["bike_crossing"] = (1.0 if spec.crossing_road else 0.0, 1e-12)
        else:
            f["bike_curve"] = (0.0, 1e-12)
            f["bike_crossing"] = (0.0, 1e-12)
        f["crosswalk_lane_overlaps"] = (2.0 if four_way else 0.0, 1e-12)
        if spec.template == "hilly":
            f["height_var"] = (self.hill_amplitude**2 / 4.0, 1e-12)
        else:
            f["height_var"] = (0.0, 1e-12)

        statics = [a for a in self.actors if float(np.mean(a.speed_field)) < 0.5]
        dynamics = [a for a in self.actors if float(np.mean(a.speed_field)) >= 0.5]
        f["crowd_static"] = (float(len(statics)), 1e-12)
        f["crowd_dynamic"] = (float(len(dynamics)), 1e-12)
        counts = {"vehicle": 0, "pedestrian": 0, "bicyclist": 0}
        for a in self.actors:
            counts[a.label] += 1
        total = sum(counts.values())
        if total:
            term = 1.0
            for c in counts.values():
                term *= 1.0 + c
            term /= total
        else:
            term = 0.0
        f["class_div"] = (term, 1e-12)

        eligible = [a for a in self.actors if a.path_value is not None]
        if eligible:
            values = [a.path_value for a in eligible]
            tol = max(a.path_tol for a in eligible)
            f["actor_path_mean"] = (float(np.mean(values)), tol)
            f["actor_path_max"] = (float(np.max(values)), tol)
        else:
            f["actor_path_mean"] = (0.0, 1e-12)
            f["actor_path_max"] = (0.0, 1e-12)
        if self.actors:
            means = np.array([float(np.mean(a.speed_field)) for a in self.actors])
            inner = sum(float(np.var(a.speed_field)) for a in self.actors)
            f["speed_div"] = (float(np.var(means)) + inner, 1e-9)
        else:
            f["speed_div"] = (0.0, 1e-12)

        if spec.plan in ("cruise", "speed_ramp"):
            if self.corridor.radius is None:
                f["sdv_path"] = (0.0, 1e-12)
            else:
                f["sdv_path"] = (1.0 / self.corridor.radius, 2e-3)
        elif spec.plan == "turn":
            f["sdv_path"] = (1.0 / spec.turn_radius, 2e-3)
        if spec.plan in ("cruise", "turn"):
            f["sdv_speed_var"] = (0.0, 1e-12)
        elif spec.plan == "speed_ramp":
            steps = _ego_steps(spec, self.t_log)
            if self.corridor.radius is not None:
                # pose displacements are chords of the arc, not arc lengths
                r = self.corridor.radius
                steps = 2.0 * r * np.sin(steps / (2.0 * r))
            f["sdv_speed_var"] = (float(np.var(steps / spec.dt)), 1e-9)

        f["lane_changes"] = (1.0 if spec.plan == "lane_change" else 0.0, 1e-12)
        f["turns"] = (1.0 if spec.plan == "turn" else 0.0, 1e-12)
        controls = (1.0 if four_way else 0.0) + (1.0 if spec.plan == "turn" else 0.0)
        f["controls_on_route"] = (controls, 1e-12)

        near_static = sum(1 for a in statics if a.near)
        near_dynamic = sum(1 for a in dynamics if a.near)
        f["near_path_static"] = (float(near_static), 1e-12)
        f["near_path_dynamic"] = (float(near_dynamic), 1e-12)
        f["conflict_traversals"] = (
            float(sum(1 for a in self.actors if a.strip_crossing)),
            1e-12,
        )
        f["conflict_reachable"] = (
            float(sum(1 for a in self.actors if a.reachable)),
            1e-12,
        )
        f["nudges"] = (1.0 if spec.plan == "nudge" else 0.0, 1e-12)
        return f


def _min_dist_to_segment(points, a, b):
    d = b - a
    len2 = float(d @ d)
    t = np.clip(((points - a) @ d) / len2, 0.0, 1.0)
    proj = a + t[:, None] * d
    dist = np.linalg.norm(points - proj, axis=1)
    return float(np.min(dist))


def generate_pool(spec: ScenarioSpec, with_cards: bool = True):
    """Build a pool and its cards: {snippet_id: OracleCard | None}; without
    `with_cards` every card is None and no card margin is enforced."""
    validate_spec(spec)
    T = spec.num_frames
    snippets = []
    cards = {}
    scene_map = None
    for j in range(spec.n_snippets):
        sid = f"{spec.id_prefix}{j:04d}"
        if spec.overlap_every == 2:
            log_index = j // 2
            stride = T // 2
            t_log = T + stride
            first = stride * (j % 2)
        else:
            log_index = j
            t_log = T
            first = 0
        rng = np.random.default_rng(spec.seed * 100003 + log_index)
        sub = spec
        if spec.bicycle_every:
            sub = replace(spec, n_bicyclists=1 if j % spec.bicycle_every == 0 else 0)
        if spec.jitter:
            sub = replace(
                sub,
                cruise_speed=float(rng.uniform(3.3, 4.1)),
                ramp_top_speed=float(rng.uniform(6.8, 8.0)),
                geo_origin=(
                    spec.geo_origin[0] + 0.001 * log_index,
                    spec.geo_origin[1] + 0.0007 * log_index,
                ),
            )
        carded = with_cards and spec.overlap_every == 0 and not spec.jitter
        build = _Build(sub, rng, t_log, f"log-{spec.id_prefix}{log_index:04d}", carded=carded)
        if scene_map is None:
            scene_map = build.scene_map
        snippets.append(build.snippet(sid, first, T))
        # jittered snippets disagree with the shared pool map on anchor
        # positions, so only uniform full-window builds get cards
        cards[sid] = OracleCard(sid, build.card_fields()) if carded else None
    pool = SnippetPool(tuple(snippets), scene_map, T)
    return pool, cards


def synth_forecasts(pool: SnippetPool, horizon: int = 5, actors_per_frame: int = 2) -> dict:
    """Deterministic per-snippet forecasts with graded covariance scales, so
    entropy ranking over the pool has a known order."""
    out = {}
    steps = np.arange(1, horizon + 1)
    for idx, s in enumerate(sorted(pool.snippets, key=lambda x: x.snippet_id)):
        scale = 0.5 * (1.0 + (idx % 5))
        # the first `actors_per_frame` detections of each frame, at every step
        rank = np.arange(len(s.det_frame)) - np.asarray(s.frame_starts())[s.det_frame]
        first = np.flatnonzero(rank < actors_per_frame)
        det, step = np.repeat(first, horizon), np.tile(steps, len(first))
        reach = 0.1 * step * s.det_speed[det]
        yaw = s.det_yaw[det].tolist()  # math.cos and math.sin, as the pinned digests were made
        cos, sin = np.array(list(map(math.cos, yaw))), np.array(list(map(math.sin, yaw)))
        center = s.det_center[det]
        out[s.snippet_id] = GaussianForecast(
            s.snippet_id,
            horizon,
            frame_index=s.index[s.det_frame[det]],
            actor_id=tuple(s.track_ids[t] for t in s.det_track[det].tolist()),
            timestep=step,
            mu=np.column_stack([center[:, 0] + reach * cos, center[:, 1] + reach * sin]),
            cov=np.column_stack(
                [np.full(len(det), scale), np.zeros(len(det)), scale * (1.0 + 0.1 * step)]
            ),
        )
    return out
