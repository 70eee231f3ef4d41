"""Map-derived complexity measures for one snippet.

The region of interest is the union of disks of a fixed radius around every
ego position in the snippet; a map element contributes when any part of its
geometry falls inside that union. Crossing terms sum, per included lane, the
number of other included lanes crossing it, so one crossing pair contributes
twice; enlarging the ROI can only add lanes and therefore never lowers a
count.
"""

from typing import TYPE_CHECKING

import numpy as np

from . import geometry
from .scene import MapIndex

if TYPE_CHECKING:
    from .features import SnippetArrays


def _polygon_in_roi(inside: np.ndarray, poly: np.ndarray, ego: np.ndarray, radius: float) -> bool:
    """`inside` is `geometry.points_in_polygon(ego, poly)`."""
    if np.any(inside):
        return True
    ring = np.vstack([poly, poly[:1]])
    dist, _ = geometry.project_points_to_polyline(ego, ring)
    return bool(np.min(dist) <= radius)


def infra_features(rec: "SnippetArrays", index: MapIndex, config) -> dict:
    """The infrastructure row of one snippet, keyed by feature name."""
    m = index.scene_map
    ego = rec.ego
    roi_radius = config.roi_radius
    lane_in = rec.lane_dist <= roi_radius
    vehicle_in = lane_in & ~index.lane_is_bike
    bike_in = lane_in & index.lane_is_bike
    curves = index.lane_curve_complexity(config.resample_points)

    cm = index.crossing_matrix
    row = {
        "curve_mean": float(np.mean(curves[vehicle_in])) if np.any(vehicle_in) else 0.0,
        "crossing_total": float(cm[np.ix_(vehicle_in, vehicle_in)].sum()),
        "bike_curve": float(np.mean(curves[bike_in])) if np.any(bike_in) else 0.0,
        "bike_crossing": float(cm[np.ix_(bike_in, lane_in)].sum()),
    }

    row["at_intersection"] = float(rec.in_intersection.any())
    roads = 0
    inter_lanes = 0
    for inter, poly, inside in zip(m.intersections, index.intersection_polys, rec.in_intersection):
        if _polygon_in_roi(inside, poly, ego, roi_radius):
            roads += inter.incoming_roads
            inter_lanes += sum(inter.lanes_per_road)
    row["intersection_roads"] = float(roads)
    row["intersection_lanes"] = float(inter_lanes)

    lights = 0
    signs = 0
    for control, pos in zip(m.traffic_controls, index.control_positions):
        if np.min(np.linalg.norm(ego - pos, axis=1)) <= roi_radius:
            if control.kind == "traffic_light":
                lights += 1
            else:
                signs += 1
    row["traffic_lights"] = float(lights)
    row["signs"] = float(signs)

    overlaps = 0
    vehicle_cols = np.flatnonzero(vehicle_in)
    for ci, (poly, inside) in enumerate(zip(index.crosswalk_polys, rec.in_crosswalk)):
        if len(vehicle_cols) and _polygon_in_roi(inside, poly, ego, roi_radius):
            overlaps += int(index.crosswalk_lane_hits[ci, vehicle_cols].sum())
    row["crosswalk_lane_overlaps"] = float(overlaps)

    row["height_var"] = 0.0
    if len(index.height_xy):
        d2 = (
            (index.height_xy[:, None, 0] - ego[None, :, 0]) ** 2
            + (index.height_xy[:, None, 1] - ego[None, :, 1]) ** 2
        )
        in_roi = np.min(d2, axis=1) <= roi_radius * roi_radius
        if np.any(in_roi):
            row["height_var"] = float(np.var(index.height_z[in_roi]))
    return row
