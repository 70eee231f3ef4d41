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

from .scene import MapIndex
from .traffic import variance

if TYPE_CHECKING:
    from .features import SnippetArrays


def infra_features(rec: "SnippetArrays", index: MapIndex, config) -> dict:
    """The infrastructure row of one snippet, keyed by feature name."""
    roi_radius = config.roi_radius
    lane_in = rec.lane_dist <= roi_radius
    vehicle_in = lane_in & ~index.lane_is_bike
    bike_in = lane_in & index.lane_is_bike
    curves = index.lane_curve_complexity(config.resample_points)

    cm = index.crossing_matrix  # int counts: the mask products below are exact sums
    row = {
        "curve_mean": float(np.mean(curves[vehicle_in])) if np.any(vehicle_in) else 0.0,
        "crossing_total": float(vehicle_in @ cm @ vehicle_in),
        "bike_curve": float(np.mean(curves[bike_in])) if np.any(bike_in) else 0.0,
        "bike_crossing": float(bike_in @ cm @ lane_in),
        "at_intersection": float(rec.in_intersection.any()),
    }

    # an element is in the ROI when some ego pose is within roi_radius of
    # it, or, for a ring, inside it
    rows = index.element_rows
    near = rec.element_dist <= roi_radius
    near[rows["intersection"]] |= rec.in_intersection.any(axis=1)
    near[rows["crosswalk"]] |= rec.in_crosswalk.any(axis=1)
    roads, inter_lanes, lights, signs = (near @ index.element_counts).tolist()
    overlaps = np.count_nonzero(index.crosswalk_lane_hits[near[rows["crosswalk"]]][:, vehicle_in])
    heights = index.height_z[near[rows["height"]]]
    row.update(
        intersection_roads=float(roads),
        intersection_lanes=float(inter_lanes),
        traffic_lights=float(lights),
        signs=float(signs),
        crosswalk_lane_overlaps=float(overlaps),
        height_var=variance(heights),
    )
    return row
