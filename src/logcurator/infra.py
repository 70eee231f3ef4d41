"""Map-derived complexity measures over a scoring batch's snippets.

The region of interest is the union of disks of a fixed radius around every
ego position in the snippet; a map element contributes when any part of its
geometry falls inside that union. Crossing terms sum, per included lane, the
number of other included lanes crossing it, so one crossing pair contributes
twice; enlarging the ROI can only add lanes and therefore never lowers a
count.

The counts are integer mask products over the whole batch. The lane curve
means and the height variance are float reductions over one snippet's lane
or height mask, taken row by row.
"""

import numpy as np

from .scene import MapIndex
from .traffic import variance


def infra_features(lane_dist, element_dist, in_intersection, in_crosswalk, index: MapIndex, config) -> np.ndarray:
    """(n, 11) infrastructure block of the n snippets of a scoring batch, in
    SNIPPET_FEATURES order, from each snippet's nearest ego approach to each
    lane (n, L) and to each of index.elements (n, E), and whether its ego
    entered each intersection (n, I) and each crosswalk (n, C). A
    `config.roi_radius` of math.inf puts every lane and element in the ROI,
    as it puts every detection in the traffic gate."""
    lane_in = lane_dist <= config.roi_radius
    vehicle_in = lane_in & ~index.lane_is_bike
    bike_in = lane_in & index.lane_is_bike
    curves = index.lane_curve_complexity(config.resample_points)

    def curve_mean(mask):
        return float(np.mean(curves[mask])) if mask.any() else 0.0

    # an element is in the ROI when some ego pose is within roi_radius of
    # it, or, for a ring, inside it
    rows = index.element_rows
    near = element_dist <= config.roi_radius
    near[:, rows["intersection"]] |= in_intersection
    near[:, rows["crosswalk"]] |= in_crosswalk
    cm = index.crossing_matrix  # int counts: the mask products below are exact sums
    hits = index.crosswalk_lane_hits.astype(int)
    return np.column_stack([
        [curve_mean(mask) for mask in vehicle_in],
        (vehicle_in @ cm * vehicle_in).sum(axis=1),
        in_intersection.any(axis=1),
        near @ index.element_counts,  # roads, intersection lanes, lights, signs
        [curve_mean(mask) for mask in bike_in],
        (bike_in @ cm * lane_in).sum(axis=1),
        (near[:, rows["crosswalk"]] @ hits * vehicle_in).sum(axis=1),
        [variance(index.height_z[mask]) for mask in near[:, rows["height"]]],
    ])
