"""Geometric shadow prediction from object positions and height ranges,
plus segment classification by majority voting and the tree/grass split."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import BinaryMask, window_ratio, window_reduce
from .segmentation import SegmentMap
from .spectral import CLASS_ORDER, SpectralError, otsu_threshold


class ShadowError(Exception):
    pass


@dataclass
class ShadowGeometry:
    """Sun angles; the azimuth is degrees clockwise from north."""

    sun_elevation_deg: float
    sun_azimuth_deg: float

    def __post_init__(self):
        if not (0.0 < self.sun_elevation_deg <= 90.0):
            raise ShadowError(
                f"sun elevation must be in (0, 90], got {self.sun_elevation_deg}"
            )

    def offset_coefficients(self):
        """(a, b): column and row shadow displacement per meter of height,
        in units of the pixel size.  The shadow points away from the sun."""
        elev = math.radians(self.sun_elevation_deg)
        az = math.radians(self.sun_azimuth_deg)
        inv_tan = 1.0 / math.tan(elev) if self.sun_elevation_deg < 90.0 else 0.0
        a = -math.sin(az) * inv_tan
        b = math.cos(az) * inv_tan
        return a, b


def classify_segments_majority(segmap: SegmentMap) -> np.ndarray:
    """Label each segment with its maximum-vote class from the MS class map.

    Ties break by the fixed class order (vegetation < soil < impervious <
    water)."""
    votes = segmap.records.votes
    if (votes.sum(axis=1) == 0).any():
        raise ShadowError("segment has no class votes; run segment_stats first")
    segmap.records.label = np.array(CLASS_ORDER)[votes.argmax(axis=1)]
    return segmap.records.label


def tree_grass_split(segmap: SegmentMap, t_tree: float | None) -> np.ndarray:
    """Relabel vegetation segments as tree (profile deviation strictly above
    ``t_tree``) or grass.  With ``t_tree`` None, one is derived by Otsu
    from the vegetation segments' values."""
    labels = segmap.records.label
    veg = labels == "vegetation"
    if not veg.any():
        return labels
    mp_std = segmap.records.mp_std[veg]
    if t_tree is None:
        try:
            t_tree = otsu_threshold(mp_std)
        except SpectralError:
            t_tree = math.inf  # indistinguishable: treat everything as grass
    labels[veg] = np.where(mp_std > t_tree, "tree", "grass")
    return labels


def building_intensity_map(impervious_mask: BinaryMask, window: int,
                           ratio_threshold: float) -> BinaryMask:
    """1 where the impervious-area ratio of the centered ``window`` x
    ``window`` neighbourhood strictly exceeds ``ratio_threshold``."""
    ratio = window_ratio(impervious_mask, window)
    return BinaryMask(impervious_mask.geometry,
                      (ratio.data[0] > ratio_threshold).astype(np.uint8))


OBJECT_KIND_HIGH_BUILDING = 1
OBJECT_KIND_LOW_BUILDING = 2
OBJECT_KIND_TREE = 3


def shift_or(acc: np.ndarray, mask: np.ndarray, drow: int, dcol: int, origin=(0, 0)):
    """OR ``mask`` into ``acc``, shifted by (drow, dcol) from where its top-left
    pixel sits at ``origin`` of ``acc``.  Pixels shifted off ``acc`` are dropped."""
    top, left = origin[0] + drow, origin[1] + dcol
    r0, r1 = max(top, 0), min(top + mask.shape[0], acc.shape[0])
    c0, c1 = max(left, 0), min(left + mask.shape[1], acc.shape[1])
    if r0 < r1 and c0 < c1:
        acc[r0:r1, c0:c1] |= mask[r0 - top:r1 - top, c0 - left:c1 - left]


def sweep_offsets(a: float, b: float, heights, pixel: float) -> list:
    """Sorted distinct (row, col) pixel shifts of the shadow cast from each of
    ``heights`` (m), for the offset coefficients ``(a, b)`` of
    ``ShadowGeometry.offset_coefficients`` on pixels of ``pixel`` meters."""
    heights = np.asarray(heights, dtype=np.float64)
    rows = np.floor(b * heights / pixel + 0.5).astype(int).tolist()
    cols = np.floor(a * heights / pixel + 0.5).astype(int).tolist()
    return sorted(set(zip(rows, cols)))


def _runs(offsets: np.ndarray, axis: int) -> tuple:
    """``(firsts, lengths)`` of the runs of (row, col) ``offsets`` that share
    the other coordinate and step by one along ``axis`` (0 rows, 1 columns)."""
    offsets = offsets[np.lexsort((offsets[:, axis], offsets[:, 1 - axis]))]
    step = np.diff(offsets, axis=0)
    starts = np.flatnonzero(np.r_[True, (step[:, 1 - axis] != 0) | (step[:, axis] != 1)])
    return offsets[starts], np.diff(np.r_[starts, len(offsets)])


def sweep_union(mask: np.ndarray, offsets) -> tuple:
    """``(union, top, left)``: the union of boolean ``mask`` shifted by every
    (row, col) of ``offsets``, over the box that holds every shift, whose
    top-left pixel is ``mask``'s shifted by (top, left).

    The offsets are split into runs along rows or along columns, whichever
    gives fewer, and each run of L shifts is ORed by doubling
    (``window_reduce``) in about log2 L whole-array operations.  A union does
    not depend on the order of its terms, so it equals ``shift_or`` of every
    offset."""
    offsets = np.array(offsets, dtype=int).reshape(-1, 2)
    top, left = offsets.min(axis=0).tolist()
    bottom, right = offsets.max(axis=0).tolist()
    union = np.zeros((mask.shape[0] + bottom - top, mask.shape[1] + right - left), dtype=bool)
    runs = [_runs(offsets, axis) for axis in (0, 1)]
    axis = int(len(runs[1][1]) < len(runs[0][1]))
    firsts, lengths = runs[axis]
    for (drow, dcol), n in zip(firsts.tolist(), lengths.tolist()):
        spread = mask
        if n > 1:  # n - 1 empty rows (or columns) on each side, then n at a time
            shape, inner = list(mask.shape), [slice(None), slice(None)]
            shape[axis] += 2 * (n - 1)
            inner[axis] = slice(n - 1, 1 - n)
            spread = np.zeros(shape, dtype=bool)
            spread[tuple(inner)] = mask
            spread = window_reduce(spread, n, np.logical_or, axis)
        shift_or(union, spread, drow - top, dcol - left)
    return union, top, left


def potential_shadow_mask(object_kind_map: np.ndarray, geom: ShadowGeometry,
                          heights: dict, grid) -> BinaryMask:
    """Union of projected shadow pixels over each object kind's height range.

    ``object_kind_map`` holds OBJECT_KIND_* codes on the PAN grid ``grid``;
    ``heights`` maps each kind that casts a shadow to its ``(h_min, h_max)``
    in meters.  Each height step of the sweep moves the shadow by at most
    one pixel; each kind's shadow is one ``sweep_union`` of its pixels over
    the sweep's offsets.  Out-of-bounds projections are dropped.
    """
    r = grid.pixel_size
    a, b = geom.offset_coefficients()
    step = min(r * math.tan(math.radians(min(geom.sun_elevation_deg, 89.0))),
               r / max(abs(a), abs(b), 1.0))

    out = np.zeros(object_kind_map.shape, dtype=bool)
    for kind, (h_min, h_max) in heights.items():
        mask = object_kind_map == kind
        if not mask.any():
            continue
        n_steps = max(1, int(math.ceil((h_max - h_min) / step)) + 1)
        sweep = np.minimum(h_min + step * np.arange(n_steps), h_max)
        union, top, left = sweep_union(mask, sweep_offsets(a, b, sweep, r))
        shift_or(out, union, top, left)
    return BinaryMask(grid, out.astype(np.uint8))
