"""Geometric shadow prediction from caster masks and their height ranges,
and the building intensity map that tells high buildings from low ones."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .raster import BinaryMask, window_ratio, window_reduce


@dataclass
class ShadowGeometry:
    """Sun angles; the azimuth is degrees clockwise from north.  The
    elevation's range, (0, 90], is a ``SceneSpec.validate`` rule."""

    sun_elevation_deg: float
    sun_azimuth_deg: float

    def offset_coefficients(self):
        """(a, b): column and row shadow displacement per meter of height,
        in units of the pixel size.  The shadow points away from the sun."""
        elev = math.radians(self.sun_elevation_deg)
        az = math.radians(self.sun_azimuth_deg)
        inv_tan = 1.0 / math.tan(elev) if self.sun_elevation_deg < 90.0 else 0.0
        a = -math.sin(az) * inv_tan
        b = math.cos(az) * inv_tan
        return a, b


def building_intensity_map(impervious: np.ndarray, window: int,
                           ratio_threshold: float) -> np.ndarray:
    """True where the share of (h, w) ``impervious`` pixels in the centered
    ``window`` x ``window`` neighbourhood strictly exceeds ``ratio_threshold``."""
    return window_ratio(impervious, window) > ratio_threshold


def shift_or(acc: np.ndarray, mask: np.ndarray, drow: int, dcol: int):
    """OR ``mask`` into ``acc``, shifted by (drow, dcol) from where its top-left
    pixel sits at the top-left of ``acc``.  Pixels shifted off ``acc`` are
    dropped."""
    r0, r1 = max(drow, 0), min(drow + mask.shape[0], acc.shape[0])
    c0, c1 = max(dcol, 0), min(dcol + mask.shape[1], acc.shape[1])
    if r0 < r1 and c0 < c1:
        acc[r0:r1, c0:c1] |= mask[r0 - drow:r1 - drow, c0 - dcol:c1 - dcol]


def height_sweep(h_min: float, h_max: float, step: float) -> np.ndarray:
    """Heights (m) from ``h_min`` up by ``step``, the last clipped to ``h_max``."""
    n_steps = max(1, int(math.ceil((h_max - h_min) / step)) + 1)
    return np.minimum(h_min + step * np.arange(n_steps), h_max)


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


def potential_shadow_mask(casters, geom: ShadowGeometry, grid) -> BinaryMask:
    """Union of projected shadow pixels over each caster's height range.

    ``casters`` holds ``(mask, (h_min, h_max))`` pairs: a boolean mask on the
    PAN grid ``grid`` of the pixels that cast, and their height range in
    meters.  Each height step of the sweep moves the shadow by at most one
    pixel; each caster's shadow is one ``sweep_union`` of its mask over the
    sweep's offsets.  Out-of-bounds projections are dropped.
    """
    r = grid.pixel_size
    a, b = geom.offset_coefficients()
    step = min(r * math.tan(math.radians(min(geom.sun_elevation_deg, 89.0))),
               r / max(abs(a), abs(b), 1.0))

    out = np.zeros((grid.height, grid.width), dtype=bool)
    for mask, (h_min, h_max) in casters:
        if not mask.any():
            continue
        sweep = height_sweep(h_min, h_max, step)
        union, top, left = sweep_union(mask, sweep_offsets(a, b, sweep, r))
        shift_or(out, union, top, left)
    return BinaryMask(grid, out)
