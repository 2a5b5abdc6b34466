"""Post-classification refinement: relabel shadow-dominated water segments
and unmix the water-land boundary against local endmember spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import BinaryMask, RasterGrid
from .segmentation import SegmentMap


class PostClassError(Exception):
    pass


@dataclass
class PostClassParams:
    shadow_relabel_threshold: float = 0.85
    boundary_band_px: int = 4
    unmix_window_px: int = 33
    water_fraction_threshold: float = 0.5

    def __post_init__(self):
        for t in (self.shadow_relabel_threshold, self.water_fraction_threshold):
            if not (0.0 < t < 1.0):
                raise PostClassError(f"threshold {t} must be in (0, 1)")
        if self.boundary_band_px < 1:
            raise PostClassError("boundary band must be >= 1 pixel")
        if self.unmix_window_px < 1 or self.unmix_window_px % 2 == 0:
            raise PostClassError("unmix window must be odd and >= 1")


def relabel_shadow_segments(water_flags, segmap: SegmentMap,
                            params: PostClassParams) -> np.ndarray:
    """Water segments whose shadow proportion strictly exceeds the threshold
    become non-water; everything else is untouched."""
    shadowed = segmap.records.p_shadow > params.shadow_relabel_threshold
    return np.asarray(water_flags, dtype=bool) & ~shadowed


def _window_means(values: np.ndarray, mask: np.ndarray, radius: int):
    """Per-pixel mean of ``values`` over masked pixels in a clipped window."""
    from .raster import _box_sums

    sums, _ = _box_sums(np.where(mask, values, 0.0), radius)
    counts, _ = _box_sums(mask.astype(np.float64), radius)
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    return means, counts


def boundary_unmix(water_mask: BinaryMask, ms: RasterGrid,
                   params: PostClassParams) -> BinaryMask:
    """Re-decide pixels near the water-land edge by a local two-endmember
    linear mixture.

    For each pixel within the boundary band of an edge, the local water and
    land endmembers are the mean spectra of interior (out-of-band) water and
    non-water pixels in the centered unmix window; the pixel becomes water
    iff its least-squares water fraction strictly exceeds the threshold.
    Pixels lacking either endmember are left unchanged.
    """
    if ms.geometry != water_mask.geometry:
        raise PostClassError("MS raster must be resampled to the mask grid")
    water = water_mask.bits.astype(bool)
    edge = np.zeros_like(water)
    edge[:, 1:] |= water[:, 1:] != water[:, :-1]
    edge[:, :-1] |= water[:, 1:] != water[:, :-1]
    edge[1:, :] |= water[1:, :] != water[:-1, :]
    edge[:-1, :] |= water[1:, :] != water[:-1, :]
    band = ndimage.maximum_filter(edge, size=2 * params.boundary_band_px + 1)
    interior_water = water & ~band
    interior_land = ~water & ~band

    radius = params.unmix_window_px // 2
    spectra = ms.data.astype(np.float64)
    water_means = []
    land_means = []
    for bidx in range(spectra.shape[0]):
        wm, wcount = _window_means(spectra[bidx], interior_water, radius)
        lm, lcount = _window_means(spectra[bidx], interior_land, radius)
        water_means.append(wm)
        land_means.append(lm)
    water_means = np.stack(water_means)
    land_means = np.stack(land_means)
    usable = band & (wcount > 0) & (lcount > 0)

    diff = water_means - land_means
    denom = np.sum(diff * diff, axis=0)
    usable &= denom > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        fraction = np.sum((spectra - land_means) * diff, axis=0) / denom
    fraction = np.clip(fraction, 0.0, 1.0)

    out = water.copy()
    out[usable] = fraction[usable] > params.water_fraction_threshold
    return BinaryMask(water_mask.geometry, out.astype(np.uint8))
