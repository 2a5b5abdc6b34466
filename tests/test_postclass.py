import numpy as np
import pytest

from aquafuse.postclass import (
    PostClassError,
    PostClassParams,
    boundary_unmix,
    relabel_shadow_segments,
)
from aquafuse.raster import BinaryMask, GridGeometry, RasterGrid
from aquafuse.segmentation import SegmentMap, segment_table


def segmap_of(p_shadows):
    n = len(p_shadows)
    geom = GridGeometry(n, 1, 1.0)
    recs = segment_table(n)
    recs.p_shadow = p_shadows
    return SegmentMap(np.arange(n, dtype=np.int32)[np.newaxis], recs, geom)


class TestShadowRelabel:
    def test_strictly_above_threshold_flips(self):
        segmap = segmap_of([0.0, 0.85, 0.86, 1.0])
        out = relabel_shadow_segments([True, True, True, True], segmap,
                                      PostClassParams())
        assert out.tolist() == [True, True, False, False]

    def test_non_water_untouched(self):
        segmap = segmap_of([1.0, 1.0])
        out = relabel_shadow_segments([False, False], segmap, PostClassParams())
        assert out.tolist() == [False, False]

    def test_custom_threshold(self):
        segmap = segmap_of([0.5, 0.6])
        params = PostClassParams(shadow_relabel_threshold=0.55)
        assert relabel_shadow_segments([True, True], segmap, params).tolist() == [True, False]


def two_class_scene(split_col, h=40, w=40, water_val=0.1, land_val=0.9,
                    mixed=None):
    """Water left of split_col, land right; ``mixed`` maps (row, col) to a
    water fraction whose spectrum is the linear blend."""
    geom = GridGeometry(w, h, 1.0, origin_y=float(h))
    spectra = np.full((4, h, w), land_val, dtype=np.float32)
    spectra[:, :, :split_col] = water_val
    bits = np.zeros((h, w), dtype=np.uint8)
    bits[:, :split_col] = 1
    if mixed:
        for (r, c), f in mixed.items():
            spectra[:, r, c] = f * water_val + (1 - f) * land_val
    return BinaryMask(geom, bits), RasterGrid(geom, spectra)


class TestBoundaryUnmix:
    def test_clean_edge_unchanged(self):
        mask, ms = two_class_scene(20)
        out = boundary_unmix(mask, ms, PostClassParams())
        assert np.array_equal(out.bits, mask.bits)

    def test_mislabelled_boundary_pixels_corrected(self):
        # pixels just landward of the edge are spectrally almost pure water
        mixed = {(r, 20): 0.9 for r in range(40)}
        mask, ms = two_class_scene(20, mixed=mixed)
        out = boundary_unmix(mask, ms, PostClassParams())
        assert (out.bits[:, 20] == 1).all()
        assert (out.bits[:, 21] == 0).all()
        assert (out.bits[:, :20] == 1).all()

    def test_water_fraction_threshold_is_strict(self):
        mixed = {(r, 19): 0.5 for r in range(40)}  # exactly half water
        mask, ms = two_class_scene(20, mixed=mixed)
        out = boundary_unmix(mask, ms, PostClassParams())
        assert (out.bits[:, 19] == 0).all()  # 0.5 is not > 0.5

    def test_interior_never_touched(self):
        rng = np.random.default_rng(0)
        mask, ms = two_class_scene(20)
        noisy = ms.data + rng.normal(0, 0.02, ms.data.shape).astype(np.float32)
        ms = RasterGrid(ms.geometry, noisy)
        out = boundary_unmix(mask, ms, PostClassParams())
        assert np.array_equal(out.bits[:, :15], mask.bits[:, :15])
        assert np.array_equal(out.bits[:, 25:], mask.bits[:, 25:])

    def test_all_water_no_edges(self):
        geom = GridGeometry(10, 10, 1.0)
        mask = BinaryMask(geom, np.ones((10, 10), dtype=np.uint8))
        ms = RasterGrid(geom, np.full((4, 10, 10), 0.1, dtype=np.float32))
        out = boundary_unmix(mask, ms, PostClassParams())
        assert (out.bits == 1).all()

    def test_missing_endmember_leaves_pixel(self):
        # a narrow strip has no interior water anywhere in the window
        geom = GridGeometry(40, 9, 1.0, origin_y=9.0)
        bits = np.zeros((9, 40), dtype=np.uint8)
        bits[3:6, :] = 1  # 3-px ribbon, entirely within the 4-px boundary band
        spectra = np.full((4, 9, 40), 0.9, dtype=np.float32)
        spectra[:, 3:6, :] = 0.1
        out = boundary_unmix(BinaryMask(geom, bits),
                             RasterGrid(geom, spectra), PostClassParams())
        assert np.array_equal(out.bits, bits)

    def test_geometry_mismatch_rejected(self):
        mask, ms = two_class_scene(20)
        other = RasterGrid(GridGeometry(40, 40, 2.0, origin_y=80.0), ms.data)
        with pytest.raises(PostClassError):
            boundary_unmix(mask, other, PostClassParams())


class TestParams:
    def test_validation(self):
        with pytest.raises(PostClassError):
            PostClassParams(shadow_relabel_threshold=1.5)
        with pytest.raises(PostClassError):
            PostClassParams(boundary_band_px=0)
        with pytest.raises(PostClassError):
            PostClassParams(unmix_window_px=10)
