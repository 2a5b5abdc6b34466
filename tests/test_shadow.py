import math

import numpy as np
import pytest
from scipy import ndimage

from aquafuse.raster import BinaryMask, GridGeometry, RasterError
from aquafuse.segmentation import SegmentMap, segment_table
from aquafuse.shadow import (
    OBJECT_KIND_HIGH_BUILDING,
    OBJECT_KIND_LOW_BUILDING,
    OBJECT_KIND_TREE,
    ShadowError,
    ShadowGeometry,
    building_intensity_map,
    classify_segments_majority,
    potential_shadow_mask,
    segment_shadow_proportion,
    shift_or,
    sweep_offsets,
    tree_grass_split,
)
from aquafuse.spectral import CLASS_ORDER


class TestShadowGeometry:
    def test_sun_north_casts_south(self):
        a, b = ShadowGeometry(45.0, 0.0).offset_coefficients()
        assert a == pytest.approx(0.0)
        assert b == pytest.approx(1.0)

    def test_sun_east_casts_west(self):
        a, b = ShadowGeometry(45.0, 90.0).offset_coefficients()
        assert a == pytest.approx(-1.0)
        assert b == pytest.approx(0.0, abs=1e-12)

    def test_sun_southwest_casts_northeast(self):
        a, b = ShadowGeometry(45.0, 225.0).offset_coefficients()
        assert a == pytest.approx(math.sqrt(0.5))
        assert b == pytest.approx(-math.sqrt(0.5))

    def test_length_scales_with_elevation(self):
        _, b30 = ShadowGeometry(30.0, 0.0).offset_coefficients()
        _, b60 = ShadowGeometry(60.0, 0.0).offset_coefficients()
        assert b30 == pytest.approx(1.0 / math.tan(math.radians(30.0)))
        assert b30 > b60 > 0

    def test_zenith_sun_no_offset(self):
        assert ShadowGeometry(90.0, 123.0).offset_coefficients() == (0.0, -0.0)

    def test_invalid_elevation(self):
        with pytest.raises(ShadowError):
            ShadowGeometry(0.0, 0.0)
        with pytest.raises(ShadowError):
            ShadowGeometry(95.0, 0.0)


def segmap_with(**columns):
    """One segment per value; each keyword fills that table column."""
    n = len(next(iter(columns.values())))
    table = segment_table(n)
    for name, values in columns.items():
        table[name] = values
    labels = np.arange(n, dtype=np.int32)[np.newaxis]
    return SegmentMap(labels, table, GridGeometry(n, 1, 1.0))


def votes(**counts):
    return [counts.get(c, 0) for c in CLASS_ORDER]


class TestMajorityVote:
    def test_plain_majority(self):
        segmap = segmap_with(votes=[votes(vegetation=2, water=5, soil=1)])
        out = classify_segments_majority(segmap)
        assert out.tolist() == ["water"]
        assert segmap.records.label[0] == "water"

    def test_tie_breaks_by_class_order(self):
        segmap = segmap_with(votes=[votes(soil=3, vegetation=3, water=1)])
        assert classify_segments_majority(segmap).tolist() == ["vegetation"]

    def test_missing_votes_rejected(self):
        with pytest.raises(ShadowError):
            classify_segments_majority(segmap_with(votes=[votes()]))


class TestTreeGrassSplit:
    def test_explicit_threshold_is_strict(self):
        segmap = segmap_with(label=["vegetation"] * 3, mp_std=[0.1, 0.5, 0.9])
        out = tree_grass_split(segmap, t_tree=0.5)
        assert out.tolist() == ["grass", "grass", "tree"]

    def test_non_vegetation_untouched(self):
        segmap = segmap_with(label=["water", "soil"])
        assert tree_grass_split(segmap, None).tolist() == ["water", "soil"]

    def test_derived_threshold_separates_modes(self):
        segmap = segmap_with(label=["vegetation"] * 6,
                             mp_std=[0.01, 0.02, 0.015, 0.8, 0.9, 0.85])
        out = tree_grass_split(segmap, None)
        assert out.tolist() == ["grass", "grass", "grass", "tree", "tree", "tree"]

    def test_constant_deviation_means_all_grass(self):
        segmap = segmap_with(label=["vegetation"] * 4, mp_std=[0.3] * 4)
        assert tree_grass_split(segmap, None).tolist() == ["grass"] * 4


class TestBuildingIntensity:
    def test_saturated_neighborhood(self):
        geom = GridGeometry(9, 9, 1.0)
        mask = BinaryMask(geom, np.ones((9, 9), dtype=np.uint8))
        out = building_intensity_map(mask, 3, 0.30)
        assert (out.bits == 1).all()

    def test_isolated_pixel_below_default_ratio(self):
        geom = GridGeometry(9, 9, 1.0)
        bits = np.zeros((9, 9), dtype=np.uint8)
        bits[4, 4] = 1
        out = building_intensity_map(BinaryMask(geom, bits), 3, 0.30)
        assert (out.bits == 0).all()  # best ratio is 1/9 < 0.30

    def test_threshold_is_strict(self):
        geom = GridGeometry(3, 3, 1.0)
        bits = np.zeros((3, 3), dtype=np.uint8)
        bits[0, 0] = 1  # corner window of a 3x3 filter covers 4 pixels: ratio 1/4
        out = building_intensity_map(BinaryMask(geom, bits), 3, 0.25)
        assert out.bits[0, 0] == 0
        out = building_intensity_map(BinaryMask(geom, bits), 3, 0.24)
        assert out.bits[0, 0] == 1

    def test_even_window_rejected(self):
        mask = BinaryMask(GridGeometry(9, 9, 1.0), np.ones((9, 9), dtype=np.uint8))
        with pytest.raises(RasterError, match="odd"):
            building_intensity_map(mask, 100, 0.30)


class TestPotentialShadowMask:
    def _grid(self, n=40, pixel_size=1.0):
        return GridGeometry(n, n, pixel_size, origin_y=n * pixel_size)

    def test_zenith_sun_shadows_under_object(self):
        grid = self._grid(10)
        kinds = np.zeros((10, 10), dtype=np.int32)
        kinds[3, 4] = OBJECT_KIND_TREE
        mask = potential_shadow_mask(kinds, ShadowGeometry(90.0, 0.0),
                                     {OBJECT_KIND_TREE: (3.0, 50.0)}, grid)
        assert mask.bits.sum() == 1
        assert mask.bits[3, 4] == 1

    def test_cardinal_ray_covers_height_range(self):
        # sun due south at 45 degrees: shadow marches one row north per meter
        grid = self._grid(20)
        kinds = np.zeros((20, 20), dtype=np.int32)
        kinds[15, 10] = OBJECT_KIND_HIGH_BUILDING
        mask = potential_shadow_mask(kinds, ShadowGeometry(45.0, 180.0),
                                     {OBJECT_KIND_HIGH_BUILDING: (3.0, 5.0)}, grid)
        expected = np.zeros((20, 20), dtype=np.uint8)
        expected[12, 10] = expected[11, 10] = expected[10, 10] = 1
        assert np.array_equal(mask.bits, expected)

    def test_out_of_bounds_dropped(self):
        grid = self._grid(6)
        kinds = np.zeros((6, 6), dtype=np.int32)
        kinds[0, 3] = OBJECT_KIND_TREE  # northern border, shadow cast north
        mask = potential_shadow_mask(kinds, ShadowGeometry(45.0, 180.0),
                                     {OBJECT_KIND_TREE: (3.0, 50.0)}, grid)
        assert mask.bits.sum() == 0

    def test_diagonal_ray_has_no_gaps(self):
        grid = self._grid(120)
        kinds = np.zeros((120, 120), dtype=np.int32)
        kinds[100, 10] = OBJECT_KIND_TREE
        geom = ShadowGeometry(20.0, 225.0)  # long shadow to the north-east
        mask = potential_shadow_mask(kinds, geom, {OBJECT_KIND_TREE: (3.0, 40.0)}, grid)
        assert mask.bits.sum() > 30
        _, n = ndimage.label(mask.bits, structure=np.ones((3, 3), dtype=bool))
        assert n == 1

    def test_kinds_use_their_own_ranges(self):
        grid = self._grid(80)
        kinds = np.zeros((80, 80), dtype=np.int32)
        kinds[70, 10] = OBJECT_KIND_HIGH_BUILDING
        kinds[70, 40] = OBJECT_KIND_LOW_BUILDING
        geom = ShadowGeometry(45.0, 180.0)
        heights = {OBJECT_KIND_HIGH_BUILDING: (3.0, 60.0), OBJECT_KIND_LOW_BUILDING: (3.0, 20.0)}
        mask = potential_shadow_mask(kinds, geom, heights, grid)
        high_len = mask.bits[:, 10].sum()
        low_len = mask.bits[:, 40].sum()
        assert high_len == 58  # rows 10..67 for heights 3..60
        assert low_len == 18   # rows 50..67 for heights 3..20

    def test_pixel_size_scales_offsets(self):
        # same scene at 2 m pixels: a 10 m shadow is 5 pixels, not 10
        grid = GridGeometry(30, 30, 2.0, origin_y=60.0)
        kinds = np.zeros((30, 30), dtype=np.int32)
        kinds[20, 15] = OBJECT_KIND_TREE
        mask = potential_shadow_mask(kinds, ShadowGeometry(45.0, 180.0),
                                     {OBJECT_KIND_TREE: (4.0, 10.0)}, grid)
        rows = np.flatnonzero(mask.bits[:, 15])
        assert rows.tolist() == [15, 16, 17, 18]  # offsets -2..-5


class TestShiftOr:
    @pytest.mark.parametrize("origin", [(0, 0), (3, 5), (8, 1)])
    @pytest.mark.parametrize("drow,dcol", [(0, 0), (-2, 3), (4, -6), (-12, 0), (0, 15), (9, 9)])
    def test_matches_pixel_by_pixel_shift(self, origin, drow, dcol):
        rng = np.random.default_rng(5)
        acc = rng.random((12, 14)) < 0.2
        mask = rng.random((4, 6)) < 0.5
        want = acc.copy()
        for r, c in zip(*np.nonzero(mask)):
            rr, cc = r + origin[0] + drow, c + origin[1] + dcol
            if 0 <= rr < acc.shape[0] and 0 <= cc < acc.shape[1]:
                want[rr, cc] = True
        shift_or(acc, mask, drow, dcol, origin=origin)
        assert np.array_equal(acc, want)


class TestSweepOffsets:
    @pytest.mark.parametrize("elevation,azimuth", [(45.0, 135.0), (35.0, 120.0),
                                                   (45.0, 300.0), (90.0, 0.0)])
    @pytest.mark.parametrize("pixel", [0.1, 0.8])
    def test_matches_per_height_rounding(self, elevation, azimuth, pixel):
        """One rounded-half-up (row, col) shift per height, duplicates
        dropped, in sorted order."""
        a, b = ShadowGeometry(elevation, azimuth).offset_coefficients()
        heights = np.minimum(3.0 + 0.07 * np.arange(400), 30.0)
        want = sorted({(math.floor(b * h / pixel + 0.5), math.floor(a * h / pixel + 0.5))
                       for h in heights})
        assert sweep_offsets(a, b, heights, pixel) == want


class TestSegmentShadowProportion:
    def test_fractions(self):
        labels = np.array([[0, 0, 1, 1]], dtype=np.int32)
        geom = GridGeometry(4, 1, 1.0)
        segmap = SegmentMap(labels, segment_table(2), geom)
        bits = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        out = segment_shadow_proportion(segmap, BinaryMask(geom, bits))
        assert out.records[0].p_shadow == pytest.approx(0.5)
        assert out.records[1].p_shadow == pytest.approx(1.0)
