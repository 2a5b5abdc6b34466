import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage

from aquafuse.config import PipelineConfig
from aquafuse.raster import BinaryMask, GridGeometry, read_raster
from aquafuse.scene import SceneError, default_scene, generate_scene
from aquafuse.segmentation import SegmentMap, segment_table
from aquafuse.shadow import (
    OBJECT_KIND_HIGH_BUILDING,
    OBJECT_KIND_LOW_BUILDING,
    OBJECT_KIND_TREE,
    ShadowGeometry,
    building_intensity_map,
    classify_segments_majority,
    potential_shadow_mask,
    shift_or,
    sweep_offsets,
    sweep_union,
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

    @pytest.mark.parametrize("elevation", [0.0, 95.0])
    def test_elevation_outside_range_is_a_scene_rule(self, elevation):
        """The sun's range is checked by SceneSpec.validate, which names the
        ``sun`` entry, for a scene built in code as for a parsed one."""
        spec = dataclasses.replace(default_scene(), sun=ShadowGeometry(elevation, 180.0))
        with pytest.raises(SceneError, match=rf"^sun elevation must be in \(0, 90\], "
                                             rf"got {elevation}$") as info:
            spec.validate()
        assert info.value.entry == "sun"

    def test_mutated_elevation_stops_generate_scene(self):
        spec = default_scene()
        spec.sun.sun_elevation_deg = 0.0
        with pytest.raises(SceneError, match="sun elevation must be in") as info:
            generate_scene(spec)
        assert info.value.entry == "sun"


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
        out = building_intensity_map(np.ones((9, 9), dtype=bool), 3, 0.30)
        assert out.dtype == bool and out.all()

    def test_isolated_pixel_below_default_ratio(self):
        bits = np.zeros((9, 9), dtype=bool)
        bits[4, 4] = True
        out = building_intensity_map(bits, 3, 0.30)
        assert not out.any()  # best ratio is 1/9 < 0.30

    def test_threshold_is_strict(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[0, 0] = True  # corner window of a 3x3 filter covers 4 pixels: ratio 1/4
        assert not building_intensity_map(bits, 3, 0.25)[0, 0]
        assert building_intensity_map(bits, 3, 0.24)[0, 0]


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
        shift_or(acc, mask, origin[0] + drow, origin[1] + dcol)
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


SUNS = [(90.0, 0.0), (50.0, 180.0), (45.0, 45.0), (30.0, 90.0), (35.0, 120.0),
        (60.0, 240.0), (25.0, 330.0), (15.0, 10.0), (20.0, 225.0)]


def per_offset_union(acc, mask, offsets, origin=(0, 0)):
    """``shift_or`` of ``mask`` by every offset, one at a time."""
    for drow, dcol in offsets:
        shift_or(acc, mask, origin[0] + drow, origin[1] + dcol)
    return acc


class TestSweepUnion:
    def _check(self, mask, offsets, shape=(60, 70), origin=(20, 25)):
        """On an accumulator of ``shape`` with ``mask``'s top-left at
        ``origin``, the union placed at (top, left) equals every offset
        ORed in, and its box is the smallest that holds every shift."""
        union, top, left = sweep_union(mask, offsets)
        rows = [drow for drow, _ in offsets]
        cols = [dcol for _, dcol in offsets]
        assert (top, left) == (min(rows), min(cols))
        assert union.shape == (mask.shape[0] + max(rows) - top, mask.shape[1] + max(cols) - left)
        want = per_offset_union(np.zeros(shape, dtype=bool), mask, offsets, origin)
        got = np.zeros(shape, dtype=bool)
        shift_or(got, union, origin[0] + top, origin[1] + left)
        assert np.array_equal(got, want)
        return want

    @pytest.mark.parametrize("elevation,azimuth", SUNS)
    @pytest.mark.parametrize("pixel", [0.1, 0.8])
    def test_sun_rays(self, elevation, azimuth, pixel):
        """The offsets of a 0 to 3 m height sweep at three height steps: a
        fine one, whose runs hold many shifts, and coarser ones with gaps."""
        a, b = ShadowGeometry(elevation, azimuth).offset_coefficients()
        mask = np.random.default_rng(1).random((9, 7)) < 0.4
        for step in (0.01, 0.07, 0.3):
            offsets = sweep_offsets(a, b, np.minimum(np.arange(0.0, 3.0 + step, step), 3.0),
                                    pixel)
            if elevation == 90.0:
                assert offsets == [(0, 0)]
            self._check(mask, offsets, shape=(120, 120), origin=(55, 55))

    @pytest.mark.parametrize("seed", range(6))
    def test_arbitrary_offsets(self, seed):
        """Any set: runs broken by gaps along both axes, single offsets and
        repeated ones, in any order."""
        rng = np.random.default_rng(seed)
        mask = rng.random((5, 8)) < 0.5
        offsets = [tuple(int(v) for v in o) for o in rng.integers(-9, 10, size=(25, 2))]
        offsets += [(3, c) for c in range(-4, 5)] + [(r, -2) for r in range(0, 7)]
        offsets += offsets[:3]
        rng.shuffle(offsets)
        self._check(mask, offsets)

    def test_fully_off_the_grid(self):
        """Every shift leaves the accumulator: nothing is ORed in, whichever
        side it leaves by.  Shifted partly on, only the rows on it are."""
        mask = np.ones((4, 4), dtype=bool)
        ray = [(r, 0) for r in range(6)]
        for origin in [(-15, 3), (30, 3), (3, -15), (3, 30)]:
            assert not self._check(mask, ray, shape=(10, 10), origin=origin).any()
        assert self._check(mask, ray, shape=(10, 10), origin=(-7, 3)).sum() == 4 * 2

    def test_empty_mask(self):
        union, _, _ = sweep_union(np.zeros((3, 4), dtype=bool), [(0, 0), (1, 0), (5, 2)])
        assert union.shape == (8, 6) and not union.any()


class TestPotentialShadowMaskOnTheFixture:
    @pytest.mark.parametrize("elevation,azimuth", [(50.0, 180.0), (30.0, 90.0), (35.0, 120.0),
                                                   (60.0, 240.0), (25.0, 330.0)])
    def test_matches_per_offset_sweep(self, pipeline_dir, elevation, azimuth):
        """The fixture's object kinds under five suns, against the sweep of
        every height step ORed in one offset at a time."""
        kinds_raster = read_raster(pipeline_dir / "object_kinds.hdr")
        kinds = kinds_raster.data[0].astype(np.int32)
        cfg = PipelineConfig()
        heights = {OBJECT_KIND_HIGH_BUILDING: (cfg.height_high_min, cfg.height_high_max),
                   OBJECT_KIND_LOW_BUILDING: (cfg.height_low_min, cfg.height_low_max),
                   OBJECT_KIND_TREE: (cfg.height_tree_min, cfg.height_tree_max)}
        geom = ShadowGeometry(elevation, azimuth)
        grid = kinds_raster.geometry
        got = potential_shadow_mask(kinds, geom, heights, grid)

        r = grid.pixel_size
        a, b = geom.offset_coefficients()
        step = min(r * math.tan(math.radians(min(elevation, 89.0))), r / max(abs(a), abs(b), 1.0))
        want = np.zeros(kinds.shape, dtype=bool)
        for kind, (h_min, h_max) in heights.items():
            n_steps = max(1, int(math.ceil((h_max - h_min) / step)) + 1)
            sweep = np.minimum(h_min + step * np.arange(n_steps), h_max)
            per_offset_union(want, kinds == kind, sweep_offsets(a, b, sweep, r))
        assert set(np.unique(kinds)) >= {OBJECT_KIND_TREE, OBJECT_KIND_LOW_BUILDING}
        assert want.any()
        assert np.array_equal(got.bits, want)


class TestSegmentShadowProportion:
    def test_fractions(self):
        labels = np.array([[0, 0, 1, 1]], dtype=np.int32)
        geom = GridGeometry(4, 1, 1.0)
        segmap = SegmentMap(labels, segment_table(2), geom)
        segmap.records.pixel_count = [2, 2]
        bits = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        p_shadow = segmap.mean(BinaryMask(geom, bits).bits)
        assert p_shadow[0] == pytest.approx(0.5)
        assert p_shadow[1] == pytest.approx(1.0)
