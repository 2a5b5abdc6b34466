import dataclasses
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aquafuse.raster import BinaryMask, GridGeometry, RasterGrid
from aquafuse.scene import (
    DEFAULT_SCENE_TEXT,
    EVAL_CLASS_OF,
    LANDSAT_BANDS,
    LANDSAT_DAYS,
    LANDSAT_PIXEL_M,
    MS_BANDS,
    MS_PIXEL_M,
    NIR_GROUP,
    PAN_BANDS,
    PAN_PIXEL_M,
    SUPERSAMPLE_M,
    SURFACE_CLASSES,
    WATER_CLASSES,
    Feature,
    SceneBundle,
    SceneError,
    SceneSpec,
    _block_side,
    _cell_edges,
    _feature_box,
    _feature_mask,
    _paint,
    _pick_train_sites,
    _supersample_axes,
    default_scene,
    generate_scene,
    parse_scene,
)
from aquafuse.shadow import ShadowGeometry, shift_or
from aquafuse.spectral import landsat_water_index

ALL_BANDS = ("pan",) + tuple(LANDSAT_BANDS)


def spectrum_line(cls, values):
    return f"spectrum {cls} " + " ".join(f"{b}={v}" for b, v in zip(ALL_BANDS, values))


# a zero-noise, texture-free scene with one of everything, axis-aligned
SIMPLE_SCENE = "\n".join(
    [
        "extent 240 240",
        "sun 45 180",
        "shadow_factor 0.5",
        "shadow_factor_nir 0.7",
        "seed 3",
        "train_per_class 5",
        "noise pan 0",
        "noise ms 0",
        "noise landsat 0",
        #                     pan   coast blue  green red   nir   swir1 swir2
        spectrum_line("water", (0.05, 0.06, 0.06, 0.05, 0.04, 0.02, 0.01, 0.008)),
        spectrum_line("grass", (0.18, 0.04, 0.04, 0.08, 0.05, 0.50, 0.25, 0.15)),
        spectrum_line("tree", (0.18, 0.04, 0.04, 0.08, 0.05, 0.50, 0.25, 0.15)),
        spectrum_line("soil", (0.20, 0.14, 0.15, 0.18, 0.20, 0.30, 0.30, 0.30)),
        spectrum_line("impervious", (0.25, 0.24, 0.25, 0.25, 0.25, 0.25, 0.28, 0.22)),
        spectrum_line("asphalt", (0.06, 0.09, 0.09, 0.09, 0.09, 0.30, 0.25, 0.25)),
        spectrum_line("dark_field", (0.05, 0.10, 0.10, 0.085, 0.065, 0.03, 0.20, 0.20)),
        "feature grass rect 0 0 240 120",
        "feature river line 0 61.2 240 61.2 width 2.4",
        "feature lake rect 48 144 112 208",
        "feature dark_field rect 160 144 208 192",
        "feature building rect 120 16 136 32 height 20",
        "feature tree disk 200 40 8 height 10",
        "feature asphalt rect 160 60 180 80",
    ]
)


@pytest.fixture(scope="module")
def simple():
    spec = parse_scene(SIMPLE_SCENE)
    return spec, generate_scene(spec)


class TestParser:
    def test_directives(self):
        spec = parse_scene(SIMPLE_SCENE)
        assert spec.extent == (240.0, 240.0)
        assert spec.sun.sun_elevation_deg == 45.0
        assert spec.sun.sun_azimuth_deg == 180.0
        assert spec.shadow_factor == 0.5
        assert spec.shadow_factor_nir == 0.7
        assert spec.seed == 3
        assert spec.train_per_class == 5
        assert spec.noise == {"pan": 0.0, "ms": 0.0, "landsat": 0.0}
        assert spec.spectra["water"]["nir"] == 0.02

    def test_feature_aliases(self):
        spec = parse_scene(SIMPLE_SCENE)
        kinds = [f.kind for f in spec.features]
        # lake/river are painted as water, building as impervious
        assert kinds == ["grass", "water", "water", "dark_field",
                         "impervious", "tree", "asphalt"]
        river = spec.features[1]
        assert river.shape == "line" and river.width == 2.4
        building = spec.features[4]
        assert building.height == 20.0

    def test_comments_and_blank_lines(self):
        text = SIMPLE_SCENE.replace("seed 3", "seed 9 # trailing")
        spec = parse_scene("# leading comment\n\n" + text + "\n\n")
        assert spec.seed == 9

    def test_unknown_directive(self):
        with pytest.raises(SceneError):
            parse_scene(SIMPLE_SCENE + "\nfrobnicate 3")

    def test_unknown_feature_class(self):
        with pytest.raises(SceneError):
            parse_scene(SIMPLE_SCENE + "\nfeature lava rect 0 0 1 1")

    @pytest.mark.parametrize("line", [
        "texture lake 0.1 3.2",          # a feature alias, not a surface class
        "spectrum lake pan=0.05",
        "spectrum asphalt pan=0.06",     # a second asphalt spectrum
        "noise landsaat 0.01",
        "texture grass -0.1 3.2",
        "texture grass nan 3.2",
        "texture grass 0.1 0",
        "texture grass 0.1 -3.2",
        "texture grass 0.1 inf",
        "feature lake rect 0 0 inf 10",
        "feature building rect 0 0 10 10 height nan",
        "texture grass inf 3.2",
        "texture grass 0.08 3.2 99",
        "feature tree disk 30 22 7 height 14 height 40",
    ])
    def test_invalid_line_rejected(self, line):
        with pytest.raises(SceneError):
            parse_scene(SIMPLE_SCENE + "\n" + line)

    @pytest.mark.parametrize("field,value", [
        ("extent", (math.nan, 240.0)),
        ("shadow_factor", math.inf),
        ("noise", {"pan": math.nan}),
        ("textures", {"grass": (math.inf, 3.2)}),
        ("sun", ShadowGeometry(50.0, math.nan)),
        ("sun", ShadowGeometry(math.nan, 180.0)),
    ])
    def test_spec_built_in_code_must_be_finite(self, field, value):
        spec = parse_scene(DEFAULT_SCENE_TEXT)
        setattr(spec, field, value)
        with pytest.raises(SceneError, match="^'(nan|inf)' is not a finite number$"):
            spec.validate()

    def test_grammar_error_comes_before_a_non_finite_number(self):
        """Finiteness is a value rule, so it is checked once the whole scene
        is read: a later line's grammar error is the one reported."""
        text = SIMPLE_SCENE.replace("noise pan 0", "noise pan nan") + "\nfrobnicate 3\n"
        with pytest.raises(SceneError, match="'frobnicate 3': unknown directive"):
            parse_scene(text)

    @pytest.mark.parametrize("extra,message", [
        ("swir3=0.9", "unknown band 'swir3'"),    # a band no sensor has
        ("pan=0.5", "band 'pan' given twice"),
    ])
    def test_spectrum_band_rejected(self, extra, message):
        """Every class has its one spectrum line, so the bad band goes into
        the water line itself, which the error names."""
        water = spectrum_line("water", (0.05, 0.06, 0.06, 0.05, 0.04, 0.02, 0.01, 0.008))
        with pytest.raises(SceneError, match=rf"scene line \d+: 'spectrum water .*{message}"):
            parse_scene(SIMPLE_SCENE.replace(water, f"{water} {extra}"))

    @pytest.mark.parametrize("count", [1, 0, -1])
    def test_too_few_training_sites_rejected(self, count):
        with pytest.raises(SceneError, match="train_per_class must be >= 2"):
            parse_scene(SIMPLE_SCENE.replace("train_per_class 5", f"train_per_class {count}"))

    def test_sun_outside_range_rejected(self):
        with pytest.raises(SceneError, match="line 2"):
            parse_scene(SIMPLE_SCENE.replace("sun 45 180", "sun 0 180"))

    @pytest.mark.parametrize("line", [
        "extent 480 480",
        "sun 30 90",
        "shadow_factor 0.4",
        "shadow_factor_nir 0.6",
        "seed 4",
        "train_per_class 6",
        "noise ms 0.01",
        spectrum_line("water", (0.05, 0.06, 0.06, 0.05, 0.04, 0.02, 0.01, 0.008)),
    ])
    def test_repeated_directive_rejected(self, line):
        text = SIMPLE_SCENE + "\n" + line
        with pytest.raises(SceneError, match=f"line {text.count(chr(10)) + 1}: .* given twice"):
            parse_scene(text)

    def test_texture_repeated_for_a_class_rejected(self):
        text = SIMPLE_SCENE + "\ntexture grass 0.08 3.2\ntexture tree 0.2 0.8"
        parse_scene(text)
        with pytest.raises(SceneError, match="'texture grass' given twice"):
            parse_scene(text + "\ntexture grass 0.1 1.6")

    def test_repeated_feature_allowed(self):
        line = "feature asphalt rect 160 60 180 80"
        assert parse_scene(SIMPLE_SCENE + "\n" + line).features[-1] \
            == parse_scene(SIMPLE_SCENE).features[-1]

    def test_tree_needs_height(self):
        with pytest.raises(SceneError):
            parse_scene(SIMPLE_SCENE + "\nfeature tree disk 10 10 3")

    def test_disk_radius_must_not_be_negative(self):
        """A negative radius is rejected on its line, and by ``validate`` for
        a spec built in code; a radius of 0 is allowed."""
        with pytest.raises(SceneError, match=r"scene line \d+: .*disk radius must be >= 0"):
            parse_scene(SIMPLE_SCENE + "\nfeature tree disk 100 60 -5 height 10")
        spec = parse_scene(SIMPLE_SCENE + "\nfeature tree disk 100 60 0 height 10")
        spec.features.append(Feature("tree", "disk", (100.0, 60.0, -5.0), height=10.0))
        with pytest.raises(SceneError, match="disk radius must be >= 0, got -5.0"):
            spec.validate()

    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("features", [Feature("water", "line", (10.0, 10.0, 10.0, 10.0), width=2.0)],
         "line feature needs two distinct ends"),
    ])
    def test_spec_built_in_code_is_validated(self, field, value, message):
        """``validate`` holds the rules on values, so a spec built in code is
        checked by the same rules as a parsed one, before any rendering."""
        spec = dataclasses.replace(parse_scene(SIMPLE_SCENE), **{field: value})
        with pytest.raises(SceneError, match=message):
            generate_scene(spec)

    @pytest.mark.parametrize("shape,params,message", [
        ("square", (10.0, 10.0, 20.0, 20.0), "unknown shape 'square'"),
        ("rect", (10.0, 10.0, 20.0), "rect needs x0 y0 x1 y1"),
        ("disk", (10.0, 10.0, 2.0, 5.0), "disk needs cx cy radius"),
        ("line", (10.0, 10.0), "line needs x0 y0 x1 y1"),
        ("poly", (0.0, 0.0, 10.0, 0.0, 10.0), "poly needs at least 3 x y pairs"),
    ])
    def test_feature_shape_built_in_code_names_its_feature(self, shape, params, message):
        """A feature built in code with an unknown shape, or with a count of
        numbers its shape does not take, fails ``validate`` on its entry
        before any rendering."""
        spec = parse_scene(SIMPLE_SCENE)
        spec.features.insert(1, Feature("water", shape, params, width=1.0))
        with pytest.raises(SceneError, match=f"^{re.escape(message)}$") as info:
            generate_scene(spec)
        assert info.value.entry == "feature 1"

    def test_line_needs_width(self):
        with pytest.raises(SceneError):
            parse_scene(SIMPLE_SCENE + "\nfeature river line 0 5 10 5")

    def test_extent_must_nest_all_grids(self):
        # 100 m is not a whole number of 3.2 m or 30 m pixels
        with pytest.raises(SceneError):
            parse_scene(SIMPLE_SCENE.replace("extent 240 240", "extent 100 100"))

    def test_missing_spectrum_class(self):
        """A class with no spectrum line is a rule on the whole scene, so
        its error names no line."""
        text = "\n".join(line for line in SIMPLE_SCENE.splitlines()
                         if not line.startswith("spectrum asphalt"))
        with pytest.raises(SceneError, match="^spectral library misses class 'asphalt'$"):
            parse_scene(text)

    def test_fixture_is_the_default_scene(self):
        """The benchmark renders the fixture file, the CLI the constant."""
        fixture = Path(__file__).resolve().parents[1] / "fixtures" / "default_scene.txt"
        assert fixture.read_bytes() == DEFAULT_SCENE_TEXT.encode()

    def test_default_scene_parses(self):
        spec = default_scene()
        assert isinstance(spec, SceneSpec)
        assert spec.extent == (240.0, 240.0)


class TestRendering:
    def test_grid_shapes(self, simple):
        _, b = simple
        assert (b.pan.geometry.width, b.pan.geometry.height) == (300, 300)
        assert b.pan.geometry.pixel_size == 0.8
        assert (b.ms.geometry.width, b.ms.geometry.height) == (75, 75)
        assert len(b.landsat) == 7
        assert LANDSAT_DAYS == (16, 74, 135, 192, 230, 288, 340)
        assert all(r.geometry.width == 8 for r in b.landsat)
        assert b.ms.band_names == list(MS_BANDS)
        assert b.landsat[0].band_names == list(LANDSAT_BANDS)

    def test_pure_pixel_equals_library_spectrum(self, simple):
        spec, b = simple
        row, col = b.ms.geometry.locate(80.0, 176.0)  # lake interior
        got = b.ms.data[:, int(row), int(col)]
        want = [spec.spectra["water"][band] for band in MS_BANDS]
        assert np.array_equal(got, np.array(want, dtype=np.float32))

    def test_river_truth_ribbon_three_pan_pixels(self, simple):
        _, b = simple
        truth = b.truth.bits
        # the 2.4 m river at y [60.0, 62.4) is exactly rows 222..224
        for col in (10, 150, 290):
            rows = np.flatnonzero(truth[200:260, col]) + 200
            assert rows.tolist() == [222, 223, 224]

    def test_determinism(self, simple):
        spec, b = simple
        again = generate_scene(parse_scene(SIMPLE_SCENE))
        assert np.array_equal(b.pan.data, again.pan.data)
        assert np.array_equal(b.ms.data, again.ms.data)
        assert np.array_equal(b.landsat[3].data, again.landsat[3].data)
        assert np.array_equal(b.truth.bits, again.truth.bits)
        assert b.train_sites == again.train_sites

    def test_shadow_darkens_every_band(self, simple):
        spec, b = simple
        # building (120..136, 16..32, h=20) at sun elev 45, az 180 casts a
        # 20 m shadow due north: (128, 40) is shadowed grass, (128, 90) is lit
        sr, sc = (int(v) for v in b.pan.geometry.locate(128.0, 40.0))
        lr, lc = (int(v) for v in b.pan.geometry.locate(128.0, 90.0))
        assert b.shadow_truth.bits[sr, sc] == 1
        assert b.shadow_truth.bits[lr, lc] == 0
        assert b.pan.data[0, sr, sc] < b.pan.data[0, lr, lc]
        msr, msc = (int(v) for v in b.ms.geometry.locate(128.0, 40.0))
        mlr, mlc = (int(v) for v in b.ms.geometry.locate(128.0, 90.0))
        for bidx in range(b.ms.bands):
            assert b.ms.data[bidx, msr, msc] < b.ms.data[bidx, mlr, mlc]

    def test_shadow_factors_by_band_group(self, simple):
        spec, b = simple
        msr, msc = (int(v) for v in b.ms.geometry.locate(128.0, 40.0))
        grass = spec.spectra["grass"]
        want = np.array([grass["blue"] * 0.5, grass["green"] * 0.5,
                         grass["red"] * 0.5, grass["nir"] * 0.7], dtype=np.float32)
        assert np.allclose(b.ms.data[:, msr, msc], want, atol=1e-6)

    def test_building_itself_not_shadow(self, simple):
        _, b = simple
        br, bc = (int(v) for v in b.pan.geometry.locate(128.0, 24.0))
        assert b.shadow_truth.bits[br, bc] == 0

    def test_landsat_water_index_property(self, simple):
        spec, b = simple
        sample = b.landsat[0]
        wr, wc = (int(v) for v in sample.geometry.locate(75.0, 165.0))   # lake
        dr, dc = (int(v) for v in sample.geometry.locate(180.0, 165.0))  # film
        vis = [sample.band(n)[wr, wc] for n in ("blue", "green", "red")]
        swir = [sample.band(n)[wr, wc] for n in ("swir1", "swir2")]
        assert max(vis) > max(swir)
        vis = [sample.band(n)[dr, dc] for n in ("blue", "green", "red")]
        swir = [sample.band(n)[dr, dc] for n in ("swir1", "swir2")]
        assert max(vis) <= max(swir)

    def test_zero_noise_water_index_is_exact(self, simple):
        _, b = simple
        wi = landsat_water_index(b.landsat)
        wr, wc = (int(v) for v in wi.geometry.locate(75.0, 165.0))
        dr, dc = (int(v) for v in wi.geometry.locate(180.0, 165.0))
        assert wi.data[0, wr, wc] == 1.0   # 7 of 7 dates
        assert wi.data[0, dr, dc] == 0.0   # 0 of 7 dates

    def test_aligned_lake_truth_fraction_is_binary(self, simple):
        _, b = simple
        # lake edges sit on the 3.2 m grid, so every MS cell is all or nothing
        truth = b.truth.bits.astype(np.float64)
        blocks = truth.reshape(75, 4, 75, 4).mean(axis=(1, 3))
        lake_cols = slice(15, 35)
        lake_rows = slice(10, 30)  # y 144..208 -> rows (240-208)/3.2 .. (240-144)/3.2
        assert np.array_equal(np.unique(blocks[lake_rows, lake_cols]), [1.0])
        assert blocks[5, 20] == 0.0

    def test_class_truth_strata(self, simple):
        _, b = simple
        ct = b.class_truth.data[0].astype(int)
        assert set(np.unique(ct)) <= {0, 1, 2, 3}
        r, c = (int(v) for v in b.pan.geometry.locate(80.0, 176.0))
        assert ct[r, c] == 3     # water
        r, c = (int(v) for v in b.pan.geometry.locate(20.0, 100.0))
        assert ct[r, c] == 0     # grass
        r, c = (int(v) for v in b.pan.geometry.locate(128.0, 24.0))
        assert ct[r, c] == 2     # building
        r, c = (int(v) for v in b.pan.geometry.locate(170.0, 70.0))
        assert ct[r, c] == 2     # asphalt counts as impervious
        r, c = (int(v) for v in b.pan.geometry.locate(180.0, 165.0))
        assert ct[r, c] == 1     # dark film counts as soil
        r, c = (int(v) for v in b.pan.geometry.locate(20.0, 220.0))
        assert ct[r, c] == 1     # bare soil

    def test_train_sites_are_pure_and_unshadowed(self, simple):
        spec, b = simple
        strata = [s for s, _, _ in b.train_sites]
        for name in ("vegetation", "soil", "impervious", "water"):
            assert strata.count(name) == spec.train_per_class
        ct = b.class_truth.data[0].astype(int)
        codes = {"vegetation": 0, "soil": 1, "impervious": 2, "water": 3}
        for cls, x, y in b.train_sites:
            r, c = (int(v) for v in b.pan.geometry.locate(x, y))
            assert ct[r, c] == codes[cls]
            assert b.shadow_truth.bits[r, c] == 0

    def test_water_training_spectra_are_pure(self, simple):
        spec, b = simple
        want = np.array([spec.spectra["water"][band] for band in MS_BANDS],
                        dtype=np.float32)
        for cls, x, y in b.train_sites:
            if cls != "water":
                continue
            r, c = (int(v) for v in b.ms.geometry.locate(x, y))
            assert np.array_equal(b.ms.data[:, r, c], want)

    def test_too_many_train_sites_fails(self):
        text = SIMPLE_SCENE.replace("train_per_class 5", "train_per_class 100000")
        with pytest.raises(SceneError):
            generate_scene(parse_scene(text))

    def test_generate_peak_allocation_grows_less_than_the_area(self):
        """No supersample array of the whole grid is made.  The fixture's
        layout stacked four times (240 x 960 m) has 17.28 million more
        supersamples, and the traced peak grows by less than one byte for
        each: a single whole-grid int8 or bool array would add one.  Each
        peak also stays at most 9.6 and 17.2 MiB: 10% above 8.8 and 15.7 MiB,
        the peaks of the renderer that frees each strip's arrays before it
        paints the next strip and holds each cast shadow only while the
        strips it reaches are painted.  The renderer that held them all
        peaked at 11.6 and 17.2 MiB."""
        specs = (default_scene(), stacked(default_scene(), 4))
        peaks = []
        for spec in specs:
            tracemalloc.start()
            try:
                generate_scene(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        sizes = [math.prod(round(e / SUPERSAMPLE_M) for e in spec.extent) for spec in specs]
        assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) < 1.0
        assert peaks[0] <= 9.6 * 2 ** 20 and peaks[1] <= 17.2 * 2 ** 20


def stacked(spec, n):
    """``spec`` with its layout repeated ``n`` times, each copy north of the
    one before; the extent grows to match."""
    ex, ey = spec.extent
    features = []
    for i in range(n):
        for f in spec.features:
            params = list(f.params)
            ys = slice(1, 2) if f.shape == "disk" else slice(1, None, 2)
            params[ys] = [y + i * ey for y in params[ys]]
            features.append(dataclasses.replace(f, params=tuple(params)))
    return dataclasses.replace(spec, extent=(ex, n * ey), features=features)


# ---------------------------------------------------------------------------
# reference renderer: each band painted at the 0.1 m supersample grid as a
# float32 reflectance map and block-averaged in float64 into its sensor grid

def _ref_paint(spec, xs, ys):
    classes = np.full((ys.size, xs.size), SURFACE_CLASSES.index("soil"), dtype=np.int8)
    heights = np.zeros((ys.size, xs.size), dtype=np.float32)
    for f in spec.features:
        mask = _feature_mask(f, xs, ys)
        classes[mask] = SURFACE_CLASSES.index(f.kind)
        heights[mask] = f.height if f.kind in ("impervious", "tree") else 0.0
    return classes, heights


def _ref_shadows(spec, heights):
    a, b = spec.sun.offset_coefficients()
    shadow = np.zeros(heights.shape, dtype=bool)
    slope = max(abs(a), abs(b))
    for h in np.unique(heights):
        if h <= 0:
            continue
        footprint = heights == h
        step = SUPERSAMPLE_M / slope if slope > 0 else h
        n_steps = int(math.ceil(h / step)) + 1
        sweep = np.minimum(step * np.arange(n_steps), h)
        offsets = {
            (int(math.floor(b * hh / SUPERSAMPLE_M + 0.5)),
             int(math.floor(a * hh / SUPERSAMPLE_M + 0.5)))
            for hh in sweep
        }
        for drow, dcol in sorted(offsets):
            shift_or(shadow, footprint, drow, dcol)
    shadow &= heights == 0
    return shadow


def _ref_texture(spec, cls, shape, stream):
    sigma, cell_m = spec.textures[cls]
    factor = max(1, int(round(cell_m / SUPERSAMPLE_M)))
    ch = (shape[0] + factor - 1) // factor
    cw = (shape[1] + factor - 1) // factor
    rng = np.random.default_rng([spec.seed, 1000 + stream])
    cells = np.clip(1.0 + rng.normal(0.0, sigma, size=(ch, cw)), 0.2, None)
    field_ = np.repeat(np.repeat(cells, factor, axis=0), factor, axis=1)
    return field_[:shape[0], :shape[1]].astype(np.float32)


def _ref_block_mean(values, factor):
    h, w = values.shape
    return values.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def _ref_sensor(spec, classes, brightness, shadow, band_names, pixel_m,
                sensor, sensor_id, dates=1):
    ex, ey = spec.extent
    factor = int(round(pixel_m / SUPERSAMPLE_M))
    width, height = int(round(ex / pixel_m)), int(round(ey / pixel_m))
    geom = GridGeometry(width, height, pixel_m, origin_x=0.0, origin_y=ey)
    lut = np.array([[spec.spectra[cls][band] for cls in SURFACE_CLASSES]
                    for band in band_names], dtype=np.float32)
    sigma = spec.noise.get(sensor, 0.0)
    bands = np.empty((dates, len(band_names), height, width), dtype=np.float32)
    for bidx, band in enumerate(band_names):
        darken = spec.shadow_factor_nir if band in NIR_GROUP else spec.shadow_factor
        reflect = lut[bidx][classes] * brightness
        reflect[shadow] *= darken
        mean = _ref_block_mean(reflect.astype(np.float64), factor)
        for date_idx in range(dates):  # dates differ only by their noise
            pixels = mean
            if sigma > 0:
                rng = np.random.default_rng([spec.seed, sensor_id, bidx, date_idx])
                pixels = pixels + rng.normal(0.0, sigma, size=pixels.shape)
            bands[date_idx, bidx] = pixels.astype(np.float32)
    return [RasterGrid(geom, date_bands, list(band_names)) for date_bands in bands]


def reference_scene(spec):
    xs, ys = _supersample_axes(spec)
    classes, heights = _ref_paint(spec, xs, ys)
    shadow = _ref_shadows(spec, heights)
    brightness = np.ones(classes.shape, dtype=np.float32)
    for stream, cls in enumerate(sorted(spec.textures)):
        tex = _ref_texture(spec, cls, classes.shape, stream)
        sel = classes == SURFACE_CLASSES.index(cls)
        brightness[sel] = tex[sel]
    [pan] = _ref_sensor(spec, classes, brightness, shadow, PAN_BANDS, PAN_PIXEL_M, "pan", 1)
    [ms] = _ref_sensor(spec, classes, brightness, shadow, MS_BANDS, MS_PIXEL_M, "ms", 2)
    landsat = _ref_sensor(spec, classes, brightness, shadow, LANDSAT_BANDS, LANDSAT_PIXEL_M,
                          "landsat", 3, dates=len(LANDSAT_DAYS))
    factor = int(round(PAN_PIXEL_M / SUPERSAMPLE_M))
    water = np.isin(classes, [SURFACE_CLASSES.index(c) for c in WATER_CLASSES])
    truth_bits = _ref_block_mean(water.astype(np.float64), factor) > 0.5
    shadow_bits = _ref_block_mean(shadow.astype(np.float64), factor) > 0.5
    shares = np.stack([_ref_block_mean((classes == code).astype(np.float64), factor)
                       for code in range(len(SURFACE_CLASSES))])
    majority = np.argmax(shares, axis=0).astype(np.int8)  # smallest code wins ties
    strata = ("vegetation", "soil", "impervious", "water")
    stratum_of_code = np.array([strata.index(EVAL_CLASS_OF[c]) for c in SURFACE_CLASSES],
                               dtype=np.int8)
    class_truth = RasterGrid(pan.geometry,
                             stratum_of_code[majority].astype(np.float32)[np.newaxis],
                             ["class_index"])
    return SceneBundle(pan, ms, landsat,
                       BinaryMask(pan.geometry, truth_bits.astype(np.uint8)), class_truth,
                       BinaryMask(pan.geometry, shadow_bits.astype(np.uint8)),
                       _pick_train_sites(spec, majority, shadow_bits, pan.geometry))


EQUIVALENCE_SCENES = {
    "simple": SIMPLE_SCENE,
    "sun_35_120": SIMPLE_SCENE.replace("sun 45 180", "sun 35 120"),
    "sun_90_0": SIMPLE_SCENE.replace("sun 45 180", "sun 90 0"),
    # 0.5 m tree cells do not nest in the 0.8 m PAN grid, so cells of 1 to 5
    # supersamples appear; a poly building and a slanted river ride along so
    # that every shape is rendered, and a field whose edges halve PAN pixels
    # makes class-majority ties
    "texture_0.5m": SIMPLE_SCENE + "\n" + "\n".join([
        "texture grass 0.08 3.2",
        "texture tree 0.22 0.5",
        "texture water 0.1 3.2",
        "feature building poly 60 20 95 24 88 52 70 45 height 12",
        "feature river line 150 100 230 118 width 3.1",
        "feature asphalt rect 100.4 80.4 110 90",
    ]),
    "noise_landsat": SIMPLE_SCENE.replace("noise landsat 0", "noise landsat 0.01")
                                 .replace("noise ms 0", "noise ms 0.03"),
    # 3.0 m grass cells divide neither the 0.8 m nor the 3.2 m pixel
    "texture_3.0m": SIMPLE_SCENE + "\ntexture grass 0.08 3.0",
    # the renderer works one 30 m row strip at a time, whose edges lie at
    # y = 30, 60, ..., 210 m: a 30 m building under a 15 degree sun casts a
    # 112 m shadow into the four strips past its own, to the north and then
    # to the south
    "low_sun_north": SIMPLE_SCENE.replace("sun 45 180", "sun 15 180")
                     + "\nfeature building rect 90 12 100 24 height 30",
    "low_sun_south": SIMPLE_SCENE.replace("sun 45 180", "sun 15 0")
                     + "\nfeature building rect 90 200 100 212 height 30",
    # two overlapping trees of one height are one footprint; a shorter tree
    # over a taller one and a flat feature over a building each take pixels
    # from the object painted before them; the building straddles the strip
    # edge at y = 90 m
    "overlaps": SIMPLE_SCENE + "\n" + "\n".join([
        "feature tree disk 30 100 8 height 10",
        "feature tree disk 38 104 8 height 10",
        "feature tree disk 60 100 8 height 16",
        "feature tree disk 70 102 6 height 9",
        "feature building rect 180 85 190 96 height 12",
        "feature asphalt rect 186 88 196 92",
    ]),
    # a building in the north-west corner whose shadow leaves the grid to
    # the north and west, and a tree cut by the east edge
    "edge_shadows": SIMPLE_SCENE.replace("sun 45 180", "sun 30 135") + "\n" + "\n".join([
        "feature building rect 0 226 12 240 height 25",
        "feature tree disk 238 150 6 height 15",
    ]),
}


def test_equivalence_scenes_cover_every_block_side():
    """The renderer counts uniform 4 x 4 and 2 x 2 blocks of supersamples
    once, mixed ones per supersample, and every supersample when the cells'
    edges share no factor of 2.  EQUIVALENCE_SCENES has a scene of each, so
    test_matches_reference_renderer checks all three paths."""
    sides = set()
    for text in EQUIVALENCE_SCENES.values():
        spec = parse_scene(text)
        xs, ys = _supersample_axes(spec)
        sides.add(_block_side((_cell_edges(spec, ys.size), _cell_edges(spec, xs.size))))
    assert sides == {1, 2, 4}


def _painted(f, xs, ys, rows, cols):
    """``_paint`` of ``f`` over the part ``(rows, cols)`` of the grid."""
    out = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=bool)
    _paint(out, rows, cols, f, _feature_box(f, xs, ys), True, xs, ys)
    return out


def _random_features(rng, ex, ey, n):
    """Seeded rects and lines over an ``ex`` x ``ey`` m grid, partly outside
    it: edges on supersample centres and between them, horizontal, vertical
    and steep lines, and widths under one supersample."""
    def coord(extent):
        value = rng.uniform(-5.0, extent + 5.0)
        if rng.random() < 0.5:  # on a supersample centre
            value = (math.floor(value / SUPERSAMPLE_M) + 0.5) * SUPERSAMPLE_M
        return value

    for i in range(n):
        x0, x1, y0, y1 = coord(ex), coord(ex), coord(ey), coord(ey)
        if i % 2 == 0:
            yield Feature("water", "rect", (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)))
            continue
        kind = i // 2 % 4
        if kind == 0:
            y1 = y0  # horizontal
        elif kind == 1:
            x1 = x0  # vertical
        elif kind == 2:
            x1 = x0 + rng.uniform(-0.5, 0.5)  # steep
        width = rng.choice([0.05, 0.09, rng.uniform(0.1, 4.0)])
        yield Feature("water", "line", (x0, y0, x1, y1), width=width)


def test_rects_and_lines_paint_their_mask():
    """A rect painted as one slice, and a line painted through its 30 m
    column windows, cover exactly the pixels of ``_feature_mask``, over the
    whole grid and over any part of it."""
    rng = np.random.default_rng(11)
    spec = dataclasses.replace(default_scene(), extent=(36.0, 24.0))
    xs, ys = _supersample_axes(spec)
    for f in _random_features(rng, *spec.extent, 400):
        whole = (slice(0, ys.size), slice(0, xs.size))
        assert np.array_equal(_painted(f, xs, ys, *whole), _feature_mask(f, xs, ys)), f
        r0, r1 = sorted(rng.integers(0, ys.size + 1, 2))
        c0, c1 = sorted(rng.integers(0, xs.size + 1, 2))
        part = (slice(int(r0), int(r1)), slice(int(c0), int(c1)))
        want = _feature_mask(f, xs, ys)[part]
        assert np.array_equal(_painted(f, xs, ys, *part), want), (f, part)


def test_cells_cut_only_at_pixel_and_texture_edges():
    """The default scene's textures (0.8 and 3.2 m) nest in the PAN grid, so
    an axis of 2400 supersamples has the PAN grid's 301 edges plus the four
    30 m edges (30, 90, 150 and 210 m) that halve a PAN pixel.  No cell is
    wider than a PAN pixel, so its uint8 counts hold at most 64."""
    edges = _cell_edges(default_scene(), 2400)
    assert edges.size == 305
    assert np.array_equal(edges[edges % 8 != 0], [300, 900, 1500, 2100])
    side = round(PAN_PIXEL_M / SUPERSAMPLE_M)
    for text in [DEFAULT_SCENE_TEXT, *EQUIVALENCE_SCENES.values()]:
        assert np.diff(_cell_edges(parse_scene(text), 2400)).max() <= side


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SCENES))
def test_matches_reference_renderer(name):
    spec = parse_scene(EQUIVALENCE_SCENES[name])
    got, want = generate_scene(spec), reference_scene(spec)
    for g, w in [(got.pan, want.pan), (got.ms, want.ms)] + list(zip(got.landsat, want.landsat)):
        assert g.geometry == w.geometry and g.band_names == w.band_names
        assert np.array_equal(g.data, w.data)
    assert len(got.landsat) == len(want.landsat) == len(LANDSAT_DAYS)
    assert np.array_equal(got.truth.bits, want.truth.bits)
    assert np.array_equal(got.class_truth.data, want.class_truth.data)
    assert np.array_equal(got.shadow_truth.bits, want.shadow_truth.bits)
    assert got.train_sites == want.train_sites
