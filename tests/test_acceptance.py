"""End-to-end acceptance checks for the fusion pipeline.

Each test class covers one criterion: exact metric arithmetic on published
confusion matrices, the fusion model against a brute-force joint-probability
oracle, the two flagship synthetic cases (a sub-MS-resolution river and a
dark-film field), accuracy ordering across the comparison methods, shadow
coverage, morphology/clustering invariants, the water-index identity, and
bit-level determinism of the whole pipeline.
"""

import filecmp
import shutil

import numpy as np
import pytest

import aquafuse.segmentation as segmentation
from aquafuse import cli
from aquafuse.config import PipelineConfig
from aquafuse.evaluate import ConfusionMatrix, accuracy_metrics
from aquafuse.fusion import FusionParams, fuse_pm, fuse_w
from aquafuse.raster import GridGeometry, RasterGrid, read_mask, read_raster, write_raster
from aquafuse.segmentation import kmeans_segment, morphological_profiles
from aquafuse.shadow import ShadowGeometry
from aquafuse.spectral import landsat_water_index
from test_fusion import PARAMS, cpd_pm, cpd_w


def report_metrics(out, stem):
    """Parse the machine line `pa=..,ua=..,oa=..` of a written report."""
    line = (out / f"report_{stem}.txt").read_text().strip().splitlines()[-1]
    return {k: float(v) for k, v in (part.split("=") for part in line.split(","))}


def load_pipeline(out):
    """Segments + per-segment fusion results of a finished pipeline run."""
    segmap = segmentation.load_segment_stats(out / "segment_table.npy",
                                             read_raster(out / "segments.hdr"))
    return segmap, segmap.records.p_w, segmap.records.water


def scene_config(tmp_path, old, new):
    """A config whose scene is the bundled one with the line ``old`` replaced
    by ``new``."""
    text = cli.DEFAULT_SCENE_TEXT
    assert old in text
    scene = tmp_path / "scene.txt"
    scene.write_text(text.replace(old, new))
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"scene = {scene}\n")
    return cfg


def whole_map_accuracy(out, stem):
    """Share of all pixels of the map ``stem`` that match ``truth``, in %."""
    truth = read_mask(out / "truth.hdr").bits
    return 100.0 * float(np.mean(read_mask(out / f"{stem}.hdr").bits == truth))


def map_coordinates(geometry):
    """(Y, X) map-coordinate grids of all pixel centers."""
    g = geometry
    xs = g.origin_x + (np.arange(g.width) + 0.5) * g.pixel_size
    ys = g.origin_y - (np.arange(g.height) + 0.5) * g.pixel_size
    return np.meshgrid(ys, xs, indexing="ij")


class TestMetricFidelity:
    """Published water/non-water confusion matrices, layout
    (non-water row: nn, nw; water row: wn, ww), 600 samples each."""

    TABLES = [
        ((299, 2, 69, 230), (99.1, 76.9, 88.2)),    # pixel-based sharpened baseline
        ((249, 0, 119, 232), (100.0, 66.1, 80.2)),  # object-based PAN threshold
        ((339, 12, 29, 220), (94.8, 88.4, 93.2)),   # object-based MS
        ((361, 33, 7, 199), (85.8, 96.6, 93.3)),    # object-based Landsat
        ((341, 8, 27, 224), (96.6, 89.2, 94.2)),    # graphical-model fusion
        ((350, 7, 18, 225), (97.0, 92.6, 95.8)),    # after post-classification
    ]

    @pytest.mark.parametrize("counts,expected", TABLES)
    def test_published_tables(self, counts, expected):
        nn, nw, wn, ww = counts
        matrix = ConfusionMatrix(np.array([[nn, nw], [wn, ww]], dtype=np.int64))
        assert accuracy_metrics(matrix).rounded() == expected

    def test_worked_example(self):
        matrix = ConfusionMatrix(np.array([[341, 8], [27, 224]], dtype=np.int64))
        rep = accuracy_metrics(matrix)
        assert rep.pa == pytest.approx(100.0 * 224 / 232)
        assert rep.ua == pytest.approx(100.0 * 224 / 251)
        assert rep.oa == pytest.approx(100.0 * 565 / 600)


class TestFusionModel:
    """The two-stage fusion against a full joint-distribution enumeration."""

    @staticmethod
    def joint_oracle(p_pan, p_ms, p_lan, w, p_shadow, params):
        total = 0.0
        for pan in (False, True):
            pa = p_pan if pan else 1.0 - p_pan
            for ms in (False, True):
                pb = p_ms if ms else 1.0 - p_ms
                for lan in (False, True):
                    pc = p_lan if lan else 1.0 - p_lan
                    for pm in (False, True):
                        total += (pa * pb * pc
                                  * cpd_pm(pm, pan, ms, w, p_shadow, params)
                                  * cpd_w(True, pm, lan, w, params))
        return total

    def test_matches_joint_enumeration(self):
        params = PARAMS
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            p_pan, p_ms, p_lan, p_shadow = rng.random(4)
            w = 0.1 + rng.random() * 499.9
            staged = fuse_w(fuse_pm(p_pan, p_ms, w, p_shadow, params), p_lan, w, params)
            oracle = self.joint_oracle(p_pan, p_ms, p_lan, w, p_shadow, params)
            assert staged == pytest.approx(oracle, abs=1e-12)

    def test_cpd_rows_sum_to_one_exactly(self):
        params = PARAMS
        rng = np.random.default_rng(7)
        for _ in range(200):
            w = 0.1 + rng.random() * 499.9
            p_shadow = rng.random()
            for first in (False, True):
                for second in (False, True):
                    assert (cpd_pm(False, first, second, w, p_shadow, params)
                            + cpd_pm(True, first, second, w, p_shadow, params)) == 1.0
                    assert (cpd_w(False, first, second, w, params)
                            + cpd_w(True, first, second, w, params)) == 1.0

    def test_consensus_fixed_point(self):
        params = PARAMS
        for p in np.linspace(0.0, 1.0, 101):
            for w in (0.5, 5.0, 29.9, 30.0, 300.0):
                assert fuse_pm(p, p, w, 0.5, params) == pytest.approx(p, abs=1e-12)
                assert fuse_w(p, p, w, params) == pytest.approx(p, abs=1e-12)

    def test_worked_values(self):
        # frozen by direct enumeration of the two-state joint distribution
        params = FusionParams(n1=2, n2=1, r_ms=3.2, r_l=30.0, decision_threshold=0.5)
        assert fuse_pm(0.9, 0.1, 3.2, 0.0, params) == pytest.approx(0.450258799291, abs=1e-6)
        assert fuse_w(0.9, 0.1, 60.0, params) == pytest.approx(0.195362337618, abs=1e-6)
        # below the Landsat scale the first-stage probability passes through
        assert fuse_w(0.9, 0.1, 15.0, params) == 0.9


class TestSmallRiver:
    """A 2.4 m river (below the 3.2 m MS resolution): the MS-only decision is
    non-water but the fused decision recovers it, within the runtime budget."""

    def test_river_recovered_from_pan(self, pipeline_dir):
        segmap, _, flags = load_pipeline(pipeline_dir)
        truth = read_mask(pipeline_dir / "truth.hdr").bits.astype(bool)
        Y, X = map_coordinates(segmap.geometry)
        lake = (X >= 48) & (X < 144) & (Y >= 121.6) & (Y < 217.6)
        river = truth & ~lake
        labels = segmap.labels

        # channel segments: essentially contained in the river and larger
        # than boundary slivers
        candidates = []
        for seg_id in np.unique(labels[river]):
            rec = segmap.records[seg_id]
            inside = int(((labels == seg_id) & river).sum())
            if rec.pixel_count >= 10 and inside / rec.pixel_count >= 0.9:
                candidates.append(seg_id)
        assert candidates

        covered = sum(int(((labels == s) & river).sum()) for s in candidates)
        assert covered / river.sum() >= 0.9
        for seg_id in candidates:
            assert segmap.records[seg_id].p_ms < 0.5
        water = sum(bool(flags[s]) for s in candidates)
        assert water / len(candidates) >= 0.9

    def test_runtime_budget(self, pipeline_repeat):
        _, seconds = pipeline_repeat
        # full pipeline on the bundled 300x300-PAN scene; well under a minute
        assert seconds < 60.0


class TestDarkField:
    """A low-reflectance film-covered field: water by the PAN threshold and
    the MS classifier, vetoed by the multi-date SWIR evidence."""

    def test_field_vetoed_by_landsat(self, pipeline_dir):
        segmap, _, flags = load_pipeline(pipeline_dir)
        Y, X = map_coordinates(segmap.geometry)
        field = (X >= 176) & (X < 224) & (Y >= 160) & (Y < 208)
        labels = segmap.labels

        candidates = []
        for seg_id in np.unique(labels[field]):
            rec = segmap.records[seg_id]
            inside = int(((labels == seg_id) & field).sum())
            if rec.pixel_count >= 100 and inside / rec.pixel_count >= 0.9:
                candidates.append(seg_id)
        assert candidates
        for seg_id in candidates:
            rec = segmap.records[seg_id]
            assert rec.p_pan > 0.5      # PAN threshold path calls it water
            assert rec.p_ms > 0.5       # MS classifier path calls it water
            assert rec.p_lan <= 0.5     # multi-date index disagrees
            assert not flags[seg_id]    # and the fused decision rejects it


class TestAccuracyOrdering:
    """600 stratified validation samples on the bundled scene."""

    def test_fusion_beats_single_sources(self, pipeline_dir):
        oa = {stem: report_metrics(pipeline_dir, stem)["oa"]
              for stem in ("pgm_water", "ms_water", "pca_water", "pan_water")}
        assert oa["pgm_water"] > oa["ms_water"]
        assert oa["ms_water"] > oa["pca_water"]
        assert oa["pgm_water"] > oa["pan_water"]
        assert oa["pgm_water"] >= 95.0

    def test_postclassification_improves_ua(self, pipeline_dir):
        before = report_metrics(pipeline_dir, "pgm_water")
        after = report_metrics(pipeline_dir, "water_final")
        assert after["ua"] > before["ua"]
        assert after["pa"] >= before["pa"]

    def test_final_map_is_fused_map_without_shadowed_segments(self, tmp_path):
        """On a 40 m lake, post-classification clears exactly the water
        segments whose shadow share exceeds the relabel threshold."""
        text = cli.DEFAULT_SCENE_TEXT
        assert "feature lake rect 48 121.6 144 217.6\n" in text
        scene = tmp_path / "scene.txt"
        scene.write_text(text.replace("feature lake rect 48 121.6 144 217.6\n",
                                      "feature lake rect 48 121.6 88 217.6\n"))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        out = tmp_path / "out"
        assert cli.main(["run-all", "--config", str(cfg), "--out", str(out)]) == 0
        segmap, _, _ = load_pipeline(out)
        shadowed = segmap.records.p_shadow > PipelineConfig().shadow_relabel_threshold
        pgm = read_mask(out / "pgm_water.hdr").bits.astype(bool)
        final = read_mask(out / "water_final.hdr").bits.astype(bool)
        assert shadowed[segmap.labels][pgm].any()
        assert np.array_equal(final, pgm & ~shadowed[segmap.labels])


class TestShadowGeometryCoverage:
    def test_predicted_shadow_covers_rendered_shadow(self, pipeline_dir):
        predicted = read_mask(pipeline_dir / "potential_shadow.hdr").bits.astype(bool)
        rendered = read_mask(pipeline_dir / "shadow_truth.hdr").bits.astype(bool)
        assert rendered.sum() > 0
        assert (predicted & rendered).sum() / rendered.sum() >= 0.95

    def test_sun_is_read_from_the_scene(self, tmp_path):
        """A sun other than the default must reach the same coverage bar with
        a config that sets nothing but the scene."""
        scene = tmp_path / "scene.txt"
        text = cli.DEFAULT_SCENE_TEXT
        assert "sun 50 180\n" in text
        scene.write_text(text.replace("sun 50 180\n", "sun 35 120\n"))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        out = tmp_path / "out"
        assert cli.main(["run-all", "--config", str(cfg), "--out", str(out)]) == 0
        predicted = read_mask(out / "potential_shadow.hdr").bits.astype(bool)
        rendered = read_mask(out / "shadow_truth.hdr").bits.astype(bool)
        assert rendered.sum() > 0
        assert (predicted & rendered).sum() / rendered.sum() >= 0.95

    @pytest.mark.parametrize("seed", [0, 1])
    def test_buildings_shadow_with_sun_in_the_northwest(self, tmp_path, seed):
        """With ``sun 45 300`` the buildings must be found as buildings at
        every pipeline seed, so their shadow is predicted and its false
        water is cleared."""
        cfg = scene_config(tmp_path, "sun 50 180\n", "sun 45 300\n")
        out = tmp_path / "out"
        assert cli.main(["run-all", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(out)]) == 0
        predicted = read_mask(out / "potential_shadow.hdr").bits.astype(bool)
        rendered = read_mask(out / "shadow_truth.hdr").bits.astype(bool)
        assert (predicted & rendered).sum() / rendered.sum() >= 0.95
        assert whole_map_accuracy(out, "water_final") >= whole_map_accuracy(out, "pgm_water")

    def test_analytic_offset_coefficients(self):
        # sun due south at 45 degrees: unit-length shadow due north
        a, b = ShadowGeometry(45.0, 180.0).offset_coefficients()
        assert a == pytest.approx(0.0, abs=1e-12)
        assert b == pytest.approx(-1.0, abs=1e-12)
        # sun due east: shadow toward the west (negative column)
        a, b = ShadowGeometry(45.0, 90.0).offset_coefficients()
        assert a == pytest.approx(-1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)
        # sun at zenith: no shadow displacement at all
        assert ShadowGeometry(90.0, 123.0).offset_coefficients() == (0.0, 0.0)


def make_pan(image):
    image = np.asarray(image, dtype=np.float32)
    geometry = GridGeometry(width=image.shape[1], height=image.shape[0],
                            pixel_size=0.8, origin_x=0.0,
                            origin_y=image.shape[0] * 0.8)
    return RasterGrid(geometry, image[np.newaxis], ["pan"])


class TestMorphologyAndClustering:
    def test_opening_below_input_below_closing(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pan = make_pan(rng.random((16, 16)))
            mps = morphological_profiles(pan)
            for name in mps.band_names:
                band = mps.band(name)
                if name.startswith("open"):
                    assert np.all(band <= pan.data[0])
                else:
                    assert np.all(band >= pan.data[0])

    def test_opening_closing_idempotent(self):
        rng = np.random.default_rng(12)
        pan = make_pan(rng.random((24, 24)))
        mps = morphological_profiles(pan)
        for name in mps.band_names:
            again = morphological_profiles(
                RasterGrid(pan.geometry, mps.band(name)[np.newaxis], ["pan"]))
            assert np.array_equal(again.band(name), mps.band(name))

    def test_kmeans_objective_non_increasing(self, monkeypatch):
        def objective(features, assign, centers):
            return float(np.sum((features - centers[assign]) ** 2))

        for trial in range(8):
            rng = np.random.default_rng(trial)
            features = np.concatenate(
                [rng.normal(c, 0.4, size=(60, 3)) for c in (0.0, 3.0, 6.0)])
            start = features[rng.choice(len(features), 3, replace=False)]
            previous = None
            for max_iter in range(1, 13):
                monkeypatch.setattr(segmentation, "KMEANS_MAX_ITER", max_iter)
                assign, centers, _, _ = segmentation._lloyd(features, start)
                value = objective(features, assign, centers)
                if previous is not None:
                    assert value <= previous + 1e-9
                previous = value

    def test_partition_completeness(self):
        rng = np.random.default_rng(13)
        pan = make_pan(rng.random((32, 32)))
        segmap = kmeans_segment(pan, morphological_profiles(pan), k=5)
        assert sum(r.pixel_count for r in segmap.records) == 32 * 32
        assert np.array_equal(np.unique(segmap.labels),
                              np.arange(len(segmap.records)))


class TestSeedFreeSegmentation:
    """The segments depend on the image alone: the pipeline seed drives only
    the validation sampling."""

    def test_pipeline_seed_leaves_segments_unchanged(self, pipeline_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for seed in range(1, 10):
            assert cli.main(["segment", "--seed", str(seed), "--out", str(out)]) == 0
            for name in ("segments.hdr", "segments.bin", "kmeans.txt"):
                assert (out / name).read_bytes() == (pipeline_dir / name).read_bytes(), \
                    (seed, name)

    # objective 23160.5 is the bad minimum that a seeded start reached on the
    # bundled scene; the bundled scene's own objective is pinned in
    # test_segmentation
    @pytest.mark.parametrize("old,new,objective", [
        ("feature lake rect 48 121.6 144 217.6\n", "feature lake rect 48 121.6 78 217.6\n",
         21709.3),
        ("sun 50 180\n", "sun 45 300\n", 14560.8),
        ("seed 7\n", "seed 9002\n", 14864.3),
    ], ids=["lake-30m", "sun-45-300", "scene-seed-9002"])
    def test_objective_on_other_scenes(self, tmp_path, old, new, objective):
        cfg = scene_config(tmp_path, old, new)
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        pan = read_raster(tmp_path / "pan.hdr")
        segmap = kmeans_segment(pan, morphological_profiles(pan),
                                k=PipelineConfig().kmeans_k)
        assert segmap.kmeans_objective == pytest.approx(objective, abs=0.1)
        assert segmap.kmeans_objective < 23160.5


class TestWaterIndex:
    def test_zero_noise_index_is_exact_date_fraction(self, pipeline_dir):
        stack = [read_raster(pipeline_dir / f"{stem}.hdr")
                 for stem in sorted(p.stem for p in pipeline_dir.glob("landsat_d*.hdr"))]
        wi = landsat_water_index(stack).data[0]
        h, w = wi.shape
        for row in range(h):
            for col in range(w):
                k = 0
                for raster in stack:
                    vis = max(raster.band(b)[row, col] for b in ("blue", "green", "red"))
                    swir = max(raster.band(b)[row, col] for b in ("swir1", "swir2"))
                    k += int(vis > swir)
                assert wi[row, col] == np.float32(k / len(stack))

    def test_monotone_under_swir_inflation(self):
        rng = np.random.default_rng(21)
        geometry = GridGeometry(width=12, height=12, pixel_size=30.0,
                                origin_x=0.0, origin_y=360.0)
        names = ["coastal", "blue", "green", "red", "nir", "swir1", "swir2"]
        for _ in range(20):
            stack = [RasterGrid(geometry, rng.random((7, 12, 12)).astype(np.float32), names)
                     for _ in range(5)]
            base = landsat_water_index(stack).data[0]
            inflated = []
            for raster in stack:
                data = raster.data.copy()
                data[5:] += rng.random((2, 12, 12)).astype(np.float32) * 0.5
                inflated.append(RasterGrid(geometry, data, names))
            assert np.all(landsat_water_index(inflated).data[0] <= base)


class TestDeterminismAndFormat:
    def test_run_all_twice_is_byte_identical(self, pipeline_dir, pipeline_repeat):
        repeat_dir, _ = pipeline_repeat
        names = sorted(p.name for p in pipeline_dir.iterdir())
        assert names == sorted(p.name for p in repeat_dir.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            pipeline_dir, repeat_dir, names, shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == names

    def test_raster_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        geometry = GridGeometry(width=17, height=9, pixel_size=3.2,
                                origin_x=12.8, origin_y=640.0)
        data = rng.standard_normal((3, 9, 17)).astype(np.float32)
        raster = RasterGrid(geometry, data, ["a", "b", "c"])
        write_raster(raster, tmp_path / "trip.hdr")
        back = read_raster(tmp_path / "trip.hdr")
        assert back.geometry == raster.geometry
        assert back.band_names == raster.band_names
        assert np.array_equal(back.data, raster.data)
        assert back.data.dtype == np.float32
