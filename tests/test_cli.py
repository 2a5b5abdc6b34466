import filecmp
import shutil
from dataclasses import replace

import numpy as np
import pytest

from aquafuse import cli, segmentation
from aquafuse.config import ConfigError, PipelineConfig, format_config, load_config, parse_config
from aquafuse.raster import RasterGrid, read_mask, read_raster, write_raster


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.seed == 0
        assert cfg.kmeans_k == 8
        assert cfg.t_pan is None
        assert cfg.decision_threshold == 0.5
        assert cfg.eval_water == 300

    def test_parse_assignments(self):
        cfg = parse_config("seed = 5\nkmeans_k=12\nt_pan = 0.11  # comment\n\n")
        assert cfg.seed == 5
        assert cfg.kmeans_k == 12
        assert cfg.t_pan == 0.11

    def test_auto_keyword(self):
        cfg = parse_config("t_pan = auto\nt_tree = auto\n")
        assert cfg.t_pan is None
        assert cfg.t_tree is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\nbogus_knob = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = lots\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 3: key 'kmeans_k' given twice"):
            parse_config("kmeans_k = 4\nseed = 1\nkmeans_k = 12\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("just some words\n")

    def test_format_parse_round_trip(self):
        cfg = PipelineConfig(seed=4, t_pan=0.2, kmeans_k=6, scene="x.txt")
        assert parse_config(format_config(cfg)) == cfg

    def test_rules_hold_for_a_config_built_in_code(self):
        with pytest.raises(ConfigError, match="n1 must be >= 1"):
            PipelineConfig(n1=0)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            replace(PipelineConfig(), seed=-1)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")


class TestExitCodes:
    def test_bad_config_path_is_config_error(self, tmp_path):
        assert cli.main(["synth", "--config", str(tmp_path / "none.cfg"),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("wibble = 1\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("stage,lacks", [
        ("classify-ms", "ms.hdr"),
        ("water-index", "landsat_d"),
        ("pca-fuse", "ms.hdr"),
        ("segment", "pan.hdr"),
        ("shadow", "scene.txt"),
        ("fuse", "ms.hdr"),
        ("postclass", "pgm_water.hdr"),
        ("evaluate", "truth.hdr"),
    ])
    def test_missing_artifact_is_io_error(self, tmp_path, capsys, stage, lacks):
        """Every stage run on an empty directory stops at its first input and
        names it."""
        assert cli.main([stage, "--out", str(tmp_path)]) == cli.EXIT_IO
        assert lacks in capsys.readouterr().err

    def test_missing_scene_file_is_io_error(self, tmp_path, capsys):
        scene = tmp_path / "absent_scene.txt"
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_IO
        assert str(scene) in capsys.readouterr().err

    def test_bad_scene_content_is_config_error(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("extent 100 100\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        "texture lake 0.1 3.2",
        "noise landsaat 0.01",
        # valid lines that repeat a setting the scene already gives
        "sun 45 300",
        "extent 480 480",
        "noise pan 0.01",
        "feature tree disk 30 22 7 height 14 height 40",
    ])
    def test_invalid_scene_line_is_config_error(self, tmp_path, line):
        scene = tmp_path / "scene.txt"
        scene.write_text(cli.DEFAULT_SCENE_TEXT + line + "\n")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert not (tmp_path / "pan.bin").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("texture grass 0.08 3.2", "texture grass -0.1 3.2",
         "texture sigma for 'grass' must be >= 0"),
        ("texture grass 0.08 3.2", "texture grass 0.1 0",
         "texture cell for 'grass' must be a positive size"),
        ("noise pan 0.004", "noise pan -0.1", "noise sigma for 'pan' must be >= 0"),
    ])
    def test_texture_out_of_range_in_place_is_config_error(self, tmp_path, capsys,
                                                           old, new, message):
        """A texture or noise value outside its range, in place of the
        scene's own line, stops synth on the range rule and not on the repeat
        rule.  The rule is checked on the line itself, so the error names the
        line, as every other scene-line error does."""
        text = cli.DEFAULT_SCENE_TEXT.replace(old, new)
        scene = tmp_path / "scene.txt"
        scene.write_text(text)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        lineno = text.splitlines().index(new) + 1
        assert f"scene line {lineno}: {new!r}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "pan.bin").exists()

    @pytest.mark.parametrize("old,new,reason", [
        ("sun 50 180", "sun 0 180", "sun elevation must be in (0, 90], got 0.0"),
        ("extent 240 240", "extent nan 240", "'nan' is not a finite number"),
        ("extent 240 240", "extent inf 240", "'inf' is not a finite number"),
        ("noise pan 0.004", "noise pan nan", "'nan' is not a finite number"),
        ("noise pan 0.004", "noise pan inf", "'inf' is not a finite number"),
        ("sun 50 180", "sun 50 nan", "'nan' is not a finite number"),
        ("spectrum water    pan=0.05", "spectrum water    pan=nan",
         "'nan' is not a finite number"),
        ("texture grass 0.08 3.2", "texture grass inf 3.2", "'inf' is not a finite number"),
        ("extent 240 240", "extent 240 240 480", "'extent' takes 2 operand(s), got 3"),
        ("sun 50 180", "sun 50 180 9", "'sun' takes 2 operand(s), got 3"),
        ("seed 7", "seed 7 8", "'seed' takes 1 operand(s), got 2"),
        ("noise pan 0.004", "noise pan 0.004 0.5", "'noise' takes 2 operand(s), got 3"),
        ("texture grass 0.08 3.2", "texture grass 0.08 3.2 99",
         "'texture' takes 3 operand(s), got 4"),
        ("train_per_class 60", "train_per_class 60 2",
         "'train_per_class' takes 1 operand(s), got 2"),
        ("feature tree disk 30 22 7 height 14", "feature tree disk 30 22 7 height 14 height 40",
         "'height' given twice"),
        ("feature tree disk 30 22 7 height 14", "feature tree disk 30 22 -5 height 14",
         "disk radius must be >= 0, got -5.0"),
    ])
    def test_scene_line_in_place_is_config_error(self, tmp_path, capsys, old, new, reason):
        """A value out of range, a non-finite number or an extra operand, in
        place of the scene's own line of that directive (so that the repeat
        rule does not stop it first), stops synth and names the line and the
        reason."""
        text = cli.DEFAULT_SCENE_TEXT.replace(old, new)
        scene = tmp_path / "scene.txt"
        scene.write_text(text)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        lineno, line = next((n, line) for n, line in enumerate(text.splitlines(), 1)
                            if new in line)
        assert f"scene line {lineno}: {line!r}: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "pan.bin").exists()

    def test_unknown_spectrum_band_is_config_error(self, tmp_path, capsys):
        """The band list of a spectrum line is checked, not only its class:
        every class already has its one spectrum line, so the bad band is
        written into the water line."""
        scene = tmp_path / "scene.txt"
        scene.write_text(cli.DEFAULT_SCENE_TEXT.replace("swir2=0.008", "swir2=0.008 swir3=0.9"))
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "unknown band 'swir3'" in capsys.readouterr().err
        assert not (tmp_path / "pan.bin").exists()

    @pytest.mark.parametrize("line", [
        "n1 = 0",
        "n2 = 0",
        "decision_threshold = 1.5",
        "decision_threshold = 0",
        "intensity_window = 100",
        "intensity_ratio = 1",
        "shadow_relabel_threshold = 0",
        "height_high_max = 2",
        "height_low_min = 0",
        "height_tree_min = 60",
        "t_pan = nan",
        "intensity_ratio = inf",
        "eval_water = -1",
        "eval_vegetation = -1",
        "eval_soil = -1",
        "eval_impervious = -1",
        "kmeans_k = 0",
        "seed = -1",
        "kmeans_k = 4\nkmeans_k = 12",
        # facts of the scene, not tunables
        "sun_elevation_deg = 35",
        "sun_azimuth_deg = 120",
        "r_ms = 3.2",
        "r_l = 30",
        # removed with boundary unmixing
        "boundary_band_px = 4",
        "unmix_window_px = 33",
        "water_fraction_threshold = 0.5",
        # the shadow sweep step is derived from the sun and the pixel size
        "sweep_step_m = auto",
    ])
    def test_rejected_config_value_stops_before_any_stage(self, tmp_path, line):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert cli.main(["run-all", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "pan.bin").exists()

    def test_negative_seed_stops_before_any_stage(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run-all", "--seed", "-1", "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "pan.bin").exists()
        capsys.readouterr()


def _add_site(path, cls, x, y):
    sites = np.load(path)
    np.save(path, np.concatenate([sites, np.array([(cls, x, y)], dtype=sites.dtype)]))


class TestPipelineArtifacts:
    def test_expected_artifacts_exist(self, pipeline_dir):
        """run-all leaves exactly these files: none missing, none renamed or
        stray."""
        stems = ["pan", "ms", "truth", "class_truth", "shadow_truth",
                 "ms_prob", "ms_class", "ms_water", "landsat_wi", "landsat_water",
                 "pca_fused", "pca_prob", "pca_water", "pan_water", "segments",
                 "object_kinds", "potential_shadow", "pgm_prob", "pgm_water",
                 "water_final"]
        stems += [f"landsat_d{d:03d}" for d in (16, 74, 135, 192, 230, 288, 340)]
        expected = [f"{stem}.{ext}" for stem in stems for ext in ("hdr", "bin")]
        expected += ["config.txt", "scene.txt", "train_sites.npy",
                     "t_pan.txt", "kmeans.txt", "segment_table.npy", "fuse.txt",
                     "postclass.txt"]
        expected += [f"report_{stem}.txt" for stem in cli.PREDICTION_STEMS]
        assert sorted(p.name for p in pipeline_dir.iterdir()) == sorted(expected)

    def test_kmeans_summary(self, pipeline_dir):
        fields = dict(line.split(" = ") for line in
                      (pipeline_dir / "kmeans.txt").read_text().splitlines())
        assert sorted(fields) == ["converged", "iterations", "objective", "segments"]
        assert fields["iterations"] == "18"
        assert fields["converged"] == "true"
        assert fields["segments"] == "1281"
        assert float(fields["objective"]) > 0.0

    def test_kmeans_summary_at_the_pass_cap(self, pipeline_dir, tmp_path, monkeypatch):
        """A fit that KMEANS_MAX_ITER stops while its centres still move says
        so: one pass from the subsample's centres does not converge."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        monkeypatch.setattr(segmentation, "KMEANS_MAX_ITER", 1)
        assert cli.main(["segment", "--out", str(out)]) == 0
        fields = dict(line.split(" = ") for line in
                      (out / "kmeans.txt").read_text().splitlines())
        assert fields["iterations"] == "1"
        assert fields["converged"] == "false"

    def test_fuse_summary(self, pipeline_dir):
        assert (pipeline_dir / "fuse.txt").read_text() == (
            "landsat_active = 3\nwater_segments = 27\n")

    def test_postclass_summary(self, pipeline_dir):
        assert (pipeline_dir / "postclass.txt").read_text() == "relabeled = 7\n"

    def test_effective_config_written(self, pipeline_dir, tmp_path):
        """config.txt holds the config a command ran with, --seed applied."""
        assert parse_config((pipeline_dir / "config.txt").read_text()) == PipelineConfig()
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("seed = 5\nt_pan = 0.11\nkmeans_k = 6\n")
        assert cli.main(["evaluate", "--config", str(cfg), "--seed", "9",
                         "--out", str(out)]) == 0
        assert parse_config((out / "config.txt").read_text()) == PipelineConfig(
            seed=9, t_pan=0.11, kmeans_k=6)

    def test_map_without_water_reports_na(self, pipeline_dir, tmp_path):
        """A threshold below every PAN value leaves pan_water empty: its UA is
        n/a, and every report is still written."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for stem in cli.PREDICTION_STEMS:
            (out / f"report_{stem}.txt").unlink()
        cfg = tmp_path / "dry.cfg"
        cfg.write_text("t_pan = 0.0\n")
        for step in ("segment", "evaluate"):
            assert cli.main([step, "--config", str(cfg), "--out", str(out)]) == 0
        assert not read_mask(out / "pan_water.hdr").bits.any()
        last = (out / "report_pan_water.txt").read_text().splitlines()[-1]
        assert last.startswith("pa=0.0,ua=n/a,oa=")
        for stem in cli.PREDICTION_STEMS:
            if stem != "pan_water":
                assert (out / f"report_{stem}.txt").read_text() == \
                    (pipeline_dir / f"report_{stem}.txt").read_text(), stem

    def test_step_by_step_matches_run_all(self, pipeline_dir, tmp_path):
        """run-all must be exactly the composition of the individual steps."""
        for name, _ in cli.RUN_ALL_ORDER:
            assert cli.main([name, "--out", str(tmp_path)]) == 0
        all_files = sorted(p.name for p in pipeline_dir.iterdir())
        step_files = sorted(p.name for p in tmp_path.iterdir())
        assert step_files == all_files
        match, mismatch, errors = filecmp.cmpfiles(
            pipeline_dir, tmp_path, all_files, shallow=False)
        assert mismatch == [] and errors == []
        assert sorted(match) == all_files

    def test_evaluating_truth_against_itself_is_perfect(self, pipeline_dir, tmp_path):
        for stem in ("truth", "class_truth"):
            for ext in ("hdr", "bin"):
                (tmp_path / f"{stem}.{ext}").write_bytes(
                    (pipeline_dir / f"{stem}.{ext}").read_bytes())
        for ext in ("hdr", "bin"):
            (tmp_path / f"water_final.{ext}").write_bytes(
                (pipeline_dir / f"truth.{ext}").read_bytes())
        assert cli.main(["evaluate", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report_water_final.txt").read_text()
        assert "pa=100.0,ua=100.0,oa=100.0" in report

    def test_shadow_without_scene_artifact_is_io_error(self, pipeline_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        (out / "scene.txt").unlink()
        assert cli.main(["shadow", "--out", str(out)]) == cli.EXIT_IO

    def test_raster_without_data_file_is_io_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        (out / "ms.bin").unlink()
        assert cli.main(["classify-ms", "--out", str(out)]) == cli.EXIT_IO
        assert str(out / "ms.bin") in capsys.readouterr().err

    @pytest.mark.parametrize("value", [0.7, 1.9])
    def test_truth_sample_other_than_0_or_1_is_io_error(self, pipeline_dir, tmp_path,
                                                        capsys, value):
        """A damaged truth mask stops evaluate; it is not cast to 0/1 and
        scored against."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        truth = read_raster(out / "truth.hdr")
        truth.data[0, 5, 5] = value
        write_raster(truth, out / "truth.hdr")
        assert cli.main(["evaluate", "--out", str(out)]) == cli.EXIT_IO
        assert "truth.hdr: mask values must be 0 or 1" in capsys.readouterr().err

    def test_postclass_before_fuse_is_io_error(self, pipeline_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        (out / "pgm_water.hdr").unlink()
        assert cli.main(["postclass", "--out", str(out)]) == cli.EXIT_IO

    @pytest.mark.parametrize("stage", ["fuse", "postclass"])
    @pytest.mark.parametrize("damage", ["truncated", "wrong_dtype"])
    def test_damaged_segment_table_is_io_error(self, pipeline_dir, tmp_path, stage, damage):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        path = out / "segment_table.npy"
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        else:
            np.save(path, np.load(path)["w"])
        assert cli.main([stage, "--out", str(out)]) == cli.EXIT_IO

    @pytest.mark.parametrize("stage", ["shadow", "fuse", "postclass"])
    @pytest.mark.parametrize("damage", ["negative-id", "fractional-id", "empty-id",
                                        "pixel-count-off"])
    def test_segments_raster_out_of_step_with_table_is_io_error(
            self, pipeline_dir, tmp_path, capsys, stage, damage):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        segments = read_raster(out / "segments.hdr")
        ids = segments.data[0]
        if damage == "negative-id":
            ids[0, 0] = -1
        elif damage == "fractional-id":
            ids[0, 0] += 0.5
        elif damage == "empty-id":
            ids[ids == 1] = 0
        else:
            table = np.load(out / "segment_table.npy")
            table["pixel_count"][0] += 1
            np.save(out / "segment_table.npy", table)
        write_raster(segments, out / "segments.hdr")
        assert cli.main([stage, "--out", str(out)]) == cli.EXIT_IO
        assert "segment_table.npy" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        (lambda p: np.save(p, np.load(p)[["cls", "x"]].astype([("cls", "<U10"), ("x", "<f8")])),
         "train_sites.npy: not a table"),
        (lambda p: _add_site(p, "water", 1000.0, 1000.0), "water 1000.0 1000.0 lies outside"),
    ], ids=["sites-without-y", "sites-outside-raster"])
    def test_damaged_table_artifact_is_io_error(self, pipeline_dir, tmp_path, capsys,
                                                damage, message):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        damage(out / "train_sites.npy")
        assert cli.main(["classify-ms", "--out", str(out)]) == cli.EXIT_IO
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["classify-ms", "pca-fuse"])
    def test_training_class_without_sites_is_compute_error(self, pipeline_dir, tmp_path,
                                                           capsys, stage):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        sites = np.load(out / "train_sites.npy")
        np.save(out / "train_sites.npy", sites[sites["cls"] != "impervious"])
        assert cli.main([stage, "--out", str(out)]) == cli.EXIT_COMPUTE
        assert "class 'impervious' has 0 samples" in capsys.readouterr().err

    def test_classify_ms_straight_after_synth(self, tmp_path):
        """classify-ms fits its classifier itself: synth is all it needs."""
        assert cli.main(["synth", "--out", str(tmp_path)]) == 0
        assert cli.main(["classify-ms", "--out", str(tmp_path)]) == 0
        assert read_raster(tmp_path / "ms_prob.hdr").band_names == [
            "p_vegetation", "p_soil", "p_impervious", "p_water"]

    @pytest.mark.parametrize("code", [7.0, -1.0, 1.5])
    def test_class_truth_code_outside_class_order_is_io_error(self, pipeline_dir, tmp_path,
                                                               capsys, code):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        class_truth = read_raster(out / "class_truth.hdr")
        class_truth.data[0, 5, 5] = code
        write_raster(class_truth, out / "class_truth.hdr")
        assert cli.main(["evaluate", "--out", str(out)]) == cli.EXIT_IO
        assert "class codes must be whole numbers in 0..3" in capsys.readouterr().err

    def test_class_truth_on_another_grid_is_io_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        class_truth = read_raster(out / "class_truth.hdr")
        geometry = replace(class_truth.geometry, height=class_truth.geometry.height - 1)
        write_raster(RasterGrid(geometry, class_truth.data[:, :-1], class_truth.band_names),
                     out / "class_truth.hdr")
        assert cli.main(["evaluate", "--out", str(out)]) == cli.EXIT_IO
        assert "grid differs from the truth mask" in capsys.readouterr().err

    def test_ms_prob_without_water_band_is_io_error(self, pipeline_dir, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        ms_prob = read_raster(out / "ms_prob.hdr")
        write_raster(RasterGrid(ms_prob.geometry, ms_prob.data[:3], ms_prob.band_names[:3]),
                     out / "ms_prob.hdr")
        assert cli.main(["segment", "--out", str(out)]) == cli.EXIT_IO
        assert "no band named 'p_water'" in capsys.readouterr().err

    @pytest.mark.parametrize("stage,line,artifact", [
        ("segment", "kmeans_k = 4", "kmeans.txt"),
        ("shadow", "intensity_window = 11", "potential_shadow.bin"),
        ("shadow", "intensity_ratio = 0.05", "potential_shadow.bin"),
        ("shadow", "height_tree_max = 10", "potential_shadow.bin"),
        ("fuse", "n1 = 1", "fuse.txt"),
        ("fuse", "n2 = 2", "fuse.txt"),
        ("fuse", "decision_threshold = 0.9", "fuse.txt"),
        ("postclass", "shadow_relabel_threshold = 0.3", "postclass.txt"),
    ])
    def test_tunable_reaches_its_stage(self, pipeline_dir, tmp_path, stage, line, artifact):
        """Re-running one stage with one non-default key changes its output."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(line + "\n")
        assert cli.main([stage, "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / artifact).read_bytes() != (pipeline_dir / artifact).read_bytes()

    def test_reports_have_machine_line(self, pipeline_dir):
        for stem in cli.PREDICTION_STEMS:
            report = (pipeline_dir / f"report_{stem}.txt").read_text()
            assert "oa=" in report and "pa=" in report and "ua=" in report
