import builtins
import filecmp
import functools
import importlib
import inspect
import os
import pkgutil
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import aquafuse
from aquafuse import cli, segmentation, shadow
from aquafuse.config import ConfigError, PipelineConfig, format_config, load_config, parse_config
from aquafuse.evaluate import confusion_matrix, format_report, stratified_sample
from aquafuse.raster import (BinaryMask, RasterGrid, read_mask, read_raster, resample_nearest,
                             write_raster)


def synth_with_warnings_as_errors(tmp_path, text):
    """Run ``synth`` on the scene ``text`` in a fresh ``python -W error``
    process: the finished process, with its stderr."""
    scene = tmp_path / "scene.txt"
    scene.write_text(text)
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"scene = {scene}\n")
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "aquafuse.cli", "synth", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300)


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
        ("postclass", "segments.hdr"),
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

    @pytest.mark.parametrize("sigma,code,stderr", [
        ("1e308", cli.EXIT_CONFIG,
         ["config error: noise pan 1e+308 gives samples beyond the float32 range"]),
        ("1e30", cli.EXIT_OK, []),
    ])
    def test_huge_scene_noise(self, tmp_path, sigma, code, stderr):
        """A noise whose samples leave float32's range stops synth with one
        stderr line that names its entry, and with every warning an error,
        numpy warns of nothing; a noise of 1e30 still renders."""
        done = synth_with_warnings_as_errors(
            tmp_path, cli.DEFAULT_SCENE_TEXT.replace("noise pan 0.004", f"noise pan {sigma}"))
        assert done.returncode == code, done.stderr
        assert done.stderr.splitlines() == stderr

    @pytest.mark.parametrize("old,new,ending", [
        ("spectrum water    pan=0.05", "spectrum water pan=1e39",
         "spectrum water pan=1e+39 is beyond the float32 range"),
        ("texture water 0.10 3.2", "texture water 1e300 3.2",
         "texture water 1e+300 3.2 takes 'water' reflectances beyond the float32 range"),
        ("spectrum water    pan=0.05", "spectrum water pan=3e38",
         "texture water 0.1 3.2 takes 'water' reflectances beyond the float32 range"),
        ("spectrum water    pan=0.05", "spectrum water pan=1e30", None),
        ("texture water 0.10 3.2", "texture water 1e30 3.2", None),
    ], ids=["spectrum-1e39", "texture-1e300", "spectrum-3e38", "spectrum-1e30", "texture-1e30"])
    def test_huge_scene_spectrum_or_texture(self, tmp_path, old, new, ending):
        """A reflectance beyond float32's range, or a texture that takes one
        there, stops synth with one stderr line that names its entry, and
        with every warning an error, numpy warns of nothing.  A reflectance
        of 3e38 fits float32, but the water texture takes it beyond; values
        of 1e30 still render."""
        assert cli.DEFAULT_SCENE_TEXT.count(old) == 1
        done = synth_with_warnings_as_errors(tmp_path, cli.DEFAULT_SCENE_TEXT.replace(old, new))
        if ending is None:
            assert done.returncode == cli.EXIT_OK, done.stderr
            assert done.stderr == ""
        else:
            assert done.returncode == cli.EXIT_CONFIG, done.stderr
            [line] = done.stderr.splitlines()
            assert line.startswith("config error: ") and line.endswith(ending)

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
        ("extent 240 240", "extent 1e999 240", "'inf' is not a finite number"),
        ("sun 50 180", "sun nan 180", "'nan' is not a finite number"),
        ("sun 50 180", "sun inf 180", "'inf' is not a finite number"),
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
        ("shadow_factor 0.5", "shadow_factor 1.5", "shadow_factor must be in (0, 1], got 1.5"),
        ("shadow_factor_nir 0.55", "shadow_factor_nir 0",
         "shadow_factor_nir must be in (0, 1], got 0.0"),
        ("train_per_class 60", "train_per_class 1", "train_per_class must be >= 2, got 1"),
        ("seed 7", "seed -1", "seed must be >= 0, got -1"),
        ("extent 240 240", "extent 240 250",
         "extent 250.0 must be a whole number of 0.8 m pixels"),
        ("extent 240 240", "extent 0 240", "extent must be positive"),
        ("spectrum water    pan=0.05", "spectrum foo    pan=0.05",
         "unknown spectrum class 'foo'"),
        ("feature river line 0 88 240 100 width 2.4", "feature river line 10 10 10 10 width 2",
         "line feature needs two distinct ends"),
    ])
    def test_scene_line_in_place_is_config_error(self, tmp_path, capsys, old, new, reason):
        """A value out of range, a non-finite number or an extra operand, in
        place of the scene's own line of that directive (so that the repeat
        rule does not stop it first), stops synth with one line on stderr
        that names the scene line and the reason, and no traceback.  A value
        rule is checked once the whole scene is read, and still names its
        line."""
        text = cli.DEFAULT_SCENE_TEXT.replace(old, new)
        scene = tmp_path / "scene.txt"
        scene.write_text(text)
        cfg = tmp_path / "p.cfg"
        cfg.write_text(f"scene = {scene}\n")
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        lineno, line = next((n, line) for n, line in enumerate(text.splitlines(), 1)
                            if new in line)
        err = capsys.readouterr().err
        assert err == f"config error: scene line {lineno}: {line!r}: {reason}\n"
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

    def test_four_error_classes_each_with_its_exit_code(self, tmp_path, monkeypatch, capsys):
        """The package defines one exception class per failure kind, and main
        maps each to its exit code, with one line on stderr."""
        codes = {"ConfigError": cli.EXIT_CONFIG, "SceneError": cli.EXIT_CONFIG,
                 "RasterError": cli.EXIT_IO, "ComputeError": cli.EXIT_COMPUTE}
        found = {}
        for info in pkgutil.iter_modules(aquafuse.__path__):
            module = importlib.import_module(f"aquafuse.{info.name}")
            found.update((name, value) for name, value in vars(module).items()
                         if isinstance(value, type) and issubclass(value, Exception)
                         and value.__module__ == module.__name__)
        assert sorted(found) == sorted(codes)
        for name, error in found.items():
            def fail(cfg, out, error=error):
                raise error("no answer")
            monkeypatch.setitem(cli.COMMANDS, "fuse", fail)
            assert cli.main(["fuse", "--out", str(tmp_path)]) == codes[name], name
            assert capsys.readouterr().err.endswith(": no answer\n")


def _add_site(path, cls, x, y):
    sites = np.load(path)
    np.save(path, np.concatenate([sites, np.array([(cls, x, y)], dtype=sites.dtype)]))


def _edit_raster(stem, edit):
    """A damage that rewrites the raster ``stem`` of a run as ``edit`` of it."""
    def damage(out):
        path = out / f"{stem}.hdr"
        write_raster(edit(read_raster(path)), path)
    return damage


def _first_sample(value):
    def edit(raster):
        raster.data[0, 0, 0] = value
        return raster
    return edit


def _two_bands(raster):
    return RasterGrid(raster.geometry, np.concatenate([raster.data, raster.data]),
                      [*raster.band_names, "copy"])


def _shifted_east(raster):
    geometry = replace(raster.geometry, origin_x=raster.geometry.origin_x + 30.0)
    return RasterGrid(geometry, raster.data, raster.band_names)


def _artifact_state(out):
    """Bytes and mtime of every artifact in ``out`` but config.txt, which
    every stage rewrites, the effective config, before it starts."""
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in out.iterdir() if p.name != "config.txt"}


def _scaled(factor):
    """An edit that multiplies the p_water band by ``factor``."""
    def edit(raster):
        raster.band("p_water")[...] *= factor
        return raster
    return edit


def _constant(raster):
    return RasterGrid(raster.geometry, np.full_like(raster.data, 0.2), raster.band_names)


def _replace_line(name, old, new):
    """A damage that writes ``new`` in place of the line ``old``, which is
    not the first, of the run's file ``name``."""
    def damage(out):
        path = out / name
        text = path.read_text()
        assert f"\n{old}\n" in text
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    return damage


def _ms_without_bands(out):
    _replace_line("ms.hdr", "bands = 4", "bands = 0")(out)
    _replace_line("ms.hdr", "band_names = blue,green,red,nir", "band_names =")(out)
    (out / "ms.bin").write_bytes(b"")


def _no_prediction_maps(out):
    for stem in cli.PREDICTION_STEMS:
        (out / f"{stem}.hdr").unlink()


def _sites_without_impervious(out):
    sites = np.load(out / "train_sites.npy")
    np.save(out / "train_sites.npy", sites[sites["cls"] != "impervious"])


def _no_sites(out):
    np.save(out / "train_sites.npy", np.load(out / "train_sites.npy")[:0])


# (stage, damage to a run-all tree, exit code, message on stderr, in which
# {out} stands for the tree): a damaged or mismatched artifact is exit 3,
# whichever module finds it; a method with no answer on valid inputs is exit 4
BAD_INPUTS = {
    "pan-two-bands-segment": ("segment", _edit_raster("pan", _two_bands), cli.EXIT_IO,
                              "pan.hdr: PAN raster must have exactly 1 band, got 2"),
    "pan-two-bands-pca-fuse": ("pca-fuse", _edit_raster("pan", _two_bands), cli.EXIT_IO,
                               "pan.hdr: PAN raster must have exactly 1 band, got 2"),
    "ms-class-7": ("segment", _edit_raster("ms_class", _first_sample(7.0)), cli.EXIT_IO,
                   "ms_class.hdr: class codes must be whole numbers in 0..3"),
    "ms-class-2.5": ("segment", _edit_raster("ms_class", _first_sample(2.5)), cli.EXIT_IO,
                     "ms_class.hdr: class codes must be whole numbers in 0..3"),
    "ms-class-minus-1": ("segment", _edit_raster("ms_class", _first_sample(-1.0)), cli.EXIT_IO,
                         "ms_class.hdr: class codes must be whole numbers in 0..3"),
    "landsat-shifted": ("water-index", _edit_raster("landsat_d074", _shifted_east),
                        cli.EXIT_IO, "{out}/landsat_d074.hdr: grid differs from the landsat_d016 grid"),
    "scene-sun-95": ("shadow", _replace_line("scene.txt", "sun 50 180", "sun 95 180"),
                     cli.EXIT_IO,
                     "scene.txt: scene line 4: 'sun 95 180': sun elevation must be in (0, 90]"),
    "scene-shadow-factor-1.5": ("shadow", _replace_line("scene.txt", "shadow_factor 0.5",
                                                        "shadow_factor 1.5"),
                                cli.EXIT_IO, "scene.txt: scene line 5: 'shadow_factor 1.5': "
                                "shadow_factor must be in (0, 1], got 1.5"),
    "pan-constant-segment": ("segment", _edit_raster("pan", _constant), cli.EXIT_COMPUTE,
                             "otsu_threshold needs at least 2 distinct values"),
    "pan-constant-pca-fuse": ("pca-fuse", _edit_raster("pan", _constant), cli.EXIT_COMPUTE,
                              "PAN image has zero variance"),
    "sites-without-impervious-classify-ms": ("classify-ms", _sites_without_impervious,
                                             cli.EXIT_COMPUTE,
                                             "class 'impervious' has 0 samples"),
    "sites-without-impervious-pca-fuse": ("pca-fuse", _sites_without_impervious,
                                          cli.EXIT_COMPUTE, "class 'impervious' has 0 samples"),
    **{f"no-sites-{stage}": (stage, _no_sites, cli.EXIT_COMPUTE,
                             "class 'vegetation' has 0 samples, need >= 2")
       for stage in ("classify-ms", "pca-fuse")},
    # a header number that no grid can have names its header
    "landsat-wi-pixel-size-inf-segment": (
        "segment", _replace_line("landsat_wi.hdr", "pixel_size = 30", "pixel_size = inf"),
        cli.EXIT_IO, "landsat_wi.hdr: pixel_size must be finite and > 0, got inf"),
    "landsat-wi-pixel-size-inf-fuse": (
        "fuse", _replace_line("landsat_wi.hdr", "pixel_size = 30", "pixel_size = inf"),
        cli.EXIT_IO, "landsat_wi.hdr: pixel_size must be finite and > 0, got inf"),
    "landsat-wi-ulx-inf-segment": (
        "segment", _replace_line("landsat_wi.hdr", "ulx = 0", "ulx = inf"),
        cli.EXIT_IO, "landsat_wi.hdr: origin must be finite, got (inf, 240.0)"),
    "ms-uly-nan-classify-ms": ("classify-ms", _replace_line("ms.hdr", "uly = 240", "uly = nan"),
                               cli.EXIT_IO, "ms.hdr: origin must be finite, got (0.0, nan)"),
    "ms-bands-0-classify-ms": ("classify-ms", _ms_without_bands, cli.EXIT_IO,
                               "ms.hdr: data must be 2-D, or 3-D with at least 1 band"),
    "ms-bands-0-pca-fuse": ("pca-fuse", _ms_without_bands, cli.EXIT_IO,
                            "ms.hdr: data must be 2-D, or 3-D with at least 1 band"),
    # a header the reader cannot take, or no map to evaluate
    "ms-header-line-without-equals": ("classify-ms", _replace_line("ms.hdr", "lines = 75",
                                                                   "lines 75"),
                                      cli.EXIT_IO, "ms.hdr:2: expected 'key = value'"),
    "ms-header-unknown-key": ("classify-ms", _replace_line("ms.hdr", "bands = 4",
                                                           "bands = 4\ncolour = blue"),
                              cli.EXIT_IO, "ms.hdr:4: unknown header key 'colour'"),
    "ms-header-missing-key": ("classify-ms", _replace_line("ms.hdr", "ulx = 0", ""),
                              cli.EXIT_IO, "ms.hdr: missing header key 'ulx'"),
    "ms-header-unparseable-value": ("classify-ms", _replace_line("ms.hdr", "lines = 75",
                                                                 "lines = lots"),
                                    cli.EXIT_IO, "ms.hdr: unparseable header value"),
    "ms-header-data-type": ("classify-ms", _replace_line("ms.hdr", "data_type = float32le",
                                                         "data_type = float64le"),
                            cli.EXIT_IO, "ms.hdr: unsupported data_type 'float64le'"),
    "ms-header-interleave": ("classify-ms", _replace_line("ms.hdr", "interleave = bsq",
                                                          "interleave = bil"),
                             cli.EXIT_IO, "ms.hdr: unsupported interleave 'bil'"),
    **{f"ms-header-pixel-size-twice-{stage}": (
        stage, _replace_line("ms.hdr", "band_names = blue,green,red,nir",
                             "band_names = blue,green,red,nir\npixel_size = 30"),
        cli.EXIT_IO, "ms.hdr:10: header key 'pixel_size' given twice")
       for stage in ("fuse", "classify-ms", "pca-fuse")},
    "ms-header-band-names": (
        "classify-ms", _replace_line("ms.hdr", "band_names = blue,green,red,nir",
                                     "band_names = blue,green,red"),
        cli.EXIT_IO, "ms.hdr: band_names length does not match band count"),
    "evaluate-without-prediction-maps": ("evaluate", _no_prediction_maps, cli.EXIT_IO,
                                         "missing file: {out}/water_final.hdr"),
    "class-truth-shifted": ("evaluate", _edit_raster("class_truth", _shifted_east), cli.EXIT_IO,
                            "{out}/class_truth.hdr: grid differs from the truth grid"),
    # a prediction map is a mask, read by the same 0/1 rule as truth, on the
    # truth grid or on a coarser one that covers it, looked up at the centers
    # of the sampled truth pixels
    **{f"{stem.replace('_', '-')}-shifted-evaluate": (
        "evaluate", _edit_raster(stem, _shifted_east), cli.EXIT_IO,
        f"{{out}}/{stem}.hdr: grid does not cover the truth grid")
       for stem in ("ms_water", "landsat_water", "pgm_water")},
    "pgm-water-0.7": ("evaluate", _edit_raster("pgm_water", _first_sample(0.7)), cli.EXIT_IO,
                      "pgm_water.hdr: mask values must be 0 or 1"),
    "ms-water-1.9": ("evaluate", _edit_raster("ms_water", _first_sample(1.9)), cli.EXIT_IO,
                     "ms_water.hdr: mask values must be 0 or 1"),
    # fuse and postclass take each segment's share of a mask on the segments' grid
    "potential-shadow-shifted-fuse": (
        "fuse", _edit_raster("potential_shadow", _shifted_east), cli.EXIT_IO,
        "{out}/potential_shadow.hdr: grid differs from the segments grid"),
    "pgm-water-shifted-postclass": (
        "postclass", _edit_raster("pgm_water", _shifted_east), cli.EXIT_IO,
        "{out}/pgm_water.hdr: grid differs from the segments grid"),
    "pgm-water-0.7-postclass": ("postclass", _edit_raster("pgm_water", _first_sample(0.7)),
                                cli.EXIT_IO, "pgm_water.hdr: mask values must be 0 or 1"),
    # segment resamples ms_prob, ms_class and landsat_wi to the PAN grid, and
    # pca-fuse ms: each must cover it, a rule checked when the column is read,
    # so a field off that grid stops segment before k-means
    **{f"{stem.replace('_', '-')}-shifted-segment": (
        "segment", _edit_raster(stem, _shifted_east), cli.EXIT_IO,
        f"{{out}}/{stem}.hdr: grid does not cover the pan grid")
       for stem in ("ms_prob", "ms_class", "landsat_wi")},
    "ms-shifted-pca-fuse": ("pca-fuse", _edit_raster("ms", _shifted_east), cli.EXIT_IO,
                            "{out}/ms.hdr: grid does not cover the pan grid"),
    # a water probability outside [0, 1] would carry through fusion unseen
    "landsat-wi-times-3-segment": ("segment", _edit_raster("landsat_wi", _scaled(3.0)),
                                   cli.EXIT_IO,
                                   "{out}/landsat_wi.hdr: probabilities must be in [0, 1]"),
    "ms-prob-negated-segment": ("segment", _edit_raster("ms_prob", _scaled(-1.0)), cli.EXIT_IO,
                                "{out}/ms_prob.hdr: probabilities must be in [0, 1]"),
    # the record of stage runs is an artifact like the others
    "runs-not-a-number": ("fuse", lambda out: (out / "runs.txt").write_text("segment = soon\n"),
                          cli.EXIT_IO, "runs.txt: expected 'stage = run' lines"),
    # a stage given twice would let the later line hide a newer run
    "runs-stage-twice": ("fuse", _replace_line("runs.txt", "segment = 5",
                                               "segment = 10\nsegment = 5"),
                         cli.EXIT_IO, "runs.txt:6: stage 'segment' given twice"),
    "runs-unknown-stage": ("fuse", _replace_line("runs.txt", "segment = 5", "segmentation = 5"),
                           cli.EXIT_IO, "runs.txt:5: unknown stage 'segmentation'"),
}


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
                     "postclass.txt", "runs.txt"]
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
        n/a, and every report is still written.  The chain from segment runs
        again, as evaluate reads the maps of the stages that read segment's."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for stem in cli.PREDICTION_STEMS:
            (out / f"report_{stem}.txt").unlink()
        cfg = tmp_path / "dry.cfg"
        cfg.write_text("t_pan = 0.0\n")
        for step in ("segment", "shadow", "fuse", "postclass", "evaluate"):
            assert cli.main([step, "--config", str(cfg), "--out", str(out)]) == 0
        assert not read_mask(out / "pan_water.hdr").bits.any()
        last = (out / "report_pan_water.txt").read_text().splitlines()[-1]
        assert last.startswith("pa=0.0,ua=n/a,oa=")
        for stem in cli.PREDICTION_STEMS:
            assert (out / f"report_{stem}.txt").exists(), stem
        for stem in ("ms_water", "pca_water", "landsat_water"):
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
        for stem in cli.PREDICTION_STEMS:
            for ext in ("hdr", "bin"):
                (tmp_path / f"{stem}.{ext}").write_bytes(
                    (pipeline_dir / f"truth.{ext}").read_bytes())
        assert cli.main(["evaluate", "--out", str(tmp_path)]) == 0
        for stem in cli.PREDICTION_STEMS:
            report = (tmp_path / f"report_{stem}.txt").read_text()
            assert "pa=100.0,ua=100.0,oa=100.0" in report, stem

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_lookups_equal_the_whole_map_resample(self, pipeline_dir, seed):
        """evaluate looks each map up, in the map's own grid, at the centers of
        the sampled truth pixels.  The reference is the path that lookup
        replaced: the map as a float32 raster, resampled whole to the truth
        grid when its grid differs, read at the sampled indices.  Each map is
        also taken with random bits on a grid moved half a pixel north-west,
        with a row and a column more, so that it still covers the truth."""
        truth, class_truth, *maps = cli._read(pipeline_dir, "evaluate")
        rng = np.random.default_rng(seed)
        for mask in list(maps):
            g = mask.geometry
            moved = replace(g, width=g.width + 1, height=g.height + 1,
                            origin_x=g.origin_x - g.pixel_size / 2,
                            origin_y=g.origin_y + g.pixel_size / 2)
            assert moved.covers(truth.geometry)
            maps.append(BinaryMask(moved, rng.random((moved.height, moved.width)) < 0.5))
        cfg = replace(PipelineConfig(), seed=seed)
        samples = stratified_sample(class_truth.data[0],
                                    [getattr(cfg, f"eval_{c}") for c in cli.CLASS_ORDER],
                                    seed=seed)
        reference = truth.bits.ravel()[samples]
        expected = []
        for stem, mask in zip(cli.PREDICTION_STEMS * 2, maps):
            pred = RasterGrid(mask.geometry, mask.bits.astype(np.float32), [stem])
            if pred.geometry != truth.geometry:
                pred = RasterGrid(truth.geometry,
                                  resample_nearest(pred.data, pred.geometry, truth.geometry))
            predicted = pred.data[0].ravel()[samples] == 1
            expected.append(format_report(confusion_matrix(predicted, reference), title=stem)
                            + "\n")
        assert (cli.cmd_evaluate(cfg, truth, class_truth, *maps[:6])
                + cli.cmd_evaluate(cfg, truth, class_truth, *maps[6:])) == expected

    def test_shadow_without_scene_artifact_is_io_error(self, pipeline_dir, tmp_path):
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        (out / "scene.txt").unlink()
        assert cli.main(["shadow", "--out", str(out)]) == cli.EXIT_IO

    def test_fuse_reads_only_the_headers_of_ms_and_landsat_wi(self, pipeline_dir, tmp_path):
        """fuse takes the two resolutions from the headers, so it runs, and
        writes the same facts, with ms.bin and landsat_wi.bin gone."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        (out / "ms.bin").unlink()
        (out / "landsat_wi.bin").unlink()
        assert cli.main(["fuse", "--out", str(out)]) == cli.EXIT_OK
        assert (out / "fuse.txt").read_text() == (pipeline_dir / "fuse.txt").read_text()

    def test_infinite_origin_stops_segment_without_a_warning(self, pipeline_dir, tmp_path):
        """An infinite ulx in a header stops segment, with every warning an
        error, on the header's rule: exit 3 and one stderr line, and no
        numpy warning from the grid arithmetic."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        _replace_line("landsat_wi.hdr", "ulx = 0", "ulx = inf")(out)
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "aquafuse.cli", "segment", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=300)
        assert done.returncode == cli.EXIT_IO, done.stderr
        assert done.stderr.splitlines() == [
            f"i/o error: {out / 'landsat_wi.hdr'}: origin must be finite, got (inf, 240.0)"]

    def test_missing_landsat_date_is_io_error(self, pipeline_dir, tmp_path, capsys):
        """water-index reads one raster per LANDSAT_DAYS date: without one it
        stops and names the file, and does not index the six that remain."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for ext in ("hdr", "bin"):
            (out / f"landsat_d074.{ext}").unlink()
        (out / "landsat_wi.hdr").unlink()
        assert cli.main(["water-index", "--out", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err == f"i/o error: missing file: {out / 'landsat_d074.hdr'}\n"
        assert not (out / "landsat_wi.hdr").exists()

    def test_stray_landsat_file_is_not_read(self, pipeline_dir, tmp_path):
        """A landsat_d* raster of no LANDSAT_DAYS date is not part of the
        stack: landsat_wi and landsat_water keep their bytes."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        write_raster(_constant(read_raster(out / "landsat_d074.hdr")), out / "landsat_d999.hdr")
        assert cli.main(["water-index", "--out", str(out)]) == cli.EXIT_OK
        for name in ("landsat_wi.hdr", "landsat_wi.bin", "landsat_water.hdr", "landsat_water.bin"):
            assert (out / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

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

    def test_postclass_before_fuse_is_io_error(self, pipeline_dir, tmp_path, capsys):
        """segment and shadow run again after run-all: postclass does not
        post-classify the pgm_water map of the last fuse, which ran before
        them.  It stops before writing anything and names fuse."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for stage in ("segment", "shadow"):
            assert cli.main([stage, "--out", str(out)]) == 0
        (out / "postclass.txt").unlink()
        before = _artifact_state(out)
        assert cli.main(["postclass", "--out", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"i/o error: {out}: the artifacts of fuse are out of date (run fuse first)\n")
        assert _artifact_state(out) == before

    def test_fuse_without_shadow_is_io_error(self, tmp_path, capsys):
        """fuse straight after segment does not fuse with a shadow proportion
        of 0: it stops before writing anything and names the shadow mask."""
        for stage in ("synth", "classify-ms", "water-index", "segment"):
            assert cli.main([stage, "--out", str(tmp_path)]) == 0
        before = _artifact_state(tmp_path)
        assert cli.main(["fuse", "--out", str(tmp_path)]) == cli.EXIT_IO
        assert capsys.readouterr().err == (
            f"i/o error: missing file: {tmp_path / 'potential_shadow.hdr'}\n")
        assert _artifact_state(tmp_path) == before

    def test_postclass_after_segment_rerun_is_io_error(self, pipeline_dir, tmp_path, capsys):
        """segment run again after run-all writes a fresh table; postclass
        does not post-classify it with the last shadow mask and pgm_water
        map, though both are still there."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for path in out.glob("water_final.*"):
            path.unlink()
        assert cli.main(["segment", "--out", str(out)]) == 0
        assert (out / "pgm_water.hdr").exists()
        before = _artifact_state(out)
        assert cli.main(["postclass", "--out", str(out)]) == cli.EXIT_IO
        assert "the artifacts of shadow are out of date (run shadow first)" in \
            capsys.readouterr().err
        assert _artifact_state(out) == before

    def test_postclass_after_shadow_rerun_is_io_error(self, pipeline_dir, tmp_path, capsys):
        """shadow run again after run-all replaces the shadow mask that the
        last fuse decided with; postclass waits for fuse to run again."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        cfg = tmp_path / "p.cfg"
        cfg.write_text("height_tree_max = 10\n")
        assert cli.main(["shadow", "--config", str(cfg), "--out", str(out)]) == 0
        before = _artifact_state(out)
        assert cli.main(["postclass", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_IO
        assert "the artifacts of fuse are out of date (run fuse first)" in \
            capsys.readouterr().err
        assert _artifact_state(out) == before
        assert cli.main(["fuse", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["postclass", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize("rerun", ["classify-ms", "water-index"])
    def test_stage_after_rerun_of_a_segment_input_is_io_error(self, pipeline_dir, tmp_path,
                                                              capsys, rerun):
        """classify-ms run again on 1 of every 4 water sites, or water-index
        run again, after run-all: the segment table still holds the p_ms and
        p_lan of the old maps, so fuse and evaluate stop before writing
        anything and name segment."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        if rerun == "classify-ms":
            sites = np.load(out / "train_sites.npy")
            water = np.flatnonzero(sites["cls"] == "water")
            np.save(out / "train_sites.npy", np.delete(sites, water[np.arange(len(water)) % 4 > 0]))
        assert cli.main([rerun, "--out", str(out)]) == 0
        before = _artifact_state(out)
        for stage in ("fuse", "evaluate"):
            assert cli.main([stage, "--out", str(out)]) == cli.EXIT_IO
            assert capsys.readouterr().err == (f"i/o error: {out}: the artifacts of segment "
                                               f"are out of date (run segment first)\n")
        assert _artifact_state(out) == before

    def test_stage_after_a_stopped_run_all_is_io_error(self, pipeline_dir, tmp_path, capsys,
                                                      monkeypatch):
        """run-all that stops in segment leaves the segment, fuse and
        postclass artifacts of the last whole run beside the new synth's:
        evaluate does not score them."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)

        def stopped(cfg, out):
            raise OSError("stopped")
        order = [(name, stopped if name == "segment" else step) for name, step in cli.RUN_ALL_ORDER]
        monkeypatch.setattr(cli, "RUN_ALL_ORDER", order)
        assert cli.main(["run-all", "--out", str(out)]) == cli.EXIT_IO
        capsys.readouterr()
        monkeypatch.undo()
        assert cli.main(["evaluate", "--out", str(out)]) == cli.EXIT_IO
        assert capsys.readouterr().err == (f"i/o error: {out}: the artifacts of segment "
                                           f"are out of date (run segment first)\n")

    def test_reads_name_earlier_stages(self):
        """Every artifact a stage reads is written by a stage before it in
        STAGES; a read x.hdr is the header of the raster x."""
        written = set()
        for name, (_, reads, writes) in cli.STAGES.items():
            assert {read.removesuffix(".hdr") for read in reads} <= written, name
            written |= set(writes)

    def test_a_read_header_is_its_rasters_artifact(self):
        """fuse reads only the headers of ms and landsat_wi, and still reads
        the stages that write those rasters."""
        assert cli.READS["fuse"] == ("synth", "water-index", "segment", "shadow")

    def test_reads_match_the_files_each_stage_opens(self, tmp_path, monkeypatch):
        """In run-all, each stage opens the files of its read column in
        STAGES and writes those of its write column, and not config.txt,
        which main writes; the tree is every write column's artifacts and
        config.txt and runs.txt.  A raster stem stands for its .hdr and .bin
        files.  runs.txt, the record that _run reads and writes around every
        stage, is left out of the columns."""
        out = tmp_path / "out"
        current = [None]  # the stage running now
        opened = {name: set() for name in cli.STAGES}
        written = {name: set() for name in cli.STAGES}

        def artifact(name):
            stem, ext = os.path.splitext(name)
            return stem if ext in (".hdr", ".bin") else name

        def files(artifacts):
            return {name for a in artifacts
                    for name in ((a,) if "." in a else (f"{a}.hdr", f"{a}.bin"))}

        def note(path, writes):
            path = Path(path)
            if current[0] is not None and path.parent == out and path.name != "runs.txt":
                (written if writes else opened)[current[0]].add(path.name)

        def watched(method, writes):
            def call(self, *args, **kwargs):
                note(self, writes)
                return method(self, *args, **kwargs)
            return call

        def watched_open(file, mode="r", *args, real_open=builtins.open, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                note(file, any(c in mode for c in "wax+"))
            return real_open(file, mode, *args, **kwargs)

        def in_stage(name, step):
            def run(cfg, out):
                current[0] = name
                try:
                    step(cfg, out)
                finally:
                    current[0] = None
            return run

        monkeypatch.setattr(builtins, "open", watched_open)
        for method, writes in (("read_text", False), ("read_bytes", False),
                               ("write_text", True), ("write_bytes", True)):
            monkeypatch.setattr(Path, method, watched(getattr(Path, method), writes))
        monkeypatch.setattr(cli, "RUN_ALL_ORDER",
                            tuple((n, in_stage(n, step)) for n, step in cli.RUN_ALL_ORDER))
        assert cli.main(["run-all", "--out", str(out)]) == 0
        monkeypatch.undo()
        assert opened == {name: files(reads) for name, (_, reads, _) in cli.STAGES.items()}
        assert written == {name: files(writes) for name, (_, _, writes) in cli.STAGES.items()}
        tree = {"config.txt", "runs.txt"}.union(*(writes for _, _, writes in cli.STAGES.values()))
        assert {artifact(p.name) for p in out.iterdir()} == tree

    def test_run_all_starts_a_fresh_record(self, pipeline_dir, tmp_path):
        """run-all numbers the stages' runs from 1 in RUN_ALL_ORDER, and into
        a directory with an older runs.txt writes the same record."""
        assert (pipeline_dir / "runs.txt").read_text() == "".join(
            f"{name} = {i}\n" for i, (name, _) in enumerate(cli.RUN_ALL_ORDER, 1))
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        for stage in ("classify-ms", "segment"):
            assert cli.main([stage, "--out", str(out)]) == 0
        assert (out / "runs.txt").read_text() != (pipeline_dir / "runs.txt").read_text()
        assert cli.main(["run-all", "--out", str(out)]) == 0
        assert (out / "runs.txt").read_text() == (pipeline_dir / "runs.txt").read_text()

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

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_exit_code(self, pipeline_dir, tmp_path, capsys, case):
        """Each bad input stops its stage with its exit code and one line on
        stderr that says what is wrong, and no traceback.  The stage writes
        nothing: every artifact, runs.txt among them, keeps its bytes and its
        mtime.  (Every stage rewrites config.txt, the effective config,
        before it starts.)"""
        stage, damage, code, message = BAD_INPUTS[case]
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        damage(out)
        before = _artifact_state(out)
        assert cli.main([stage, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert message.format(out=out) in err
        assert _artifact_state(out) == before

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
        assert "class_truth.hdr: grid differs from the truth grid" in capsys.readouterr().err

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


class TestSegmentStage:
    def test_stats_phase_holds_no_profiles(self, pipeline_dir, tmp_path, monkeypatch):
        """``segment`` takes the mp_std plane and frees the ten profile bands
        before it resamples the three fields, so its traced peak inside
        segment_stats on the fixture stays below 64 bytes a pixel: the PAN
        band and the labels (4 each), the mp_std plane (8) and the three
        fields (4 each) are held, and segment_stats's own work takes about
        three int64 planes (24).  The profile bands would add 40."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        segment_stats, peaks = cli.segment_stats, []

        def traced_stats(*args):
            tracemalloc.reset_peak()
            result = segment_stats(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return result

        monkeypatch.setattr(cli, "segment_stats", traced_stats)
        tracemalloc.start()
        try:
            cli.COMMANDS["segment"](PipelineConfig(), out)
        finally:
            tracemalloc.stop()
        [peak] = peaks
        assert peak < 64 * read_raster(out / "pan.hdr").data.size

    @pytest.mark.parametrize("stage,bound", [("shadow", 46), ("fuse", 25), ("postclass", 26)])
    def test_segment_map_readers_hold_no_segments_raster(self, pipeline_dir, tmp_path, stage,
                                                         bound):
        """shadow, fuse and postclass read the float32 segments raster only to
        build the SegmentMap, which keeps int32 labels, and the raster is
        freed before the stage runs.  Their traced peaks, read and write
        included, on the fixture were 44.3, 23.1 and 24.1 bytes a pixel, each
        set inside the stage; with the raster held through the stage they
        were 48.3, 27.1 and 28.1, its 4 bytes a pixel more.  Each bound is the
        measured peak plus 2 bytes a pixel, half the raster."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_dir, out)
        tracemalloc.start()
        try:
            cli.COMMANDS[stage](PipelineConfig(), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * read_raster(out / "pan.hdr").data.size


def _on_segment_grid(segmap, pan, p_ms, p_lan, ms_class, **_):
    return all(plane.shape == segmap.labels.shape for plane in (pan, p_ms, p_lan, ms_class))


# The rules that a kernel leaves to the stage that calls it, as (module the
# kernel is called from, kernel, rule on its arguments by name): the stage has
# read, checked or computed the arguments so that the rule holds, and the
# kernel does not test it again.
KERNEL_RULES = {
    "window_ratio-odd-window": (
        shadow, "window_ratio", lambda window, **_: window >= 1 and window % 2 == 1),
    "window_reduce-profile-window-on-the-axis": (
        segmentation, "window_reduce",
        lambda values, length, axis, **_: 1 <= length <= values.shape[axis]),
    "window_reduce-shadow-run-on-the-axis": (
        shadow, "window_reduce",
        lambda values, length, axis, **_: 1 <= length <= values.shape[axis]),
    "morphological_profiles-one-band-pan": (
        cli, "morphological_profiles", lambda pan, **_: pan.bands == 1),
    "pca_fuse-one-band-pan": (cli, "pca_fuse", lambda pan, **_: pan.bands == 1),
    "pca_fuse-ms-covers-pan": (
        cli, "pca_fuse", lambda ms, pan, **_: ms.geometry.covers(pan.geometry)),
    "resample_nearest-source-covers-target": (
        cli, "resample_nearest", lambda src, target, **_: src.covers(target)),
    "kmeans_segment-profiles-on-the-pan-grid": (
        cli, "kmeans_segment", lambda pan, mps, **_: mps.geometry == pan.geometry),
    "segment_stats-rasters-on-the-segment-grid": (cli, "segment_stats", _on_segment_grid),
    "segment_stats-mp_std-covers-the-segment-grid": (
        cli, "segment_stats", lambda segmap, mp_std, **_: mp_std.shape == segmap.labels.shape),
    "classify_segments_majority-votes-in-every-segment": (
        cli, "classify_segments_majority",
        lambda segmap, **_: (segmap.records.votes.sum(axis=1) > 0).all()),
    "fit_classifier-one-label-a-row": (
        cli, "fit_classifier",
        lambda spectra, labels, **_: spectra.ndim == 2 and len(spectra) == len(labels)),
    "fit_classifier-finite-spectra": (
        cli, "fit_classifier", lambda spectra, **_: np.isfinite(spectra).all()),
    "classify_probabilities-bands-of-the-model": (
        cli, "classify_probabilities",
        lambda model, raster, **_: raster.bands == model.means.shape[1]),
    "landsat_water_index-dates-in-the-stack": (
        cli, "landsat_water_index", lambda stack, **_: len(stack) >= 1),
    "landsat_water_index-one-grid": (
        cli, "landsat_water_index",
        lambda stack, **_: all(raster.geometry == stack[0].geometry for raster in stack)),
    "otsu_threshold-finite-pan": (
        cli, "otsu_threshold", lambda values, **_: np.isfinite(values).all()),
    "otsu_threshold-finite-profile-deviations": (
        shadow, "otsu_threshold", lambda values, **_: np.isfinite(values).all()),
    "stratified_sample-one-count-per-class": (
        cli, "stratified_sample", lambda counts, **_: len(counts) == len(cli.CLASS_ORDER)),
    "confusion_matrix-flags-of-one-shape": (
        cli, "confusion_matrix",
        lambda predicted, reference, **_: np.shape(predicted) == np.shape(reference)),
}


class TestKernelRules:
    """Each rule that a kernel trusts its caller for holds on every call
    that run-all makes: the check lives where the data enters."""

    @pytest.fixture(scope="class")
    def held(self, tmp_path_factory):
        """For each rule, whether it held, one entry per call in run-all."""
        held = {case: [] for case in KERNEL_RULES}
        with pytest.MonkeyPatch.context() as mp:
            for case, (module, name, rule) in KERNEL_RULES.items():
                kernel = getattr(module, name)
                signature = inspect.signature(kernel)

                @functools.wraps(kernel)  # a kernel with two rules is wrapped twice
                def checked(*args, kernel=kernel, signature=signature, rule=rule,
                            calls=held[case], **kwargs):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    calls.append(bool(rule(**bound.arguments)))
                    return kernel(*args, **kwargs)

                mp.setattr(module, name, checked)
            out = tmp_path_factory.mktemp("kernel_rules")
            assert cli.main(["run-all", "--out", str(out)]) == 0
        return held

    @pytest.mark.parametrize("case", KERNEL_RULES)
    def test_rule_holds_on_every_call(self, held, case):
        assert held[case] and all(held[case]), held[case]


class TestWithoutScipy:
    """The pipeline needs numpy alone: scipy is a test dependency."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def run_python(self, code, *args):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_import_loads_no_scipy(self):
        done = self.run_python(
            "import sys\n"
            "import aquafuse.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_run_all_with_scipy_blocked(self, pipeline_dir, tmp_path):
        """With ``sys.modules["scipy"] = None`` any scipy import fails, and
        run-all still writes every report, byte-identical to the fixture's."""
        out = tmp_path / "out"
        done = self.run_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from aquafuse.cli import main\n"
            "sys.exit(main(['run-all', '--out', sys.argv[1]]))\n", str(out))
        assert done.returncode == 0, done.stderr
        for stem in cli.PREDICTION_STEMS:
            report = f"report_{stem}.txt"
            assert (out / report).read_bytes() == (pipeline_dir / report).read_bytes()
