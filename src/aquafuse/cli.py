"""Pipeline orchestration: subcommands wiring the library modules end-to-end.

Every subcommand reads and writes named artifacts inside one output
directory, so `run-all` is exactly the composition of the individual steps.
`STAGES` lists the stages in run-all order, each with the artifacts it reads
and writes.  A stage command opens no file: it takes the config and the
artifacts of its read column and returns those of its write column.  `_run`
reads the column through `_read`, which checks each rule on the data, calls
the command, and only after it returns writes each value through `_write`
and records the run in `runs.txt`; so a stage that stops writes nothing.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig, format_config, load_config
from .evaluate import confusion_matrix, format_report, stratified_sample
from .fusion import FusionParams, fuse_all_segments, landsat_active
from .postclass import relabel_shadow_segments
from .raster import (BinaryMask, RasterError, RasterGrid, read_header, read_mask, read_raster,
                     read_table, resample_nearest, write_raster, write_table)
from .scene import (DEFAULT_SCENE_TEXT, LANDSAT_DAYS, SENSORS, SceneError, generate_scene,
                    parse_scene)
from .segmentation import (band_std, kmeans_segment, load_segment_stats,
                           morphological_profiles, paint_segments, segment_stats)
from .shadow import building_intensity_map, potential_shadow_mask
from .spectral import (CLASS_ORDER, ComputeError, classify_probabilities, fit_classifier,
                       landsat_water_index, otsu_threshold, pca_fuse)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


LANDSAT_STEMS = tuple(f"landsat_d{day:03d}" for day in LANDSAT_DAYS)

# one row per training site: its stratum and map coordinates (m)
SITE_DTYPE = np.dtype([("cls", "<U10"), ("x", "<f8"), ("y", "<f8")])

SEGMENT_TABLE = "segment_table.npy"

PREDICTION_STEMS = ("water_final", "pgm_water", "ms_water", "pca_water",
                    "pan_water", "landsat_water")


def _sample_spectra(raster: RasterGrid, sites):
    """(n, bands) spectra of the pixels under the sites, and their labels."""
    geometry = raster.geometry
    row, col = geometry.locate(sites["x"], sites["y"])
    outside = ~((-0.5 <= row) & (row < geometry.height - 0.5)
                & (-0.5 <= col) & (col < geometry.width - 0.5))
    if outside.any():
        cls, x, y = sites[np.argmax(outside)].tolist()
        raise RasterError(f"training site {cls} {x!r} {y!r} lies outside the raster")
    spectra = raster.data[:, row.astype(int), col.astype(int)].T
    return np.ascontiguousarray(spectra), sites["cls"]


def _classify(raster: RasterGrid, sites):
    """Fit the Gaussian classifier to the spectra of ``raster`` under the
    training sites and apply it to every pixel: ``(probabilities, class_map)``."""
    return classify_probabilities(fit_classifier(*_sample_spectra(raster, sites)), raster)


def _water(probs: RasterGrid) -> BinaryMask:
    """The water map of the pixels whose ``p_water`` exceeds 0.5."""
    return BinaryMask(probs.geometry, probs.band("p_water") > 0.5)


# ---------------------------------------------------------------------------
# stages: each takes the config and the artifacts of its read column in STAGES,
# in column order, and returns the values of its write column, in column order

def cmd_synth(cfg: PipelineConfig, text: str):
    bundle = generate_scene(parse_scene(text))
    return (text, bundle.pan, bundle.ms, *bundle.landsat, bundle.truth, bundle.class_truth,
            bundle.shadow_truth, np.array(bundle.train_sites, dtype=SITE_DTYPE))


def cmd_classify_ms(cfg: PipelineConfig, ms, sites):
    probs, class_map = _classify(ms, sites)
    return probs, class_map, _water(probs)


def cmd_water_index(cfg: PipelineConfig, *stack):
    wi = landsat_water_index(stack)
    return wi, _water(wi)


def cmd_pca_fuse(cfg: PipelineConfig, ms, pan, sites):
    probs, _ = _classify(pca_fuse(ms, pan), sites)
    return probs, _water(probs)


def cmd_segment(cfg: PipelineConfig, pan, ms_prob, ms_class, landsat_wi):
    t_pan = cfg.t_pan if cfg.t_pan is not None else otsu_threshold(pan.data[0])

    mps = morphological_profiles(pan)
    segmap = kmeans_segment(pan, mps, k=cfg.kmeans_k)
    mp_std = band_std(mps.data)
    del mps  # the ten profile bands are freed before the fields are resampled
    # resampled to the PAN grid only now, so that k-means does not hold them
    segment_stats(segmap, pan.data[0], mp_std,
                  resample_nearest(ms_prob.band("p_water"), ms_prob.geometry, pan.geometry),
                  resample_nearest(landsat_wi.data[0], landsat_wi.geometry, pan.geometry),
                  resample_nearest(ms_class.data[0], ms_class.geometry, pan.geometry),
                  t_pan, cfg.t_tree)
    return ({"t_pan": t_pan}, BinaryMask(pan.geometry, pan.data[0] < t_pan),
            {"iterations": segmap.kmeans_iterations, "converged": segmap.kmeans_converged,
             "objective": segmap.kmeans_objective, "segments": segmap.count},
            RasterGrid(pan.geometry, segmap.labels, ["segment"]), segmap.records)


def cmd_shadow(cfg: PipelineConfig, scene, segmap):
    tree_px = (segmap.records.label == "tree")[segmap.labels]
    imp_px = (segmap.records.label == "impervious")[segmap.labels]
    intensity = building_intensity_map(imp_px, cfg.intensity_window, cfg.intensity_ratio)
    casters = [(tree_px, (cfg.height_tree_min, cfg.height_tree_max)),
               (imp_px & intensity, (cfg.height_high_min, cfg.height_high_max)),
               (imp_px & ~intensity, (cfg.height_low_min, cfg.height_low_max))]
    return (potential_shadow_mask(casters, scene.sun, segmap.geometry),)


def cmd_fuse(cfg: PipelineConfig, ms_grid, landsat_wi_grid, segmap, shadow):
    params = FusionParams(n1=cfg.n1, n2=cfg.n2, r_ms=ms_grid.pixel_size,
                          r_l=landsat_wi_grid.pixel_size,
                          decision_threshold=cfg.decision_threshold)
    p_w, water = fuse_all_segments(segmap, params, segmap.mean(shadow.bits))
    return ({"landsat_active": int(landsat_active(segmap.records.w, params).sum()),
             "water_segments": int(water.sum())},
            paint_segments(segmap, p_w, band_name="p_water"),
            paint_segments(segmap, water, "pgm_water"))


def cmd_postclass(cfg: PipelineConfig, segmap, pgm_water, shadow):
    water = segmap.mean(pgm_water.bits) > 0.5
    final = relabel_shadow_segments(water, segmap.mean(shadow.bits),
                                    cfg.shadow_relabel_threshold)
    return ({"relabeled": int((water & ~final).sum())},
            paint_segments(segmap, final, "water_final"))


def cmd_evaluate(cfg: PipelineConfig, truth, class_truth, *maps):
    samples = stratified_sample(class_truth.data[0],
                                [getattr(cfg, f"eval_{c}") for c in CLASS_ORDER], seed=cfg.seed)
    reference = truth.bits.ravel()[samples]
    # each map is looked up, in its own grid, at the centers of the sampled pixels
    x, y = truth.geometry.pixel_center(*np.divmod(samples, truth.geometry.width))
    reports = []
    for stem, mask in zip(PREDICTION_STEMS, maps):
        predicted = mask.bits[mask.geometry.pixel_of(x, y)]
        reports.append(format_report(confusion_matrix(predicted, reference), title=stem) + "\n")
    return reports


# Each stage, in run-all order: its command, the artifacts it reads and the
# artifacts it writes.  An artifact is a raster stem (pan, for pan.hdr and
# pan.bin) or a file name; a read .hdr file stands for its grid alone.  main
# writes config.txt and _run runs.txt.
STAGES = {
    "synth": (cmd_synth, (), ("scene.txt", "pan", "ms", *LANDSAT_STEMS, "truth", "class_truth",
                              "shadow_truth", "train_sites.npy")),
    "classify-ms": (cmd_classify_ms, ("ms", "train_sites.npy"),
                    ("ms_prob", "ms_class", "ms_water")),
    "water-index": (cmd_water_index, LANDSAT_STEMS, ("landsat_wi", "landsat_water")),
    "pca-fuse": (cmd_pca_fuse, ("ms", "pan", "train_sites.npy"),
                 ("pca_prob", "pca_water")),
    "segment": (cmd_segment, ("pan", "ms_prob", "ms_class", "landsat_wi"),
                ("t_pan.txt", "pan_water", "kmeans.txt", "segments", SEGMENT_TABLE)),
    "shadow": (cmd_shadow, ("scene.txt", "segments", SEGMENT_TABLE),
               ("potential_shadow",)),
    "fuse": (cmd_fuse, ("ms.hdr", "landsat_wi.hdr", "segments", SEGMENT_TABLE,
                        "potential_shadow"),
             ("fuse.txt", "pgm_prob", "pgm_water")),
    "postclass": (cmd_postclass, ("segments", SEGMENT_TABLE, "pgm_water", "potential_shadow"),
                  ("postclass.txt", "water_final")),
    "evaluate": (cmd_evaluate, ("truth", "class_truth", *PREDICTION_STEMS),
                 tuple(f"report_{stem}.txt" for stem in PREDICTION_STEMS)),
}

# the stages whose artifacts each stage reads, in run-all order; x.hdr is x's
READS = {name: tuple(stage for stage, (_, _, writes) in STAGES.items()
                     if {read.removesuffix(".hdr") for read in reads} & set(writes))
         for name, (_, reads, _) in STAGES.items()}

# the band names, as its writer gives them, of each raster whose bands a stage takes
BANDS = {stem: bands for sensor, bands, _ in SENSORS
         for stem in (LANDSAT_STEMS if sensor == "landsat" else (sensor,))}
BANDS["ms_prob"] = tuple(f"p_{c}" for c in CLASS_ORDER)

# the artifacts read as masks, whose samples must be exactly 0 or 1
MASKS = {"truth", "potential_shadow", *PREDICTION_STEMS}

# each rule between two grids of a stage's read column: (artifact, target, "=")
# for the target's grid, or "covers" for a grid that holds every target pixel center
GRIDS = {
    "water-index": [(stem, LANDSAT_STEMS[0], "=") for stem in LANDSAT_STEMS[1:]],
    "pca-fuse": [("ms", "pan", "covers")],
    "segment": [(stem, "pan", "covers") for stem in ("ms_prob", "ms_class", "landsat_wi")],
    "fuse": [("potential_shadow", "segments", "=")],
    "postclass": [("pgm_water", "segments", "="), ("potential_shadow", "segments", "=")],
    "evaluate": [("class_truth", "truth", "="),
                 *((stem, "truth", "covers") for stem in PREDICTION_STEMS)],
}


# ---------------------------------------------------------------------------
# artifact I/O: _run alone calls these, and each rule on read data is checked
# here, in an error that names the file

def _read(out: Path, name: str) -> list:
    """The artifacts of stage ``name``'s read column, in column order, the segments
    raster and the table after it as one SegmentMap.  The GRIDS rules are
    checked once the whole column is read, as pca-fuse reads ms before pan."""
    values = {}
    for artifact in STAGES[name][1]:
        path = out / (artifact if "." in artifact else f"{artifact}.hdr")
        if artifact.endswith(".hdr"):
            value = read_header(path)[0]
        elif artifact == "scene.txt":
            try:  # synth wrote it, so a bad line is a damaged artifact
                value = parse_scene(path.read_text())
            except SceneError as exc:
                raise RasterError(f"{path}: {exc}") from None
        elif artifact == "train_sites.npy":
            value = read_table(path, SITE_DTYPE)
        elif artifact == SEGMENT_TABLE:  # one SegmentMap with the raster before it
            value = values.pop("segments")  # the raster is freed once the map is built
            artifact, value = "segments", load_segment_stats(path, value)
        elif artifact in MASKS:
            value = read_mask(path)
        else:
            value = read_raster(path)
        if artifact in BANDS and tuple(value.band_names) != BANDS[artifact]:
            raise RasterError(f"{path}: band_names must be {','.join(BANDS[artifact])}, "
                              f"got {','.join(value.band_names)}")
        if artifact in ("ms_prob", "landsat_wi") and not (
                0 <= value.data.min() <= value.data.max() <= 1):
            raise RasterError(f"{path}: probabilities must be in [0, 1]")
        if artifact in ("ms_class", "class_truth") and not np.isin(
                value.data, np.arange(len(CLASS_ORDER))).all():
            raise RasterError(f"{path}: class codes must be whole numbers "
                              f"in 0..{len(CLASS_ORDER) - 1}")
        values[artifact] = value
    for artifact, target, relation in GRIDS.get(name, ()):
        grid, under = values[artifact].geometry, values[target].geometry
        if not (grid == under if relation == "=" else grid.covers(under)):
            verb = "differs from" if relation == "=" else "does not cover"
            raise RasterError(f"{out / artifact}.hdr: grid {verb} the {target} grid")
    return list(values.values())


def _write(out: Path, artifact: str, value) -> None:
    """Write ``value`` as ``artifact``: a raster or a mask under its stem, a
    ``.npy`` table, a text, or a dict of facts as ``key = value`` lines, a
    bool as true/false, any other value as its repr."""
    if isinstance(value, BinaryMask):
        value = RasterGrid(value.geometry, value.bits.astype(np.float32), [artifact])
    if isinstance(value, RasterGrid):
        write_raster(value, out / f"{artifact}.hdr")
    elif isinstance(value, np.ndarray):
        write_table(value, out / artifact)
    else:
        if isinstance(value, dict):
            value = "".join(f"{k} = {str(v).lower() if isinstance(v, bool) else repr(v)}\n"
                            for k, v in value.items())
        (out / artifact).write_text(value)


def _run(name: str, cfg: PipelineConfig, out: Path) -> None:
    """Run stage ``name`` unless a stage it reads is out of date: read its read
    column, call its command, and only after it returns write its write column
    and record the run in runs.txt.  So a stage that stops writes nothing."""
    path = out / "runs.txt"
    runs = {}
    for lineno, line in enumerate(path.read_text().splitlines() if path.exists() else [], 1):
        try:
            stage, n = line.split(" = ")
            n = int(n)
        except ValueError:
            raise RasterError(f"{path}: expected 'stage = run' lines") from None
        if stage not in READS:
            raise RasterError(f"{path}:{lineno}: unknown stage {stage!r}")
        if stage in runs:
            raise RasterError(f"{path}:{lineno}: stage {stage!r} given twice")
        runs[stage] = n
    for read in READS[name]:
        if read in runs and any(runs[read] < runs.get(stage, 0) for stage in READS[read]):
            raise RasterError(f"{out}: the artifacts of {read} are out of date (run {read} first)")
    command, _, writes = STAGES[name]
    if name == "synth":  # it reads no artifact, but the scene file that the config names
        values = command(cfg, Path(cfg.scene).read_text() if cfg.scene else DEFAULT_SCENE_TEXT)
    else:
        values = command(cfg, *_read(out, name))
    for artifact, value in zip(writes, values, strict=True):
        _write(out, artifact, value)
    runs[name] = max(runs.values(), default=0) + 1
    _write(out, "runs.txt", runs)


RUN_ALL_ORDER = tuple((name, partial(_run, name)) for name in STAGES)


def cmd_run_all(cfg: PipelineConfig, out: Path) -> None:
    _write(out, "runs.txt", dict.fromkeys(STAGES, 0))  # a fresh record, in which no stage ran
    for _, command in RUN_ALL_ORDER:
        command(cfg, out)


COMMANDS = dict(RUN_ALL_ORDER) | {"run-all": cmd_run_all}


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aquafuse",
        description="surface-water mapping by decision-level fusion of PAN/MS/Landsat imagery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} step")
        p.add_argument("--config", default=None, help="pipeline config file (key = value)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="artifact directory")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.txt").write_text(format_config(cfg))
        COMMANDS[args.command](cfg, out)
    except (ConfigError, SceneError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RasterError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ComputeError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
