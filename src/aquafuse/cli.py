"""Pipeline orchestration: subcommands wiring the library modules end-to-end.

Every subcommand reads and writes named artifacts inside one output
directory, so `run-all` is exactly the composition of the individual steps:

    synth        scene rasters + truth + training sites
    classify-ms  MS classifier posteriors, class map + MS-only water map
    water-index  multi-date Landsat water index + its water map
    pca-fuse     PCA-sharpened baseline + its classifier water map
    segment      morphology, K-Means segments, per-segment statistics
    shadow       object kinds, potential shadow mask, shadow proportions
    fuse         per-segment probabilistic fusion -> PGM water map
    postclass    shadow relabeling -> final map
    evaluate     stratified accuracy reports for every water map present
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, PipelineConfig, format_config, load_config
from .evaluate import EvalError, confusion_matrix, format_report, stratified_sample
from .fusion import FusionParams, fuse_all_segments, landsat_active
from .postclass import relabel_shadow_segments
from .raster import (BinaryMask, RasterError, RasterGrid, read_mask, read_raster,
                     read_table, resample_nearest, write_raster, write_table)
from .scene import DEFAULT_SCENE_TEXT, SceneError, generate_scene, parse_scene
from .segmentation import (SegmentationError, kmeans_segment, load_segment_stats,
                           morphological_profiles, paint_segments, save_segment_stats,
                           segment_stats)
from .shadow import (OBJECT_KIND_HIGH_BUILDING, OBJECT_KIND_LOW_BUILDING, OBJECT_KIND_TREE,
                     ShadowError, building_intensity_map, classify_segments_majority,
                     potential_shadow_mask, tree_grass_split)
from .spectral import (CLASS_ORDER, SpectralError, classify_probabilities, fit_classifier,
                       landsat_water_index, otsu_threshold, pca_fuse)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


# ---------------------------------------------------------------------------
# artifact helpers; a missing input is reported by the reader that opens it

def _load_raster(out: Path, stem: str) -> RasterGrid:
    return read_raster(out / f"{stem}.hdr")


def _write(out: Path, stem: str, raster: RasterGrid) -> None:
    write_raster(raster, out / f"{stem}.hdr")


def _write_mask(out: Path, stem: str, mask: BinaryMask) -> None:
    write_raster(mask.as_raster(stem), out / f"{stem}.hdr")


def _landsat_stems(out: Path):
    stems = sorted(p.stem for p in out.glob("landsat_d*.hdr"))
    if not stems:
        raise RasterError(f"no landsat_d*.hdr artifacts in {out}")
    return stems


# one row per training site: its stratum and map coordinates (m)
SITE_DTYPE = np.dtype([("cls", "<U10"), ("x", "<f8"), ("y", "<f8")])


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


def _classify(raster: RasterGrid, out: Path):
    """Fit the Gaussian classifier to the spectra of ``raster`` under the
    training sites and apply it to every pixel: ``(probabilities, class_map)``."""
    spectra, labels = _sample_spectra(raster, read_table(out / "train_sites.npy", SITE_DTYPE))
    return classify_probabilities(fit_classifier(spectra, labels), raster)


SEGMENT_TABLE = "segment_table.npy"


def _load_segments(out: Path):
    return load_segment_stats(out / SEGMENT_TABLE, _load_raster(out, "segments"))


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: PipelineConfig, out: Path) -> None:
    text = Path(cfg.scene).read_text() if cfg.scene else DEFAULT_SCENE_TEXT
    spec = parse_scene(text)
    bundle = generate_scene(spec)
    (out / "scene.txt").write_text(text)
    _write(out, "pan", bundle.pan)
    _write(out, "ms", bundle.ms)
    for day, raster in zip(bundle.landsat_days, bundle.landsat):
        _write(out, f"landsat_d{day:03d}", raster)
    _write_mask(out, "truth", bundle.truth)
    _write(out, "class_truth", bundle.class_truth)
    _write_mask(out, "shadow_truth", bundle.shadow_truth)
    write_table(np.array(bundle.train_sites, dtype=SITE_DTYPE), out / "train_sites.npy")


def cmd_classify_ms(cfg: PipelineConfig, out: Path) -> None:
    ms = _load_raster(out, "ms")
    probs, class_map = _classify(ms, out)
    _write(out, "ms_prob", probs)
    _write(out, "ms_class", class_map)
    p_water = probs.band("p_water")
    _write_mask(out, "ms_water", BinaryMask(ms.geometry, (p_water > 0.5).astype(np.uint8)))


def cmd_water_index(cfg: PipelineConfig, out: Path) -> None:
    stack = [_load_raster(out, stem) for stem in _landsat_stems(out)]
    wi = landsat_water_index(stack)
    _write(out, "landsat_wi", wi)
    _write_mask(out, "landsat_water",
                BinaryMask(wi.geometry, (wi.data[0] > 0.5).astype(np.uint8)))


def cmd_pca_fuse(cfg: PipelineConfig, out: Path) -> None:
    ms = _load_raster(out, "ms")
    pan = _load_raster(out, "pan")
    fused = pca_fuse(ms, pan)
    _write(out, "pca_fused", fused)
    probs, _ = _classify(fused, out)
    _write(out, "pca_prob", probs)
    p_water = probs.band("p_water")
    _write_mask(out, "pca_water", BinaryMask(pan.geometry, (p_water > 0.5).astype(np.uint8)))


def cmd_segment(cfg: PipelineConfig, out: Path) -> None:
    pan = _load_raster(out, "pan")
    ms_prob = _load_raster(out, "ms_prob")
    ms_class = _load_raster(out, "ms_class")
    landsat_wi = _load_raster(out, "landsat_wi")

    p_ms_field = resample_nearest(
        RasterGrid(ms_prob.geometry, ms_prob.band("p_water")[np.newaxis], ["p_water"]),
        pan.geometry)
    class_up = resample_nearest(ms_class, pan.geometry)
    p_lan_up = resample_nearest(landsat_wi, pan.geometry)

    t_pan = cfg.t_pan if cfg.t_pan is not None else otsu_threshold(pan.data[0])
    (out / "t_pan.txt").write_text(f"t_pan = {t_pan!r}\n")
    _write_mask(out, "pan_water",
                BinaryMask(pan.geometry, (pan.data[0] < t_pan).astype(np.uint8)))

    mps = morphological_profiles(pan)
    segmap = kmeans_segment(pan, mps, k=cfg.kmeans_k)
    (out / "kmeans.txt").write_text(
        f"iterations = {segmap.kmeans_iterations}\n"
        f"objective = {segmap.kmeans_objective!r}\n"
        f"segments = {segmap.count}\n")
    segment_stats(segmap, pan, mps, p_ms_field, p_lan_up, class_up, t_pan)
    classify_segments_majority(segmap)
    tree_grass_split(segmap, t_tree=cfg.t_tree)

    _write(out, "segments",
           RasterGrid(pan.geometry, segmap.labels.astype(np.float32)[np.newaxis], ["segment"]))
    save_segment_stats(segmap, out / SEGMENT_TABLE)


def cmd_shadow(cfg: PipelineConfig, out: Path) -> None:
    sun = parse_scene((out / "scene.txt").read_text()).sun
    segmap = _load_segments(out)
    tree_px = (segmap.records.label == "tree")[segmap.labels]
    imp_px = (segmap.records.label == "impervious")[segmap.labels]
    intensity = building_intensity_map(BinaryMask(segmap.geometry, imp_px),
                                       cfg.intensity_window, cfg.intensity_ratio)

    kinds = np.zeros(segmap.labels.shape, dtype=np.int32)
    kinds[tree_px] = OBJECT_KIND_TREE
    kinds[imp_px & (intensity.bits == 1)] = OBJECT_KIND_HIGH_BUILDING
    kinds[imp_px & (intensity.bits == 0)] = OBJECT_KIND_LOW_BUILDING
    _write(out, "object_kinds",
           RasterGrid(segmap.geometry, kinds.astype(np.float32)[np.newaxis], ["kind"]))

    heights = {OBJECT_KIND_HIGH_BUILDING: (cfg.height_high_min, cfg.height_high_max),
               OBJECT_KIND_LOW_BUILDING: (cfg.height_low_min, cfg.height_low_max),
               OBJECT_KIND_TREE: (cfg.height_tree_min, cfg.height_tree_max)}
    shadow_mask = potential_shadow_mask(kinds, sun, heights, segmap.geometry)
    _write_mask(out, "potential_shadow", shadow_mask)
    segmap.records.p_shadow = segmap.mean(shadow_mask.bits)
    save_segment_stats(segmap, out / SEGMENT_TABLE)


def cmd_fuse(cfg: PipelineConfig, out: Path) -> None:
    params = FusionParams(n1=cfg.n1, n2=cfg.n2,
                          r_ms=_load_raster(out, "ms").geometry.pixel_size,
                          r_l=_load_raster(out, "landsat_wi").geometry.pixel_size,
                          decision_threshold=cfg.decision_threshold)
    segmap = _load_segments(out)
    table = segmap.records
    table.p_w, table.water = fuse_all_segments(segmap, params)
    (out / "fuse.txt").write_text(
        f"landsat_active = {int(landsat_active(table.w, params).sum())}\n"
        f"water_segments = {int(table.water.sum())}\n")
    save_segment_stats(segmap, out / SEGMENT_TABLE)
    _write(out, "pgm_prob", paint_segments(segmap, table.p_w, band_name="p_water"))
    _write(out, "pgm_water", paint_segments(segmap, table.water, "pgm_water"))


def cmd_postclass(cfg: PipelineConfig, out: Path) -> None:
    if not (out / "pgm_water.hdr").exists():
        raise RasterError(f"missing artifact {out / 'pgm_water.hdr'} (run fuse first)")
    segmap = _load_segments(out)
    water = segmap.records.water
    final = relabel_shadow_segments(water, segmap, cfg.shadow_relabel_threshold)
    (out / "postclass.txt").write_text(f"relabeled = {int((water & ~final).sum())}\n")
    _write(out, "water_final", paint_segments(segmap, final, "water_final"))


PREDICTION_STEMS = ("water_final", "pgm_water", "ms_water", "pca_water",
                    "pan_water", "landsat_water")


def cmd_evaluate(cfg: PipelineConfig, out: Path) -> None:
    truth = read_mask(out / "truth.hdr")
    class_truth = _load_raster(out, "class_truth")
    if class_truth.geometry != truth.geometry:
        raise RasterError(f"{out / 'class_truth.hdr'}: grid differs from the truth mask")
    codes = class_truth.data[0]
    if not np.isin(codes, np.arange(len(CLASS_ORDER))).all():
        raise RasterError(f"{out / 'class_truth.hdr'}: class codes must be whole numbers "
                          f"in 0..{len(CLASS_ORDER) - 1}")
    samples = stratified_sample(codes, [getattr(cfg, f"eval_{c}") for c in CLASS_ORDER],
                                seed=cfg.seed)
    reference = truth.bits.ravel()[samples]

    found = False
    for stem in PREDICTION_STEMS:
        if not (out / f"{stem}.hdr").exists():
            continue
        found = True
        pred = read_raster(out / f"{stem}.hdr")
        if pred.geometry != truth.geometry:
            pred = resample_nearest(pred, truth.geometry)
        predicted = pred.data[0].ravel()[samples] > 0.5
        report = format_report(confusion_matrix(predicted, reference), title=stem)
        (out / f"report_{stem}.txt").write_text(report + "\n")
    if not found:
        raise RasterError(f"no prediction artifacts in {out} (expected one of {PREDICTION_STEMS})")


RUN_ALL_ORDER = (
    ("synth", cmd_synth),
    ("classify-ms", cmd_classify_ms),
    ("water-index", cmd_water_index),
    ("pca-fuse", cmd_pca_fuse),
    ("segment", cmd_segment),
    ("shadow", cmd_shadow),
    ("fuse", cmd_fuse),
    ("postclass", cmd_postclass),
    ("evaluate", cmd_evaluate),
)


def cmd_run_all(cfg: PipelineConfig, out: Path) -> None:
    for _, step in RUN_ALL_ORDER:
        step(cfg, out)


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
    except (SpectralError, SegmentationError, ShadowError, EvalError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
