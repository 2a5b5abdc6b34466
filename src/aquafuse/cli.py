"""Pipeline orchestration: subcommands wiring the library modules end-to-end.

Every subcommand reads and writes named artifacts inside one output
directory, so `run-all` is exactly the composition of the individual steps.
`STAGES` lists the stages in run-all order, each with the artifacts it reads
and writes.
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
from .scene import DEFAULT_SCENE_TEXT, LANDSAT_DAYS, SceneError, generate_scene, parse_scene
from .segmentation import (band_std, kmeans_segment, load_segment_stats,
                           morphological_profiles, paint_segments, segment_stats)
from .shadow import (OBJECT_KIND_HIGH_BUILDING, OBJECT_KIND_LOW_BUILDING, OBJECT_KIND_TREE,
                     building_intensity_map, classify_segments_majority,
                     potential_shadow_mask, tree_grass_split)
from .spectral import (CLASS_ORDER, ComputeError, classify_probabilities, fit_classifier,
                       landsat_water_index, otsu_threshold, pca_fuse)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_COMPUTE = 4


# ---------------------------------------------------------------------------
# artifact helpers; a missing input is reported by the reader that opens it

def _load_raster(out: Path, stem: str) -> RasterGrid:
    return read_raster(out / f"{stem}.hdr")


def _load_pan(out: Path) -> RasterGrid:
    """The PAN raster, which must have one band: a stage that reads it checks
    that before it writes anything."""
    pan = _load_raster(out, "pan")
    if pan.bands != 1:
        raise RasterError(f"{out / 'pan'}.hdr: PAN raster must have exactly 1 band, "
                          f"got {pan.bands}")
    return pan


def _load_classes(out: Path, stem: str) -> RasterGrid:
    """The class-code raster ``stem``, whose codes must index CLASS_ORDER."""
    raster = _load_raster(out, stem)
    if not np.isin(raster.data, np.arange(len(CLASS_ORDER))).all():
        raise RasterError(f"{out / stem}.hdr: class codes must be whole numbers "
                          f"in 0..{len(CLASS_ORDER) - 1}")
    return raster


def _write(out: Path, stem: str, raster: RasterGrid) -> None:
    write_raster(raster, out / f"{stem}.hdr")


def _write_mask(out: Path, stem: str, mask: BinaryMask) -> None:
    write_raster(mask.as_raster(stem), out / f"{stem}.hdr")


def _write_water(out: Path, stem: str, probs: RasterGrid) -> None:
    """The water map of the pixels whose ``p_water`` exceeds 0.5."""
    _write_mask(out, stem, BinaryMask(probs.geometry, probs.band("p_water") > 0.5))


def _write_facts(out: Path, stem: str, **facts) -> None:
    """``<stem>.txt``: a ``key = value`` line a fact, a bool as true/false, else its repr."""
    (out / f"{stem}.txt").write_text("".join(
        f"{k} = {str(v).lower() if isinstance(v, bool) else repr(v)}\n" for k, v in facts.items()))


LANDSAT_STEMS = tuple(f"landsat_d{day:03d}" for day in LANDSAT_DAYS)


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


def _segment_share(out: Path, segmap, stem: str):
    """Each segment's share of the pixels set in the mask ``stem``."""
    mask = read_mask(out / f"{stem}.hdr")
    if mask.geometry != segmap.geometry:
        raise RasterError(f"{out / stem}.hdr: grid differs from the segments raster")
    return segmap.mean(mask.bits)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(cfg: PipelineConfig, out: Path) -> None:
    text = Path(cfg.scene).read_text() if cfg.scene else DEFAULT_SCENE_TEXT
    spec = parse_scene(text)
    bundle = generate_scene(spec)
    (out / "scene.txt").write_text(text)
    _write(out, "pan", bundle.pan)
    _write(out, "ms", bundle.ms)
    for stem, raster in zip(LANDSAT_STEMS, bundle.landsat):
        _write(out, stem, raster)
    _write_mask(out, "truth", bundle.truth)
    _write(out, "class_truth", bundle.class_truth)
    _write_mask(out, "shadow_truth", bundle.shadow_truth)
    write_table(np.array(bundle.train_sites, dtype=SITE_DTYPE), out / "train_sites.npy")


def cmd_classify_ms(cfg: PipelineConfig, out: Path) -> None:
    ms = _load_raster(out, "ms")
    probs, class_map = _classify(ms, out)
    _write(out, "ms_prob", probs)
    _write(out, "ms_class", class_map)
    _write_water(out, "ms_water", probs)


def cmd_water_index(cfg: PipelineConfig, out: Path) -> None:
    stack = [_load_raster(out, stem) for stem in LANDSAT_STEMS]
    wi = landsat_water_index(stack)
    _write(out, "landsat_wi", wi)
    _write_water(out, "landsat_water", wi)


def cmd_pca_fuse(cfg: PipelineConfig, out: Path) -> None:
    ms = _load_raster(out, "ms")
    pan = _load_pan(out)
    fused = pca_fuse(ms, pan)
    _write(out, "pca_fused", fused)
    probs, _ = _classify(fused, out)
    _write(out, "pca_prob", probs)
    _write_water(out, "pca_water", probs)


def cmd_segment(cfg: PipelineConfig, out: Path) -> None:
    pan = _load_pan(out)
    ms_prob = _load_raster(out, "ms_prob")
    ms_class = _load_classes(out, "ms_class")
    landsat_wi = _load_raster(out, "landsat_wi")
    t_pan = cfg.t_pan if cfg.t_pan is not None else otsu_threshold(pan.data[0])

    mps = morphological_profiles(pan)
    segmap = kmeans_segment(pan, mps, k=cfg.kmeans_k)
    mp_std = band_std(mps.data)
    del mps  # the ten profile bands are freed before the fields are resampled
    # resampled to the PAN grid only now, so that k-means does not hold them
    p_ms_field = resample_nearest(
        RasterGrid(ms_prob.geometry, ms_prob.band("p_water")[np.newaxis], ["p_water"]),
        pan.geometry)
    segment_stats(segmap, pan, mp_std, p_ms_field, resample_nearest(landsat_wi, pan.geometry),
                  resample_nearest(ms_class, pan.geometry), t_pan)
    classify_segments_majority(segmap)
    tree_grass_split(segmap, t_tree=cfg.t_tree)

    # written only now, so that a stage that fails on its inputs writes nothing
    _write_facts(out, "t_pan", t_pan=t_pan)
    _write_mask(out, "pan_water", BinaryMask(pan.geometry, pan.data[0] < t_pan))
    _write_facts(out, "kmeans", iterations=segmap.kmeans_iterations,
                 converged=segmap.kmeans_converged, objective=segmap.kmeans_objective,
                 segments=segmap.count)
    _write(out, "segments", RasterGrid(pan.geometry, segmap.labels, ["segment"]))
    write_table(segmap.records, out / SEGMENT_TABLE)


def cmd_shadow(cfg: PipelineConfig, out: Path) -> None:
    path = out / "scene.txt"
    try:  # synth wrote it, so a bad line is a damaged artifact
        sun = parse_scene(path.read_text()).sun
    except SceneError as exc:
        raise RasterError(f"{path}: {exc}") from None
    segmap = _load_segments(out)
    tree_px = (segmap.records.label == "tree")[segmap.labels]
    imp_px = (segmap.records.label == "impervious")[segmap.labels]
    intensity = building_intensity_map(BinaryMask(segmap.geometry, imp_px),
                                       cfg.intensity_window, cfg.intensity_ratio)

    kinds = np.zeros(segmap.labels.shape, dtype=np.int32)
    kinds[tree_px] = OBJECT_KIND_TREE
    kinds[imp_px & intensity.bits] = OBJECT_KIND_HIGH_BUILDING
    kinds[imp_px & ~intensity.bits] = OBJECT_KIND_LOW_BUILDING
    _write(out, "object_kinds", RasterGrid(segmap.geometry, kinds, ["kind"]))

    heights = {OBJECT_KIND_HIGH_BUILDING: (cfg.height_high_min, cfg.height_high_max),
               OBJECT_KIND_LOW_BUILDING: (cfg.height_low_min, cfg.height_low_max),
               OBJECT_KIND_TREE: (cfg.height_tree_min, cfg.height_tree_max)}
    shadow_mask = potential_shadow_mask(kinds, sun, heights, segmap.geometry)
    _write_mask(out, "potential_shadow", shadow_mask)


def cmd_fuse(cfg: PipelineConfig, out: Path) -> None:
    params = FusionParams(n1=cfg.n1, n2=cfg.n2,
                          r_ms=read_header(out / "ms.hdr")[0].pixel_size,
                          r_l=read_header(out / "landsat_wi.hdr")[0].pixel_size,
                          decision_threshold=cfg.decision_threshold)
    segmap = _load_segments(out)
    p_w, water = fuse_all_segments(segmap, params, _segment_share(out, segmap, "potential_shadow"))
    _write_facts(out, "fuse", landsat_active=int(landsat_active(segmap.records.w, params).sum()),
                 water_segments=int(water.sum()))
    _write(out, "pgm_prob", paint_segments(segmap, p_w, band_name="p_water"))
    _write(out, "pgm_water", paint_segments(segmap, water, "pgm_water"))


def cmd_postclass(cfg: PipelineConfig, out: Path) -> None:
    segmap = _load_segments(out)
    water = _segment_share(out, segmap, "pgm_water") > 0.5
    final = relabel_shadow_segments(water, _segment_share(out, segmap, "potential_shadow"),
                                    cfg.shadow_relabel_threshold)
    _write_facts(out, "postclass", relabeled=int((water & ~final).sum()))
    _write(out, "water_final", paint_segments(segmap, final, "water_final"))


PREDICTION_STEMS = ("water_final", "pgm_water", "ms_water", "pca_water",
                    "pan_water", "landsat_water")


def cmd_evaluate(cfg: PipelineConfig, out: Path) -> None:
    truth = read_mask(out / "truth.hdr")
    class_truth = _load_classes(out, "class_truth")
    if class_truth.geometry != truth.geometry:
        raise RasterError(f"{out / 'class_truth.hdr'}: grid differs from the truth mask")
    samples = stratified_sample(class_truth.data[0],
                                [getattr(cfg, f"eval_{c}") for c in CLASS_ORDER], seed=cfg.seed)
    reference = truth.bits.ravel()[samples]

    stems = [stem for stem in PREDICTION_STEMS if (out / f"{stem}.hdr").exists()]
    if not stems:
        raise RasterError(f"no prediction artifacts in {out} (expected one of {PREDICTION_STEMS})")
    for stem in stems:
        pred = read_mask(out / f"{stem}.hdr").as_raster(stem)
        if pred.geometry != truth.geometry:
            pred = resample_nearest(pred, truth.geometry)
        predicted = pred.data[0].ravel()[samples] == 1
        report = format_report(confusion_matrix(predicted, reference), title=stem)
        (out / f"report_{stem}.txt").write_text(report + "\n")


# Each stage, in run-all order: its command, the artifacts it reads and the
# artifacts it writes.  An artifact is a raster stem (pan, for pan.hdr and
# pan.bin) or a file name.  main writes config.txt and _run runs.txt.
STAGES = {
    "synth": (cmd_synth, (), ("scene.txt", "pan", "ms", *LANDSAT_STEMS, "truth", "class_truth",
                              "shadow_truth", "train_sites.npy")),
    "classify-ms": (cmd_classify_ms, ("ms", "train_sites.npy"),
                    ("ms_prob", "ms_class", "ms_water")),
    "water-index": (cmd_water_index, LANDSAT_STEMS, ("landsat_wi", "landsat_water")),
    "pca-fuse": (cmd_pca_fuse, ("ms", "pan", "train_sites.npy"),
                 ("pca_fused", "pca_prob", "pca_water")),
    "segment": (cmd_segment, ("pan", "ms_prob", "ms_class", "landsat_wi"),
                ("t_pan.txt", "pan_water", "kmeans.txt", "segments", SEGMENT_TABLE)),
    "shadow": (cmd_shadow, ("scene.txt", "segments", SEGMENT_TABLE),
               ("object_kinds", "potential_shadow")),
    "fuse": (cmd_fuse, ("ms", "landsat_wi", "segments", SEGMENT_TABLE, "potential_shadow"),
             ("fuse.txt", "pgm_prob", "pgm_water")),
    "postclass": (cmd_postclass, ("segments", SEGMENT_TABLE, "pgm_water", "potential_shadow"),
                  ("postclass.txt", "water_final")),
    "evaluate": (cmd_evaluate, ("truth", "class_truth", *PREDICTION_STEMS),
                 tuple(f"report_{stem}.txt" for stem in PREDICTION_STEMS)),
}

RUN_ALL_ORDER = tuple((name, step) for name, (step, _, _) in STAGES.items())

# the stages whose artifacts each stage reads, in run-all order
READS = {name: tuple(stage for stage, (_, _, writes) in STAGES.items() if set(reads) & set(writes))
         for name, (_, reads, _) in STAGES.items()}


def _run(name: str, step, cfg: PipelineConfig, out: Path) -> None:
    """Run stage ``name`` unless a stage it reads is out of date; record the run in runs.txt."""
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
    step(cfg, out)
    runs[name] = max(runs.values(), default=0) + 1
    _write_facts(out, "runs", **runs)


def cmd_run_all(cfg: PipelineConfig, out: Path) -> None:
    _write_facts(out, "runs", **dict.fromkeys(STAGES, 0))  # a fresh record, in which no stage ran
    for name, step in RUN_ALL_ORDER:
        _run(name, step, cfg, out)


COMMANDS = {n: partial(_run, n, step) for n, step in RUN_ALL_ORDER} | {"run-all": cmd_run_all}


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
