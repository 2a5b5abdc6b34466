"""Flat `key = value` pipeline configuration with strict key checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .fusion import FusionError, FusionParams
from .postclass import PostClassError, PostClassParams
from .shadow import HeightRanges, IntensityParams, ShadowError


class ConfigError(Exception):
    pass


_AUTO = ("auto", "")


@dataclass
class PipelineConfig:
    """Every tunable of the pipeline, with library defaults.

    ``t_pan``, ``t_tree`` and ``sweep_step_m`` accept the string ``auto`` in
    the file form, meaning "derive from the data" (stored here as None).
    Facts of the scene are not tunables: the shadow stage reads the sun from
    the scene, and fusion reads the MS and Landsat resolutions from the
    rasters.
    """

    # scene / orchestration
    scene: str = ""                 # scene description file; "" = bundled default
    seed: int = 0                   # validation sampling seed

    # segmentation
    kmeans_k: int = 8
    t_pan: float | None = None      # PAN water threshold; None = Otsu

    # shadow geometry and object analysis
    t_tree: float | None = None     # tree/grass texture threshold; None = Otsu
    intensity_window: int = 101
    intensity_ratio: float = 0.30
    height_high_min: float = 3.0
    height_high_max: float = 300.0
    height_low_min: float = 3.0
    height_low_max: float = 50.0
    height_tree_min: float = 3.0
    height_tree_max: float = 50.0
    sweep_step_m: float | None = None

    # fusion
    n1: int = 2
    n2: int = 1
    decision_threshold: float = 0.5

    # post-classification
    shadow_relabel_threshold: float = 0.85

    # evaluation (stratified sample sizes per validation class)
    eval_water: int = 300
    eval_vegetation: int = 100
    eval_soil: int = 100
    eval_impervious: int = 100


class StageParams(NamedTuple):
    intensity: IntensityParams
    heights: HeightRanges
    fusion: FusionParams        # at the library's default MS and Landsat resolutions
    postclass: PostClassParams


def stage_params(cfg: PipelineConfig) -> StageParams:
    """The stage parameter objects built from ``cfg``; a value their own range
    checks refuse is a ConfigError."""
    try:
        return StageParams(
            IntensityParams(cfg.intensity_window, cfg.intensity_ratio),
            HeightRanges(
                high_intensity_building=(cfg.height_high_min, cfg.height_high_max),
                low_intensity_building=(cfg.height_low_min, cfg.height_low_max),
                tree=(cfg.height_tree_min, cfg.height_tree_max),
                sweep_step=cfg.sweep_step_m,
            ),
            FusionParams(n1=cfg.n1, n2=cfg.n2, decision_threshold=cfg.decision_threshold),
            PostClassParams(shadow_relabel_threshold=cfg.shadow_relabel_threshold),
        )
    except (ShadowError, FusionError, PostClassError) as exc:
        raise ConfigError(str(exc)) from exc


def _coerce(typ: str, text: str):
    """``typ`` is the field's annotation, a string under the future import."""
    if typ == "float | None" and text.strip().lower() in _AUTO:
        return None
    if typ == "int":
        return int(text)
    if typ.startswith("float"):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{value} is not finite")
        return value
    return text.strip()


def parse_config(text: str) -> PipelineConfig:
    """Parse `key = value` lines; '#' comments; unknown keys are rejected, and
    so is a value a stage would refuse, before any stage runs."""
    cfg = PipelineConfig()
    known = {f.name: f for f in fields(PipelineConfig)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            setattr(cfg, key, _coerce(known[key].type, value))
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    minimums = {"kmeans_k": 1} | {k: 0 for k in known if k.startswith("eval_")}
    for key, low in minimums.items():
        if getattr(cfg, key) < low:
            raise ConfigError(f"{key} must be >= {low}, got {getattr(cfg, key)}")
    stage_params(cfg)
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def format_config(cfg: PipelineConfig) -> str:
    lines = []
    for f in fields(PipelineConfig):
        value = getattr(cfg, f.name)
        if value is None:
            value = "auto"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
