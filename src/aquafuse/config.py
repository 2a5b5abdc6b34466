"""Flat `key = value` pipeline configuration with strict key checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    pass


_AUTO = ("auto", "")


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the pipeline: the one place that holds its default
    and its range rule (``RULES``, checked whenever a config is made, from a
    file, in code or by ``dataclasses.replace``).  The library functions take
    plain values and have no defaults of their own.

    ``t_pan`` and ``t_tree`` accept the string ``auto`` in the file form,
    meaning "derive from the data" (stored here as None).  Facts of the scene
    are not tunables: the shadow stage reads the sun from the scene, and
    fusion reads the MS and Landsat resolutions from the rasters.
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

    def __post_init__(self):
        for key, rule, words in RULES:
            value = getattr(self, key)
            if value is not None and not rule(value, self):
                raise ConfigError(f"{key} must be {words}, got {value}")


def _unit(value, cfg):
    return 0.0 < value < 1.0


# (key, rule on its value and the whole config, the rule in words); every
# number must also be finite
RULES = [(f.name, lambda v, c: math.isfinite(v), "finite")
         for f in fields(PipelineConfig) if f.type != "str"] + [
    ("seed", lambda v, c: v >= 0, ">= 0"),
    ("kmeans_k", lambda v, c: v >= 1, ">= 1"),
    ("intensity_window", lambda v, c: v >= 1 and v % 2 == 1, "odd and >= 1"),
    ("intensity_ratio", _unit, "in (0, 1)"),
    ("height_high_min", lambda v, c: 0 < v <= c.height_high_max, "in (0, height_high_max]"),
    ("height_low_min", lambda v, c: 0 < v <= c.height_low_max, "in (0, height_low_max]"),
    ("height_tree_min", lambda v, c: 0 < v <= c.height_tree_max, "in (0, height_tree_max]"),
    ("n1", lambda v, c: v >= 1, ">= 1"),
    ("n2", lambda v, c: v >= 1, ">= 1"),
    ("decision_threshold", _unit, "in (0, 1)"),
    ("shadow_relabel_threshold", _unit, "in (0, 1)"),
] + [(f.name, lambda v, c: v >= 0, ">= 0")
     for f in fields(PipelineConfig) if f.name.startswith("eval_")]


def _coerce(typ: str, text: str):
    """``typ`` is the field's annotation, a string under the future import."""
    if typ == "float | None" and text.strip().lower() in _AUTO:
        return None
    if typ == "int":
        return int(text)
    if typ.startswith("float"):
        return float(text)
    return text.strip()


def parse_config(text: str) -> PipelineConfig:
    """Parse `key = value` lines; '#' comments; an unknown or repeated key is
    rejected, and so is a value outside its rule, before any stage runs."""
    known = {f.name: f.type for f in fields(PipelineConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: key {key!r} given twice")
        try:
            values[key] = _coerce(known[key], value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    return PipelineConfig(**values)


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
