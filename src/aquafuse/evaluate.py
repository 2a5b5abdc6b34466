"""Stratified validation sampling, water/non-water confusion matrices and
producer's/user's/overall accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .raster import RasterError
from .spectral import CLASS_ORDER, ComputeError


def stratified_sample(codes: np.ndarray, counts, seed: int) -> np.ndarray:
    """Flat pixel indices drawn per class, without replacement.

    ``codes`` is a class-code raster (indices into CLASS_ORDER) and
    ``counts`` holds one sample size per CLASS_ORDER class; a zero count is
    skipped.  Deterministic for a fixed seed: classes are visited in
    CLASS_ORDER and positions drawn with numpy's seeded PCG64 generator.
    """
    if len(counts) != len(CLASS_ORDER):
        raise ComputeError(f"need one sample count per class of {CLASS_ORDER}, got {len(counts)}")
    flat = np.asarray(codes).ravel()
    rng = np.random.default_rng(seed)
    chosen = [np.empty(0, dtype=np.intp)]
    for code, (cls, want) in enumerate(zip(CLASS_ORDER, counts)):
        if want == 0:
            continue
        pool = np.flatnonzero(flat == code)
        if pool.size < want:
            raise ComputeError(f"stratum {cls!r} has {pool.size} pixels, cannot sample {want}")
        chosen.append(rng.choice(pool, size=want, replace=False))
    return np.concatenate(chosen)


@dataclass
class ConfusionMatrix:
    """2x2 counts indexed (predicted, reference), 0 = non-water, 1 = water."""

    counts: np.ndarray

    @property
    def total(self):
        return int(self.counts.sum())


def confusion_matrix(predicted, reference) -> ConfusionMatrix:
    """Tally two bool arrays of water flags, predicted against reference."""
    predicted = np.asarray(predicted, dtype=bool)
    reference = np.asarray(reference, dtype=bool)
    if predicted.shape != reference.shape:
        raise RasterError(f"flag arrays differ in shape: {predicted.shape} vs {reference.shape}")
    counts = np.bincount(2 * predicted.ravel() + reference.ravel(), minlength=4)
    return ConfusionMatrix(counts.reshape(2, 2))


@dataclass
class AccuracyReport:
    pa: float | None  # water producer's accuracy, percent; None without reference water
    ua: float | None  # water user's accuracy, percent; None without predicted water
    oa: float         # overall accuracy, percent

    def rounded(self, decimals=1):
        """Half-up rounding for display, matching 1-decimal table style;
        an undefined accuracy stays None."""
        q = Decimal(1).scaleb(-decimals)
        return tuple(
            None if v is None
            else float(Decimal(repr(float(v))).quantize(q, rounding=ROUND_HALF_UP))
            for v in (self.pa, self.ua, self.oa)
        )


def _percent(part, whole):
    return 100.0 * part / whole if whole else None


def accuracy_metrics(m: ConfusionMatrix) -> AccuracyReport:
    """PA and UA of the water class and OA.  A map or a reference without
    water leaves UA or PA undefined (None); no samples at all is an error."""
    c = m.counts
    if m.total == 0:
        raise ComputeError("no samples to score")
    return AccuracyReport(
        pa=_percent(c[1, 1], c[0, 1] + c[1, 1]),
        ua=_percent(c[1, 1], c[1, 0] + c[1, 1]),
        oa=_percent(c[0, 0] + c[1, 1], m.total),
    )


def _shown(value, unit=""):
    return "n/a" if value is None else f"{value}{unit}"


def format_report(m: ConfusionMatrix, title: str) -> str:
    """Text table mirroring the usual confusion-matrix layout, plus one
    machine-readable line ``pa=...,ua=...,oa=...``.  An undefined accuracy
    reads ``n/a``."""
    pa, ua, oa = accuracy_metrics(m).rounded()
    c = m.counts
    lines = [
        f"Confusion matrix for {title}",
        "                       Reference",
        "                       non-water      water",
        f"Predicted  non-water   {c[0, 0]:9d}  {c[0, 1]:9d}",
        f"           water       {c[1, 0]:9d}  {c[1, 1]:9d}",
        f"PA(water) = {_shown(pa, '%')}   UA(water) = {_shown(ua, '%')}   OA = {oa}%",
        f"pa={_shown(pa)},ua={_shown(ua)},oa={oa}",
    ]
    return "\n".join(lines)
