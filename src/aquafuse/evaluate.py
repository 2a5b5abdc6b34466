"""Stratified validation sampling, water/non-water confusion matrices and
producer's/user's/overall accuracy."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .spectral import class_sort_key


class EvalError(Exception):
    pass


def stratified_sample(class_labels: np.ndarray, counts: dict, seed: int):
    """Sample pixel positions per class, without replacement.

    ``class_labels`` is a (h, w) array of class names (or codes); ``counts``
    maps class to requested sample size.  Deterministic for a fixed seed:
    classes are visited in the fixed class order and positions drawn with
    numpy's seeded PCG64 generator.
    """
    class_labels = np.asarray(class_labels)
    flat = class_labels.ravel()
    rng = np.random.default_rng(seed)
    samples = []
    for cls in sorted(counts, key=class_sort_key):
        want = counts[cls]
        pool = np.flatnonzero(flat == cls)
        if pool.size < want:
            raise EvalError(
                f"stratum {cls!r} has {pool.size} pixels, cannot sample {want}"
            )
        chosen = rng.choice(pool, size=want, replace=False)
        for idx in chosen:
            row, col = divmod(int(idx), class_labels.shape[1])
            samples.append((row, col, cls))
    return samples


def _is_water(label):
    if isinstance(label, (bool, np.bool_)):
        return bool(label)
    if isinstance(label, (int, np.integer, float, np.floating)):
        return bool(label)
    return label == "water"


@dataclass
class ConfusionMatrix:
    """2x2 counts indexed (predicted, reference), 0 = non-water, 1 = water."""

    counts: np.ndarray

    @property
    def total(self):
        return int(self.counts.sum())


def confusion_matrix(predicted, reference) -> ConfusionMatrix:
    """Tally predicted-vs-reference water labels; any non-water class label
    (vegetation, soil, impervious, ...) aggregates into non-water."""
    if len(predicted) != len(reference):
        raise EvalError(
            f"label list lengths differ: {len(predicted)} vs {len(reference)}"
        )
    counts = np.zeros((2, 2), dtype=np.int64)
    for p, r in zip(predicted, reference):
        counts[int(_is_water(p)), int(_is_water(r))] += 1
    return ConfusionMatrix(counts)


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
        raise EvalError("no samples to score")
    return AccuracyReport(
        pa=_percent(c[1, 1], c[0, 1] + c[1, 1]),
        ua=_percent(c[1, 1], c[1, 0] + c[1, 1]),
        oa=_percent(c[0, 0] + c[1, 1], m.total),
    )


def _shown(value, unit=""):
    return "n/a" if value is None else f"{value}{unit}"


def format_report(m: ConfusionMatrix, title="classification") -> str:
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
