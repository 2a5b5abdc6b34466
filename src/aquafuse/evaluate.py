"""Stratified validation sampling, water/non-water confusion matrices as
2x2 count arrays, and producer's/user's/overall accuracy as the rounded
triple the reports print."""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_UP

import numpy as np

from .spectral import CLASS_ORDER, ComputeError


def stratified_sample(codes: np.ndarray, counts, seed: int) -> np.ndarray:
    """Flat pixel indices drawn per class, without replacement.

    ``codes`` is a class-code raster (indices into CLASS_ORDER) and
    ``counts`` holds one sample size per CLASS_ORDER class; a zero count is
    skipped.  Deterministic for a fixed seed: classes are visited in
    CLASS_ORDER and positions drawn with numpy's seeded PCG64 generator.
    """
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


def confusion_matrix(predicted, reference) -> np.ndarray:
    """Tally two bool arrays of one shape, water flags predicted against
    reference, into 2x2 counts indexed (predicted, reference), 0 = non-water, 1 = water."""
    predicted = np.asarray(predicted, dtype=bool)
    reference = np.asarray(reference, dtype=bool)
    return np.bincount(2 * predicted.ravel() + reference.ravel(), minlength=4).reshape(2, 2)


def _percent(part, whole):
    """100 * part / whole rounded half up to one decimal, as the reports
    print it; None for a zero ``whole``."""
    if not whole:
        return None
    return float(Decimal(repr(float(100.0 * part / whole)))
                 .quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def accuracy_metrics(counts):
    """(PA, UA, OA) of the water class from 2x2 counts, in percent rounded
    half up to one decimal.  A map or a reference without water leaves UA or
    PA undefined (None); no samples at all is an error."""
    c = counts
    if c.sum() == 0:
        raise ComputeError("no samples to score")
    return (_percent(c[1, 1], c[0, 1] + c[1, 1]),
            _percent(c[1, 1], c[1, 0] + c[1, 1]),
            _percent(c[0, 0] + c[1, 1], c.sum()))


def _shown(value, unit=""):
    return "n/a" if value is None else f"{value}{unit}"


def format_report(counts, title: str) -> str:
    """Text table mirroring the usual confusion-matrix layout, plus one
    machine-readable line ``pa=...,ua=...,oa=...``.  An undefined accuracy
    reads ``n/a``."""
    pa, ua, oa = accuracy_metrics(counts)
    c = counts
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
