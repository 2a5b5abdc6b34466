"""Correctness of one pass, judged from its output directory.

A pass is correct when
  * all six accuracy reports exist, each with its `pa=,ua=,oa=` line;
  * the water maps keep the paper's ordering of overall accuracy over the
    whole truth grid: post-classified >= fused >= every single-source map
    (maps on coarser grids are compared by nearest neighbour, as `evaluate`
    resamples them);
  * when the scene is the unchanged bundled fixture and the pipeline seed is
    0, the six report lines equal the README accuracy table.

The ordering is checked on every pixel rather than on the reports' 600
validation samples: where post-classification gains little over fusion, the
sampled accuracies of the two maps can swap by a sample or two while the
whole-map accuracies keep their order.  Such swaps are returned as a note.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

FINAL = "water_final"
FUSED = "pgm_water"
SINGLE = ("ms_water", "pca_water", "pan_water", "landsat_water")
# README table rows, top to bottom
REPORTS = (FINAL, FUSED) + SINGLE

_LINE = re.compile(r"^pa=([0-9.]+),ua=([0-9.]+),oa=([0-9.]+)$")
_ROW = re.compile(r"^\|([^|]+)\|\s*([0-9.]+)\s*\|\s*([0-9.]+)\s*\|\s*([0-9.]+)\s*\|\s*$")


class CheckError(Exception):
    pass


def read_reports(out: Path) -> dict:
    """stem -> (pa, ua, oa) from each report's machine-readable line."""
    found = {}
    for stem in REPORTS:
        path = out / f"report_{stem}.txt"
        if not path.exists():
            raise CheckError(f"missing report {path.name}")
        for line in path.read_text().splitlines():
            match = _LINE.match(line.strip())
            if match:
                found[stem] = tuple(float(v) for v in match.groups())
                break
        else:
            raise CheckError(f"{path.name} has no pa=,ua=,oa= line")
    return found


def readme_table(readme: Path) -> dict:
    """stem -> (pa, ua, oa) from the README's accuracy table."""
    rows = []
    for line in readme.read_text().splitlines():
        match = _ROW.match(line.strip())
        if match:
            rows.append(tuple(float(v) for v in match.groups()[1:]))
    if len(rows) != len(REPORTS):
        raise CheckError(f"README accuracy table has {len(rows)} rows, expected {len(REPORTS)}")
    return dict(zip(REPORTS, rows))


def read_map(out: Path, stem: str):
    """(water bits, (ulx, uly, pixel size)) of a single-band raster."""
    header = {}
    for line in (out / f"{stem}.hdr").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            header[key.strip()] = value.strip()
    shape = (int(header["lines"]), int(header["samples"]))
    data = np.fromfile(out / f"{stem}.bin", dtype="<f4")
    if data.size != shape[0] * shape[1]:
        raise CheckError(f"{stem}.bin holds {data.size} values, expected {shape[0] * shape[1]}")
    grid = (float(header["ulx"]), float(header["uly"]), float(header["pixel_size"]))
    return data.reshape(shape) > 0.5, grid


def _onto(bits, grid, target_shape, target_grid):
    """Nearest-neighbour sample of `bits` at the target grid's pixel centres."""
    ulx, uly, px = grid
    tx0, ty0, tpx = target_grid
    cols = np.floor((tx0 + (np.arange(target_shape[1]) + 0.5) * tpx - ulx) / px).astype(int)
    rows = np.floor((uly - ty0 + (np.arange(target_shape[0]) + 0.5) * tpx) / px).astype(int)
    if cols.min() < 0 or rows.min() < 0 or cols.max() >= bits.shape[1] or rows.max() >= bits.shape[0]:
        raise CheckError("map does not cover the truth grid")
    return bits[np.ix_(rows, cols)]


def map_accuracy(out: Path) -> dict:
    """stem -> percent of truth-grid pixels on which the map agrees with truth."""
    truth, grid = read_map(out, "truth")
    acc = {}
    for stem in REPORTS:
        bits, map_grid = read_map(out, stem)
        if bits.shape != truth.shape or map_grid != grid:
            bits = _onto(bits, map_grid, truth.shape, grid)
        acc[stem] = 100.0 * float(np.mean(bits == truth))
    return acc


def _order_broken(oa: dict):
    best = max(SINGLE, key=lambda stem: oa[stem])
    if oa[FINAL] >= oa[FUSED] >= oa[best]:
        return None
    return f"final {oa[FINAL]:.3f}, fused {oa[FUSED]:.3f}, {best} {oa[best]:.3f}"


def check_pass(out: Path, expected: dict | None = None):
    """Check one pass's outputs; returns (reports, note).  Raises CheckError."""
    reports = read_reports(out)
    broken = _order_broken(map_accuracy(out))
    if broken:
        raise CheckError(f"whole-map accuracy ordering broken: {broken}")
    if expected is not None:
        for stem in REPORTS:
            if reports[stem] != expected[stem]:
                raise CheckError(f"{stem}: {reports[stem]} differs from README {expected[stem]}")
    swapped = _order_broken({stem: values[2] for stem, values in reports.items()})
    return reports, (f"sampled OA order swapped: {swapped}" if swapped else None)
