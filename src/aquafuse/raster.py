"""Georeferenced raster grids, and the two bit-exact file formats that every
artifact one stage hands to another is written in: a flat raster for a
pixel grid, a structured ``.npy`` table for anything with rows (segments,
classes, training sites).

Flat raster: two files sharing a stem.  ``<stem>.hdr`` is text with one
``key = value`` per line; ``<stem>.bin`` holds raw little-endian IEEE-754
float32 samples, row-major within each band, bands stored sequentially
(BSQ).  Header keys::

    samples     image width in pixels
    lines       image height in pixels
    bands       band count
    data_type   always "float32le"
    interleave  always "bsq"
    pixel_size  square pixel size in meters
    ulx, uly    map coordinates (m) of the upper-left corner of pixel (0, 0)
    band_names  comma-separated labels

The column index increases eastward (+x), the row index southward (-y).

Table: one ``.npy`` file (NumPy's own header plus raw records) holding
a 1-D structured array, read without pickle and only as exactly the dtype
the reader expects.  A file of any other content is a RasterError, as a
damaged raster is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class RasterError(Exception):
    """Invalid raster data or geometry, or a missing or damaged artifact file."""


@dataclass(frozen=True)
class GridGeometry:
    """Pixel grid anchored in map coordinates."""

    width: int
    height: int
    pixel_size: float
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise RasterError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if not (self.pixel_size > 0):
            raise RasterError(f"pixel_size must be > 0, got {self.pixel_size}")

    def pixel_center(self, row, col):
        """Map coordinates of the center of pixel (row, col)."""
        x = self.origin_x + (np.asarray(col) + 0.5) * self.pixel_size
        y = self.origin_y - (np.asarray(row) + 0.5) * self.pixel_size
        return x, y

    def locate(self, x, y):
        """Fractional (row, col) of a map point; integer values are pixel centers."""
        col = (np.asarray(x) - self.origin_x) / self.pixel_size - 0.5
        row = (self.origin_y - np.asarray(y)) / self.pixel_size - 0.5
        return row, col

    @property
    def extent(self):
        """(xmin, ymin, xmax, ymax) of the covered map area."""
        return (
            self.origin_x,
            self.origin_y - self.height * self.pixel_size,
            self.origin_x + self.width * self.pixel_size,
            self.origin_y,
        )


@dataclass
class RasterGrid:
    """Multi-band grid of float32 samples; the carrier for all imagery."""

    geometry: GridGeometry
    data: np.ndarray  # (bands, height, width) float32
    band_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[np.newaxis]
        if arr.ndim != 3:
            raise RasterError(f"data must be 2-D or 3-D, got ndim={arr.ndim}")
        if arr.shape[1] != self.geometry.height or arr.shape[2] != self.geometry.width:
            raise RasterError(
                f"data shape {arr.shape} does not match geometry "
                f"{self.geometry.height}x{self.geometry.width}"
            )
        self.data = arr
        if not self.band_names:
            self.band_names = [f"band_{i + 1}" for i in range(arr.shape[0])]
        if len(self.band_names) != arr.shape[0]:
            raise RasterError("band_names length does not match band count")
        if not np.isfinite(arr).all():
            raise RasterError("non-finite sample")

    @property
    def bands(self):
        return self.data.shape[0]

    def band(self, name):
        """2-D view of a band selected by label."""
        try:
            idx = self.band_names.index(name)
        except ValueError:
            raise RasterError(f"no band named {name!r}; have {self.band_names}") from None
        return self.data[idx]


@dataclass
class BinaryMask:
    """Per-pixel 0/1 field on a grid."""

    geometry: GridGeometry
    bits: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.shape != (self.geometry.height, self.geometry.width):
            raise RasterError(
                f"mask shape {arr.shape} does not match geometry "
                f"{self.geometry.height}x{self.geometry.width}"
            )
        if arr.dtype == bool:
            arr = arr.astype(np.uint8)
        if not np.isin(arr, (0, 1)).all():
            raise RasterError("mask values must be 0 or 1")
        self.bits = arr.astype(np.uint8)

    def as_raster(self, name):
        return RasterGrid(self.geometry, self.bits.astype(np.float32)[np.newaxis], [name])


def _format_number(v):
    # repr of the float keeps writes byte-deterministic and round-trip exact
    f = float(v)
    return str(int(f)) if f == int(f) else repr(f)


_HEADER_KEYS = (
    "samples", "lines", "bands", "data_type", "interleave",
    "pixel_size", "ulx", "uly", "band_names",
)


def write_raster(raster: RasterGrid, path) -> None:
    """Write a raster as ``<stem>.hdr`` + ``<stem>.bin`` (see module docstring)."""
    stem = Path(path).with_suffix("")
    g = raster.geometry
    lines = [
        f"samples = {g.width}",
        f"lines = {g.height}",
        f"bands = {raster.bands}",
        "data_type = float32le",
        "interleave = bsq",
        f"pixel_size = {_format_number(g.pixel_size)}",
        f"ulx = {_format_number(g.origin_x)}",
        f"uly = {_format_number(g.origin_y)}",
        f"band_names = {','.join(raster.band_names)}",
    ]
    stem.with_suffix(".hdr").write_text("\n".join(lines) + "\n")
    payload = np.ascontiguousarray(raster.data, dtype="<f4").tobytes()
    stem.with_suffix(".bin").write_bytes(payload)


def _parse_header(path: Path) -> dict:
    fields = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise RasterError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _HEADER_KEYS:
            raise RasterError(f"{path}:{lineno}: unknown header key {key!r}")
        fields[key] = value.strip()
    return fields


def read_raster(path) -> RasterGrid:
    """Read a flat raster written by :func:`write_raster`."""
    stem = Path(path).with_suffix("")
    hdr_path = stem.with_suffix(".hdr")
    bin_path = stem.with_suffix(".bin")
    for p in (hdr_path, bin_path):
        if not p.exists():
            raise RasterError(f"missing file: {p}")
    fields = _parse_header(hdr_path)
    try:
        width = int(fields["samples"])
        height = int(fields["lines"])
        bands = int(fields["bands"])
        pixel_size = float(fields["pixel_size"])
        ulx = float(fields["ulx"])
        uly = float(fields["uly"])
    except KeyError as exc:
        raise RasterError(f"{hdr_path}: missing header key {exc}") from None
    except ValueError as exc:
        raise RasterError(f"{hdr_path}: unparseable header value ({exc})") from None
    if fields.get("data_type") != "float32le":
        raise RasterError(f"{hdr_path}: unsupported data_type {fields.get('data_type')!r}")
    if fields.get("interleave") != "bsq":
        raise RasterError(f"{hdr_path}: unsupported interleave {fields.get('interleave')!r}")
    band_names = [n.strip() for n in fields.get("band_names", "").split(",") if n.strip()]

    geometry = GridGeometry(width, height, pixel_size, ulx, uly)
    raw = bin_path.read_bytes()
    expected = width * height * bands * 4
    if len(raw) != expected:
        raise RasterError(
            f"{bin_path}: expected {expected} bytes for {width}x{height}x{bands}, got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(bands, height, width).copy()
    return RasterGrid(geometry, data, band_names)


def read_mask(path) -> BinaryMask:
    """Read a one-band raster whose samples are all exactly 0.0 or 1.0."""
    raster = read_raster(path)
    if raster.bands != 1:
        raise RasterError(f"{path}: mask file has {raster.bands} bands, expected 1")
    try:
        return BinaryMask(raster.geometry, raster.data[0])
    except RasterError as exc:
        raise RasterError(f"{path}: {exc}") from None


def write_table(table: np.ndarray, path) -> None:
    """Write a 1-D structured array as one ``.npy`` file."""
    np.save(path, table, allow_pickle=False)


def read_table(path, dtype) -> np.ndarray:
    """Read a table written by :func:`write_table`; a file that is not a 1-D
    array of exactly ``dtype`` is a RasterError."""
    with open(path, "rb") as fh:
        try:
            table = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise RasterError(f"{path}: not a table ({exc})") from exc
    if table.dtype != dtype or table.ndim != 1:
        raise RasterError(f"{path}: not a table of this layout")
    return table


def resample_nearest(src: RasterGrid, target: GridGeometry) -> RasterGrid:
    """Nearest-neighbor resampling of ``src`` onto ``target``.

    Each target pixel takes the sample of the source pixel containing the
    target pixel center; a center outside the source extent is a RasterError.
    """
    tx, _ = target.pixel_center(0, np.arange(target.width))
    _, ty = target.pixel_center(np.arange(target.height), 0)
    src_col = np.floor((tx - src.geometry.origin_x) / src.geometry.pixel_size).astype(np.int64)
    src_row = np.floor((src.geometry.origin_y - ty) / src.geometry.pixel_size).astype(np.int64)
    if not ((0 <= src_col) & (src_col < src.geometry.width)).all() \
            or not ((0 <= src_row) & (src_row < src.geometry.height)).all():
        raise RasterError(f"target extent {target.extent} is not inside the source "
                          f"extent {src.geometry.extent}")
    out = src.data[:, src_row[:, None], src_col[None, :]]
    return RasterGrid(target, out, list(src.band_names))


def window_ratio(mask: BinaryMask, window: int) -> RasterGrid:
    """Mean of mask values in a centered window, clipped at image borders."""
    if window < 1 or window % 2 == 0:
        raise RasterError(f"window must be odd and >= 1, got {window}")
    radius = window // 2
    h, w = mask.bits.shape
    ii = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(np.cumsum(mask.bits, axis=0, dtype=np.float64), axis=1, out=ii[1:, 1:])
    r0 = np.clip(np.arange(h) - radius, 0, h)
    r1 = np.clip(np.arange(h) + radius + 1, 0, h)
    c0 = np.clip(np.arange(w) - radius, 0, w)
    c1 = np.clip(np.arange(w) + radius + 1, 0, w)
    sums = (ii[np.ix_(r1, c1)] - ii[np.ix_(r0, c1)]
            - ii[np.ix_(r1, c0)] + ii[np.ix_(r0, c0)])
    counts = (r1 - r0)[:, None] * (c1 - c0)[None, :]
    ratio = (sums / counts).astype(np.float32)
    return RasterGrid(mask.geometry, ratio[np.newaxis], ["ratio"])


def window_reduce(values: np.ndarray, length: int, op, axis: int = 0) -> np.ndarray:
    """Reduce every run of ``length`` consecutive samples of ``values`` along
    ``axis`` with ``op`` (``np.minimum``, ``np.maximum`` or ``np.logical_or``):
    sample i of the result is ``op`` over samples i to i + length - 1, so the
    axis shrinks by ``length - 1``.  For ``length`` 1 it is ``values`` itself.

    By doubling (M. van Herk, Pattern Recognit. Lett. 13, 1992; J. Gil and
    M. Werman, IEEE PAMI 15, 1993): after k steps each sample covers 2**k
    samples, and one last step joins two overlapping spans into ``length``,
    so it takes floor(log2 length) + 1 whole-array operations at most.  Each
    ``op`` returns one of its operands and gives the same for a sample taken
    twice, so the result is that of ``op`` over each window in any order."""
    n = values.shape[axis]
    if not 1 <= length <= n:
        raise RasterError(f"window of {length} samples on an axis of {n}")

    def part(a, start, size):
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, start + size)
        return a[tuple(index)]

    out, span = values, 1
    while 2 * span <= length:
        size = out.shape[axis] - span
        out = op(part(out, 0, size), part(out, span, size))
        span *= 2
    if span < length:
        size = n - length + 1
        out = op(part(out, 0, size), part(out, length - span, size))
    return out
