"""Georeferenced raster grids, and the two bit-exact file formats that every
artifact one stage hands to another is written in: a flat raster for a
pixel grid, a structured ``.npy`` table for anything with rows (segments,
classes, training sites).

Flat raster: two files sharing a stem.  ``<stem>.hdr`` is text with one
``key = value`` per line; ``<stem>.bin`` holds raw little-endian IEEE-754
float32 samples, row-major within each band, bands stored sequentially
(BSQ).  Header keys, each given once::

    samples     image width in pixels
    lines       image height in pixels
    bands       band count, at least 1
    data_type   always "float32le"
    interleave  always "bsq"
    pixel_size  square pixel size in meters, finite and > 0
    ulx, uly    finite map coordinates (m) of the upper-left corner of pixel (0, 0)
    band_names  comma-separated labels, one per band (or none, for band_1, ...)

The column index increases eastward (+x), the row index southward (-y).

Table: one ``.npy`` file (NumPy's own header plus raw records) holding
a 1-D structured array, read without pickle and only as exactly the dtype
the reader expects.  A file of any other content is a RasterError, as a
damaged raster is.
"""

from __future__ import annotations

import math
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
        if not 0 < self.pixel_size < math.inf:
            raise RasterError(f"pixel_size must be finite and > 0, got {self.pixel_size}")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise RasterError(f"origin must be finite, got ({self.origin_x}, {self.origin_y})")

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

    def pixel_of(self, x, y):
        """(row, col) of the pixel that holds each map point, by the floor of its
        offset in pixels: the one nearest-pixel rule (off the grid, out of range)."""
        col = np.floor((np.asarray(x) - self.origin_x) / self.pixel_size).astype(np.int64)
        row = np.floor((self.origin_y - np.asarray(y)) / self.pixel_size).astype(np.int64)
        return row, col

    def covers(self, other) -> bool:
        """Whether each pixel center of grid ``other`` is in a pixel of this
        grid; both rules are monotone, so the corner pixels' centers decide."""
        row, col = self.pixel_of(*other.pixel_center([0, other.height - 1],
                                                     [0, other.width - 1]))
        return bool(0 <= row.min() and row.max() < self.height
                    and 0 <= col.min() and col.max() < self.width)


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
        if arr.ndim != 3 or not arr.shape[0]:
            raise RasterError(f"data must be 2-D, or 3-D with at least 1 band, "
                              f"got shape {arr.shape}")
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
    """Per-pixel yes/no field on a grid as bool bits; a bool array is kept with
    no copy.  Any other dtype must hold exactly 0 and 1, 1 being True: the one
    0/1 rule, which in the pipeline only masks read by read_mask reach."""

    geometry: GridGeometry
    bits: np.ndarray  # (height, width) bool

    def __post_init__(self):
        arr = np.asarray(self.bits)
        if arr.shape != (self.geometry.height, self.geometry.width):
            raise RasterError(
                f"mask shape {arr.shape} does not match geometry "
                f"{self.geometry.height}x{self.geometry.width}"
            )
        if arr.dtype != bool:
            if not ((arr == 0) | (arr == 1)).all():
                raise RasterError("mask values must be 0 or 1")
            arr = arr == 1
        self.bits = arr


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
    # written from the samples' own buffer when they are already little-endian
    # float32, with no copy
    stem.with_suffix(".bin").write_bytes(np.ascontiguousarray(raster.data, dtype="<f4"))


def read_header(path) -> tuple:
    """``(geometry, bands, band_names)`` of a flat raster, from its
    ``<stem>.hdr`` alone.  A grid that GridGeometry rejects, a band count
    below 1, or band names given but not one per band, is a RasterError that
    names the header."""
    hdr_path = Path(path).with_suffix("").with_suffix(".hdr")
    if not hdr_path.exists():
        raise RasterError(f"missing file: {hdr_path}")
    fields = {}
    for lineno, line in enumerate(hdr_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise RasterError(f"{hdr_path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _HEADER_KEYS:
            raise RasterError(f"{hdr_path}:{lineno}: unknown header key {key!r}")
        if key in fields:
            raise RasterError(f"{hdr_path}:{lineno}: header key {key!r} given twice")
        fields[key] = value.strip()
    try:
        geometry = GridGeometry(int(fields["samples"]), int(fields["lines"]),
                                float(fields["pixel_size"]), float(fields["ulx"]),
                                float(fields["uly"]))
        bands = int(fields["bands"])
    except KeyError as exc:
        raise RasterError(f"{hdr_path}: missing header key {exc}") from None
    except ValueError as exc:
        raise RasterError(f"{hdr_path}: unparseable header value ({exc})") from None
    except RasterError as exc:
        raise RasterError(f"{hdr_path}: {exc}") from None
    if fields.get("data_type") != "float32le":
        raise RasterError(f"{hdr_path}: unsupported data_type {fields.get('data_type')!r}")
    if fields.get("interleave") != "bsq":
        raise RasterError(f"{hdr_path}: unsupported interleave {fields.get('interleave')!r}")
    if bands < 1:
        raise RasterError(f"{hdr_path}: bands must be at least 1, got {bands}")
    band_names = [n.strip() for n in fields.get("band_names", "").split(",") if n.strip()]
    if band_names and len(band_names) != bands:
        raise RasterError(f"{hdr_path}: band_names length does not match band count")
    return geometry, bands, band_names


def read_raster(path) -> RasterGrid:
    """Read a flat raster written by :func:`write_raster`; a grid or samples
    that RasterGrid rejects are a RasterError that names the header."""
    geometry, bands, band_names = read_header(path)
    bin_path = Path(path).with_suffix("").with_suffix(".bin")
    if not bin_path.exists():
        raise RasterError(f"missing file: {bin_path}")
    raw = bin_path.read_bytes()
    width, height = geometry.width, geometry.height
    expected = width * height * bands * 4
    if len(raw) != expected:
        raise RasterError(
            f"{bin_path}: expected {expected} bytes for {width}x{height}x{bands}, got {len(raw)}"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(bands, height, width).copy()
    try:
        return RasterGrid(geometry, data, band_names)
    except RasterError as exc:
        raise RasterError(f"{bin_path.with_suffix('.hdr')}: {exc}") from None


def read_mask(path) -> BinaryMask:
    """A one-band raster as bool bits; a sample other than 0.0 or 1.0 names the header."""
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


def resample_nearest(values: np.ndarray, src: GridGeometry, target: GridGeometry) -> np.ndarray:
    """Nearest-neighbor resampling of ``values``, (..., height, width) on grid
    ``src``, onto grid ``target``: each target pixel takes the sample of the
    source pixel that holds its center (``pixel_of``).  ``src`` must cover
    ``target``, which the reader of the two grids checks."""
    row, col = src.pixel_of(*target.pixel_center(np.arange(target.height),
                                                 np.arange(target.width)))
    return values[..., row[:, None], col[None, :]]


def window_ratio(bits: np.ndarray, window: int) -> np.ndarray:
    """Float32 mean of (h, w) ``bits`` in a centered odd window, clipped at the borders."""
    radius = window // 2
    h, w = bits.shape
    ii = np.zeros((h + 1, w + 1), dtype=np.float64)
    np.cumsum(np.cumsum(bits, axis=0, dtype=np.float64), axis=1, out=ii[1:, 1:])
    r0 = np.clip(np.arange(h) - radius, 0, h)
    r1 = np.clip(np.arange(h) + radius + 1, 0, h)
    c0 = np.clip(np.arange(w) - radius, 0, w)
    c1 = np.clip(np.arange(w) + radius + 1, 0, w)
    sums = (ii[np.ix_(r1, c1)] - ii[np.ix_(r0, c1)]
            - ii[np.ix_(r1, c0)] + ii[np.ix_(r0, c0)])
    counts = (r1 - r0)[:, None] * (c1 - c0)[None, :]
    return (sums / counts).astype(np.float32)


def window_reduce(values: np.ndarray, length: int, op, axis: int = 0) -> np.ndarray:
    """Reduce every run of ``length`` consecutive samples of ``values`` along
    ``axis`` with ``op`` (``np.minimum``, ``np.maximum`` or ``np.logical_or``):
    sample i of the result is ``op`` over samples i to i + length - 1, so the
    axis shrinks by ``length - 1``.  ``length`` is 1 to the axis's size; for
    1 the result is ``values`` itself.

    By doubling (M. van Herk, Pattern Recognit. Lett. 13, 1992; J. Gil and
    M. Werman, IEEE PAMI 15, 1993): after k steps each sample covers 2**k
    samples, and one last step joins two overlapping spans into ``length``,
    so it takes floor(log2 length) + 1 whole-array operations at most.  Each
    ``op`` returns one of its operands and gives the same for a sample taken
    twice, so the result is that of ``op`` over each window in any order."""
    n = values.shape[axis]

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


def row_blocks(n: int, size: int) -> list:
    """Slices that cover rows 0..n in order, ceil(n / size) blocks of at most
    ``size`` rows whose lengths differ by one at most.  BLAS's gemm gives a
    row the same bits in every product of two or more rows, but numpy
    multiplies a lone row by gemv, which rounds otherwise (K. Goto and R.
    van de Geijn, ACM TOMS 34, 2008).  For n >= 2 and size >= 3 no block has
    one row: c >= 2 blocks have floor(n / c) >= 2 rows, as n > 3c - 3."""
    count = -(-n // size)
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]
