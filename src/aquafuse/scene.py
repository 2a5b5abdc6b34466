"""Deterministic synthetic multi-sensor scene generator.

Renders a vector scene description (lakes, rivers, buildings, trees, dark
fields on a grass/soil background) into co-registered PAN, MS and multi-date
Landsat rasters plus ground-truth masks.  The geometry is painted, and the
sun's shadows cast, on a 0.1 m supersample grid, and the supersamples of each
(surface class, lit/shadow) pair are counted per cell.  Cells are cut at
every edge of a 0.8, 3.2 or 30 m sensor pixel and of a texture cell, so every
sensor pixel is a block of whole cells and a class's texture brightness is
constant inside a cell.  A pixel is the mean of its supersamples'
reflectances: the sum over its cells and pairs of count times the float32
reflectance, divided by its supersample count.

Those sums are exact.  Each term is a whole multiple of one power of two (the
last-place unit of the band's smallest float32 reflectance), and a 30 m
pixel's total of 90000 terms stays below 2**53 such units as long as a band's
largest reflectance is under about 5000 times its smallest non-zero one.  So
every partial sum is exact too, and the rasters equal the per-supersample
block means bit for bit, whatever the order or grouping of the summation.
Everything is seeded, so the same scene file always produces bit-identical
rasters.

The supersample grid is never held whole: the scene is rendered in one pass
over 30 m row strips, so no supersample array is larger than a strip, whose
size grows with the scene's width alone.  Each strip is painted (a rect as
one slice, a line one 30 m column window at a time), takes its shadows, and
is counted.  The counting reads square blocks of b x b supersamples, where b
is the largest power of two up to 8 that divides every cell edge, so a block
lies in one cell: a block of one pair code is counted once, its b rows read
as one ``uint{8b}`` each, and only a mixed block is counted per supersample.
From the strip's counts each band's cell totals are formed once and added
straight into every sensor's float64 pixel sums, and the class and shadow
counts into the PAN truth planes.  A pixel that straddles two strips takes a
partial sum from each, which by the argument above changes no bit.

A shadow may fall strips away from its object, so each object's cast shadow
is one small array: the union of its footprint shifted by every offset of
its height sweep, built by doubling (``shadow.sweep_union``) over the box
that holds every shift.  A cast is built when the first strip that it
reaches is painted and dropped once the strips pass its last row, so only
the casts that meet a strip are held.  Each strip ORs in one slice of each
of them, and clears the shadow from the pixels its own painting marks as
objects.  The footprint comes from the final heights of the object's box,
painted from every feature that meets the box in file order: a later feature
may cover part of the object, and another object of the same height inside
the box is part of the footprint, just as on a whole grid.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .raster import BinaryMask, GridGeometry, RasterGrid
from .shadow import ShadowGeometry, height_sweep, shift_or, sweep_offsets, sweep_union
from .spectral import CLASS_ORDER

SUPERSAMPLE_M = 0.1
PAN_PIXEL_M = 0.8
MS_PIXEL_M = 3.2
LANDSAT_PIXEL_M = 30.0

PAN_BANDS = ("pan",)
MS_BANDS = ("blue", "green", "red", "nir")
LANDSAT_BANDS = ("coastal", "blue", "green", "red", "nir", "swir1", "swir2")
# every band a `spectrum` line gives, once each, in an order where each
# sensor's bands are one run (the MS bands are four of the Landsat ones)
SPECTRUM_BANDS = PAN_BANDS + LANDSAT_BANDS

# rendered surface classes, in painting precedence order (codes are indices)
SURFACE_CLASSES = ("soil", "grass", "tree", "impervious", "asphalt", "dark_field", "water")
WATER_CLASSES = ("water",)

# surface class -> validation stratum
EVAL_CLASS_OF = {
    "grass": "vegetation",
    "tree": "vegetation",
    "soil": "soil",
    "dark_field": "soil",
    "impervious": "impervious",
    "asphalt": "impervious",
    "water": "water",
}

# feature shape -> (whether a count of parameters fits it, the parameters)
FEATURE_SHAPES = {
    "rect": (lambda n: n == 4, "x0 y0 x1 y1"),
    "disk": (lambda n: n == 3, "cx cy radius"),
    "line": (lambda n: n == 4, "x0 y0 x1 y1"),
    "poly": (lambda n: n >= 6 and n % 2 == 0, "at least 3 x y pairs"),
}

LANDSAT_DAYS = (16, 74, 135, 192, 230, 288, 340)
# (name, bands, pixel size in m) per sensor, in the order of noise streams 1, 2, 3
SENSORS = (("pan", PAN_BANDS, PAN_PIXEL_M), ("ms", MS_BANDS, MS_PIXEL_M),
           ("landsat", LANDSAT_BANDS, LANDSAT_PIXEL_M))


class SceneError(Exception):
    def __init__(self, message, entry=None):  # entry: see SceneSpec.validate
        super().__init__(message)
        self.entry = entry


@dataclass
class Feature:
    """One painted scene element.

    ``kind`` is a surface class; ``shape`` is ``rect`` (x0 y0 x1 y1),
    ``poly`` (x1 y1 x2 y2 ...), ``disk`` (cx cy radius) or ``line``
    (x0 y0 x1 y1 + width).  ``height`` is only meaningful for buildings and
    trees.  Coordinates are map meters with y growing north from 0.
    """

    kind: str
    shape: str
    params: tuple
    width: float = 0.0
    height: float = 0.0


@dataclass
class SceneSpec:
    extent: tuple = (240.0, 240.0)
    sun: ShadowGeometry = field(default_factory=lambda: ShadowGeometry(50.0, 225.0))
    shadow_factor: float = 0.35       # PAN and visible bands
    shadow_factor_nir: float = 0.8    # NIR and SWIR bands (diffuse skylight)
    seed: int = 7
    noise: dict = field(default_factory=dict)  # sensor -> noise sigma
    # class -> band -> mean reflectance (bands named across all sensors)
    spectra: dict = field(default_factory=dict)
    # class -> (sigma, cell size m) multiplicative brightness texture
    textures: dict = field(default_factory=dict)
    features: list = field(default_factory=list)
    train_per_class: int = 60

    def validate(self):
        """Check every rule on the scene's values, parsed or built in code,
        the sun's elevation range among them.  A broken rule's SceneError
        names its ``entry`` (``extent``, ``sun``, ``noise pan``, ``spectrum
        water``, ``feature 3`` for ``features[3]``, ...), so that
        ``parse_scene`` can name its line; a class with no spectrum names none."""
        def check(ok, entry, message):
            if not ok:
                raise SceneError(message, entry)

        numbers = {"extent": self.extent, "sun": astuple(self.sun),
                   "shadow_factor": [self.shadow_factor],
                   "shadow_factor_nir": [self.shadow_factor_nir],
                   **{f"noise {k}": [v] for k, v in self.noise.items()},
                   **{f"texture {k}": v for k, v in self.textures.items()},
                   **{f"spectrum {k}": v.values() for k, v in self.spectra.items()},
                   **{f"feature {i}": (*f.params, f.width, f.height)
                      for i, f in enumerate(self.features)}}
        for entry, values in numbers.items():
            for value in values:
                check(math.isfinite(value), entry, f"{str(value)!r} is not a finite number")
        elevation = self.sun.sun_elevation_deg
        check(0.0 < elevation <= 90.0, "sun", f"sun elevation must be in (0, 90], got {elevation}")
        for axis in self.extent:
            check(axis > 0, "extent", "extent must be positive")
            for _, _, pixel in SENSORS:
                check(abs(axis / pixel - round(axis / pixel)) <= 1e-9, "extent",
                      f"extent {axis} must be a whole number of {pixel} m pixels")
        for key in ("shadow_factor", "shadow_factor_nir"):
            value = getattr(self, key)
            check(0.0 < value <= 1.0, key, f"{key} must be in (0, 1], got {value}")
        check(self.seed >= 0, "seed", f"seed must be >= 0, got {self.seed}")
        # the classifier fits each class from 2 sites or more
        check(self.train_per_class >= 2, "train_per_class",
              f"train_per_class must be >= 2, got {self.train_per_class}")
        for sensor, sigma in self.noise.items():
            check(any(sensor == name for name, _, _ in SENSORS), f"noise {sensor}",
                  f"unknown noise sensor {sensor!r}")
            check(sigma >= 0, f"noise {sensor}", f"noise sigma for {sensor!r} must be >= 0")
        for cls, (sigma, cell_m) in self.textures.items():
            entry = f"texture {cls}"
            check(cls in SURFACE_CLASSES, entry, f"unknown texture class {cls!r}")
            check(sigma >= 0, entry, f"texture sigma for {cls!r} must be >= 0")
            check(cell_m > 0, entry, f"texture cell for {cls!r} must be a positive size")
        for cls, bands in self.spectra.items():
            entry = f"spectrum {cls}"
            check(cls in SURFACE_CLASSES, entry, f"unknown spectrum class {cls!r}")
            for band in SPECTRUM_BANDS:
                check(band in bands, entry, f"class {cls!r} misses band {band!r}")
                check(abs(bands[band]) <= float(np.finfo(np.float32).max), entry,
                      f"{entry} {band}={bands[band]!r} is beyond the float32 range")
        for cls in SURFACE_CLASSES:
            check(cls in self.spectra, None, f"spectral library misses class {cls!r}")
        for i, f in enumerate(self.features):
            entry = f"feature {i}"
            check(f.kind in SURFACE_CLASSES, entry, f"unknown feature class {f.kind!r}")
            check(f.shape in FEATURE_SHAPES, entry, f"unknown shape {f.shape!r}")
            fits, needs = FEATURE_SHAPES[f.shape]
            check(fits(len(f.params)), entry, f"{f.shape} needs {needs}")
            check(f.kind != "tree" or f.height > 0, entry, "tree feature needs a positive height")
            check(f.height >= 0, entry, "feature height must be >= 0")
            if f.shape == "line":
                x0, y0, x1, y1 = f.params
                check(f.width > 0, entry, "line feature needs a positive width")
                check((x1 - x0) ** 2 + (y1 - y0) ** 2 > 0, entry,
                      "line feature needs two distinct ends")
            if f.shape == "disk":
                check(f.params[2] >= 0, entry, f"disk radius must be >= 0, got {f.params[2]}")
        return self


@dataclass
class SceneBundle:
    pan: RasterGrid
    ms: RasterGrid
    landsat: list                # one raster per LANDSAT_DAYS date
    truth: BinaryMask            # water truth on the PAN grid
    class_truth: RasterGrid      # validation-stratum indices on the PAN grid
    shadow_truth: BinaryMask     # rendered-shadow truth on the PAN grid
    train_sites: list            # (class, x, y) map-coordinate training sites


# ---------------------------------------------------------------------------
# scene file grammar
#
#   extent <x> <y>
#   sun <elevation_deg> <azimuth_deg>
#   shadow_factor <f>            (PAN + visible bands)
#   shadow_factor_nir <f>        (NIR + SWIR bands)
#   seed <n>
#   noise <pan|ms|landsat> <sigma>
#   texture <class> <sigma> <cell_m>
#   spectrum <class> <band>=<value> ...
#   feature <class> rect <x0> <y0> <x1> <y1> [height <h>]
#   feature <class> poly <x1> <y1> ... [height <h>]
#   feature <class> disk <cx> <cy> <radius> [height <h>]
#   feature <class> line <x0> <y0> <x1> <y1> width <w>
#   train_per_class <n>
#
# '#' starts a comment; features paint in file order over a soil background.
# Every directive but `feature` is given at most once, and `noise`, `texture`
# and `spectrum` at most once per sensor or class.  A `spectrum` line gives
# each of its bands at most once, and only bands of SPECTRUM_BANDS.  A
# `feature` gives `height` and `width` at most once.  The other directives
# take exactly the operands shown.  The rules on the values, among them
# finite numbers, `seed` >= 0, a feature's shape and its count of numbers
# (FEATURE_SHAPES) and a `line` with two distinct ends, are
# SceneSpec.validate's.  Every error names its line, except the error of a
# class with no `spectrum` line.

NAMED_DIRECTIVES = ("noise", "texture", "spectrum")
OPERAND_COUNTS = {"extent": 2, "sun": 2, "shadow_factor": 1, "shadow_factor_nir": 1,
                  "seed": 1, "train_per_class": 1, "noise": 2, "texture": 3}


def _on_line(lineno: int, raw: str, exc: Exception) -> SceneError:
    return SceneError(f"scene line {lineno}: {raw.strip()!r}: {exc}")


def parse_scene(text: str) -> SceneSpec:
    spec = SceneSpec()
    lines = {}  # entry, as SceneSpec.validate names it -> (line number, line)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "feature":
                entry = f"feature {len(spec.features)}"
            else:
                entry = " ".join(parts[:2]) if key in NAMED_DIRECTIVES else key
                if entry in lines:
                    raise SceneError(f"{entry!r} given twice")
            lines[entry] = lineno, raw
            if key in OPERAND_COUNTS and len(parts) != OPERAND_COUNTS[key] + 1:
                raise SceneError(f"{key!r} takes {OPERAND_COUNTS[key]} operand(s), "
                                 f"got {len(parts) - 1}")
            if key == "extent":
                spec.extent = (float(parts[1]), float(parts[2]))
            elif key == "sun":
                spec.sun = ShadowGeometry(float(parts[1]), float(parts[2]))
            elif key == "shadow_factor":
                spec.shadow_factor = float(parts[1])
            elif key == "shadow_factor_nir":
                spec.shadow_factor_nir = float(parts[1])
            elif key == "seed":
                spec.seed = int(parts[1])
            elif key == "train_per_class":
                spec.train_per_class = int(parts[1])
            elif key == "noise":
                spec.noise[parts[1]] = float(parts[2])
            elif key == "texture":
                spec.textures[parts[1]] = (float(parts[2]), float(parts[3]))
            elif key == "spectrum":
                bands = {}
                for item in parts[2:]:
                    band, value = item.split("=")
                    if band not in SPECTRUM_BANDS:
                        raise SceneError(f"unknown band {band!r}")
                    if band in bands:
                        raise SceneError(f"band {band!r} given twice")
                    bands[band] = float(value)
                spec.spectra[parts[1]] = bands
            elif key == "feature":
                spec.features.append(_parse_feature(parts[1:]))
            else:
                raise SceneError(f"unknown directive {key!r}")
        except (IndexError, ValueError, SceneError) as exc:
            raise _on_line(lineno, raw, exc) from exc
    try:
        return spec.validate()
    except SceneError as exc:
        if exc.entry not in lines:
            raise
        raise _on_line(*lines[exc.entry], exc) from exc


# feature words map onto rendered surface classes
FEATURE_KIND_ALIASES = {
    "lake": "water",
    "river": "water",
    "building": "impervious",
}


def _parse_feature(parts) -> Feature:
    kind, shape = parts[0], parts[1]
    kind = FEATURE_KIND_ALIASES.get(kind, kind)
    rest = parts[2:]
    named, numbers = {}, []
    i = 0
    while i < len(rest):
        if rest[i] in ("height", "width"):
            if rest[i] in named:
                raise SceneError(f"{rest[i]!r} given twice")
            named[rest[i]] = float(rest[i + 1])
            i += 2
        else:
            numbers.append(float(rest[i]))
            i += 1
    return Feature(kind, shape, tuple(numbers), **named)


# ---------------------------------------------------------------------------
# rasterization at the supersample grid

def _supersamples(meters: float) -> int:
    """The whole number of supersamples nearest to ``meters``, at least 1."""
    return max(1, int(round(meters / SUPERSAMPLE_M)))


def _supersample_axes(spec: SceneSpec):
    ex, ey = spec.extent
    xs = (np.arange(_supersamples(ex)) + 0.5) * SUPERSAMPLE_M
    ys = ey - (np.arange(_supersamples(ey)) + 0.5) * SUPERSAMPLE_M  # row 0 is the north edge
    return xs, ys


def _feature_mask(f: Feature, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    gx = xs[np.newaxis, :]
    gy = ys[:, np.newaxis]
    if f.shape == "rect":
        x0, y0, x1, y1 = f.params
        return (gx >= x0) & (gx < x1) & (gy >= y0) & (gy < y1)
    if f.shape == "disk":
        cx, cy, radius = f.params
        return (gx - cx) ** 2 + (gy - cy) ** 2 <= radius ** 2
    if f.shape == "line":
        x0, y0, x1, y1 = f.params
        dx, dy = x1 - x0, y1 - y0
        length2 = dx * dx + dy * dy
        t = np.clip(((gx - x0) * dx + (gy - y0) * dy) / length2, 0.0, 1.0)
        px = x0 + t * dx
        py = y0 + t * dy
        return (gx - px) ** 2 + (gy - py) ** 2 <= (f.width / 2.0) ** 2
    verts = np.array(f.params, dtype=np.float64).reshape(-1, 2)  # a poly
    inside = np.zeros((ys.size, xs.size), dtype=bool)
    x2, y2 = verts[-1]
    for x1v, y1v in verts:
        crosses = (y1v > gy) != (y2 > gy)
        with np.errstate(divide="ignore", invalid="ignore"):
            xcut = (x2 - x1v) * (gy - y1v) / (y2 - y1v) + x1v
        inside ^= crosses & (gx < xcut)
        x2, y2 = x1v, y1v
    return inside


def _feature_box(f: Feature, xs: np.ndarray, ys: np.ndarray):
    """Row and column slices of the supersample grid that hold every pixel of
    ``f``, with two pixels to spare against rounding at the edges."""
    if f.shape == "disk":
        cx, cy, radius = f.params
        x0, x1, y0, y1 = cx - radius, cx + radius, cy - radius, cy + radius
    else:
        reach = f.width / 2.0 if f.shape == "line" else 0.0
        x0, x1 = min(f.params[0::2]) - reach, max(f.params[0::2]) + reach
        y0, y1 = min(f.params[1::2]) - reach, max(f.params[1::2]) + reach
    pad = 2 * SUPERSAMPLE_M
    c0, c1 = np.searchsorted(xs, (x0 - pad, x1 + pad))
    r0, r1 = np.searchsorted(-ys, (-y1 - pad, -y0 + pad))  # ys falls with the row
    return slice(int(r0), int(r1)), slice(int(c0), int(c1))


def _meeting(bounds: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Indices, in order, of the features whose ``_feature_box`` meets rows x
    cols, from ``bounds``, each box's (row start, row stop, column start,
    column stop): one vectorised overlap test, so that ``_paint`` is called
    only where it may paint.  ``_paint`` paints nothing outside the box."""
    return np.flatnonzero((bounds[:, 0] < rows.stop) & (bounds[:, 1] > rows.start)
                          & (bounds[:, 2] < cols.stop) & (bounds[:, 3] > cols.start))


STRIP = _supersamples(LANDSAT_PIXEL_M)  # supersamples per 30 m strip or window


def _line_windows(f: Feature, r0, r1, c0, c1, xs, ys):
    """``(r0, r1, c0, c1)`` parts of the grid's rows r0:r1 and columns c0:c1
    that hold every pixel of the line ``f`` there: one per 30 m column
    window, over the rows that the window's part of the line can reach."""
    x0, y0, x1, y1 = f.params
    reach = f.width / 2.0 + 2 * SUPERSAMPLE_M  # the pad of _feature_box
    for c in range(c0, c1, STRIP):
        d = min(c + STRIP, c1)
        t0, t1 = 0.0, 1.0  # the line's points whose x is within reach of the window
        if x1 != x0:
            ta, tb = sorted(((xs[c] - reach - x0) / (x1 - x0),
                             (xs[d - 1] + reach - x0) / (x1 - x0)))
            t0, t1 = max(ta, 0.0), min(tb, 1.0)
            if t0 > t1:
                continue
        ya, yb = sorted((y0 + t0 * (y1 - y0), y0 + t1 * (y1 - y0)))
        top, bottom = np.searchsorted(-ys, (-yb - reach, -ya + reach))  # ys falls with the row
        yield max(r0, int(top)), min(r1, int(bottom)), c, d


def _paint(out: np.ndarray, rows: slice, cols: slice, f: Feature, box, value, xs, ys):
    """Set to ``value`` the pixels of ``f`` in ``out``, which holds the rows
    ``rows`` and columns ``cols`` of the supersample grid; ``box`` is ``f``'s
    ``_feature_box``.  The pixels are those of ``_feature_mask``: a rect is
    one slice, cut by ``searchsorted`` with the mask's own comparisons; a
    line takes the mask over its ``_line_windows``, any other shape over its
    box."""
    r0, r1 = max(rows.start, box[0].start), min(rows.stop, box[0].stop)
    c0, c1 = max(cols.start, box[1].start), min(cols.stop, box[1].stop)
    if r0 >= r1 or c0 >= c1:
        return
    if f.shape == "rect":
        x0, y0, x1, y1 = f.params
        left, right = np.searchsorted(xs, (x0, x1))  # x0 <= gx < x1
        top, bottom = np.searchsorted(-ys, (-y1, -y0), side="right")  # y0 <= gy < y1
        parts = [(max(r0, int(top)), min(r1, int(bottom)), max(c0, int(left)),
                  min(c1, int(right)))]
    elif f.shape == "line":
        parts = _line_windows(f, r0, r1, c0, c1, xs, ys)
    else:
        parts = [(r0, r1, c0, c1)]
    for a, b, c, d in parts:
        if a < b and c < d:
            window = out[a - rows.start:b - rows.start, c - cols.start:d - cols.start]
            if f.shape == "rect":
                window[...] = value
            else:
                window[_feature_mask(f, xs[c:d], ys[a:b])] = value


def _cell_edges(spec: SceneSpec, n: int) -> np.ndarray:
    """Cell boundaries along an axis of ``n`` supersamples, 0 and ``n``
    included.  Cells are cut at every multiple of each sensor pixel and of
    each texture cell, so every sensor pixel is a block of whole cells and
    every class's texture is constant inside a cell.  The PAN pixel's edges
    make every cell at most 8 supersamples wide, so a cell holds at most 64
    supersamples and its counts fit ``uint8``."""
    meters = [pixel_m for _, _, pixel_m in SENSORS] + [c for _, c in spec.textures.values()]
    return np.unique(np.concatenate([np.arange(0, n + 1, _supersamples(m)) for m in meters]))


def _object_height(f: Feature) -> np.float32:
    """Height of the solid object a feature paints (0 for flat surfaces)."""
    return np.float32(f.height if f.kind in ("impervious", "tree") else 0.0)


class _Casts:
    """The cast shadows of the object features, each held only while the
    strips that it reaches are painted.  An object's cast is the
    ``sweep_union`` of its footprint (the pixels of its box ``(rows, cols)``
    whose final height is its own) over the offsets of its height sweep; it
    covers the rows of the box shifted by the sweep's least and greatest row
    offsets, which are known before it is built.  ``bounds`` holds the boxes'
    bounds for ``_meeting``.

    A pixel's final height is that of the last feature painted over it, so a
    box's heights are painted from every feature that meets the box, in file
    order: another object of the same height in the box is part of the
    footprint, and a later flat feature clears the pixels it covers."""

    def __init__(self, spec: SceneSpec, xs, ys, boxes, bounds):
        self.spec, self.xs, self.ys, self.boxes, self.bounds = spec, xs, ys, boxes, bounds
        levels = list(map(_object_height, spec.features))
        heights = sorted({h for h in levels if h > 0})
        self.levels = [heights.index(h) + 1 if h > 0 else 0 for h in levels]
        a, b = spec.sun.offset_coefficients()  # meters east / south per meter height
        slope = max(abs(a), abs(b))
        self.sweeps = []  # per height level, the sorted (row, col) offsets
        for h in heights:
            step = SUPERSAMPLE_M / slope if slope > 0 else h
            self.sweeps.append(sweep_offsets(a, b, height_sweep(0.0, h, step), SUPERSAMPLE_M))
        self.pending = []  # (first row, stop row, feature) of every cast not built yet
        for i, (lvl, (rows, _)) in enumerate(zip(self.levels, boxes)):
            if lvl:
                offsets = self.sweeps[lvl - 1]  # sorted by row
                self.pending.append((rows.start + offsets[0][0], rows.stop + offsets[-1][0], i))
        self.pending.sort(reverse=True)  # the next to build last
        self.held = []  # (stop row, (cast, top, left)) of every cast built and not dropped

    def meeting(self, r: int, stop: int) -> list:
        """``(cast, top, left)`` of every cast that may meet rows r:stop, as
        the strips are painted from the top: the casts held, once those that
        end above row r are dropped and those that start above row stop are
        built.  A cast's top-left pixel is at (top, left) on the supersample
        grid."""
        self.held = [(end, cast) for end, cast in self.held if end > r]
        while self.pending and self.pending[-1][0] < stop:
            _, end, i = self.pending.pop()
            if end > r:
                self.held.append((end, self._build(i)))
        return [cast for _, cast in self.held]

    def _build(self, i: int):
        rows, cols = self.boxes[i]
        lvl = self.levels[i]
        box_level = np.zeros((rows.stop - rows.start, cols.stop - cols.start),
                             dtype=np.min_scalar_type(len(self.sweeps)))
        for j in _meeting(self.bounds, rows, cols):
            _paint(box_level, rows, cols, self.spec.features[j], self.boxes[j], self.levels[j],
                   self.xs, self.ys)
        cast, top, left = sweep_union(box_level == lvl, self.sweeps[lvl - 1])
        return cast, rows.start + top, cols.start + left


N_PAIRS = 2 * len(SURFACE_CLASSES)  # (surface class, lit/shadow) pairs


def _block_side(edges) -> int:
    """The largest power of two, up to 8, that divides every cell edge: the
    side of the square blocks of supersamples that lie in one cell each."""
    g = int(np.gcd.reduce(np.concatenate(edges)))
    return min(8, g & -g)


def _pair_counts(codes: np.ndarray, b: int, row_part, col_part, length: int) -> np.ndarray:
    """``bincount`` of the pair codes ``codes`` at ``N_PAIRS`` times their cell
    number, which is ``row_part[i] + col_part[j]`` in b x b block (i, j).  A
    uniform block is counted once, with weight b * b: its b rows, each read as
    one ``uint{8b}``, are equal and repeat one byte.  A mixed block is counted
    per supersample."""
    lead = row_part[:, np.newaxis] + col_part
    lead += codes[::b, ::b]
    h, w = codes.shape
    rows = codes.view(np.dtype(f"u{b}")).reshape(h // b, b, w // b)
    first = rows[:, 0]
    uniform = first == (first & 0xFF) * int.from_bytes(b"\1" * b, "little")
    for k in range(1, b):
        uniform &= rows[:, k] == first
    n = np.bincount(lead[uniform], minlength=length) * (b * b)
    bi, bj = np.nonzero(~uniform)
    if bi.size:
        mixed = codes.reshape(h // b, b, w // b, b)[bi, :, bj]  # (blocks, b, b)
        n += np.bincount(((row_part[bi] + col_part[bj])[:, np.newaxis, np.newaxis]
                          + mixed).ravel(), minlength=length)
    return n


def _strip_counts(spec: SceneSpec, xs, ys, edges):
    """Per 30 m row strip of the supersample grid, ``(top, stop, first,
    counts)``: the strip holds rows top:stop, and ``counts[i, j, 2 * code +
    shadowed]`` is the number of supersamples of each (class, lit/shadow)
    pair in cell (first + i, j).

    The strip is painted with each feature's lit pair code, plus 1 for an
    object, from every feature whose box meets it, in file order; the slice
    of each object's cast shadow (``_Casts``) that falls on it is ORed into
    a shadow mask; an object pixel's odd code is turned back
    to its lit pair, since objects are not shadows of themselves, and every
    other pixel takes the shadow bit; and the pairs are counted by
    ``_pair_counts``.  Each step gives every pixel of the strip what it gives
    that pixel on the whole grid."""
    boxes = [_feature_box(f, xs, ys) for f in spec.features]
    bounds = np.array([(r.start, r.stop, c.start, c.stop) for r, c in boxes]).reshape(-1, 4)
    # each feature's lit pair code, plus 1 to mark an object's pixels
    codes = [2 * SURFACE_CLASSES.index(f.kind) + (_object_height(f) > 0)
             for f in spec.features]
    casts = _Casts(spec, xs, ys, boxes, bounds)
    row_edges, col_edges = edges
    h, w = ys.size, xs.size
    b = _block_side(edges)
    block_row_cell = np.searchsorted(row_edges, np.arange(0, h, b), side="right") - 1
    wc = col_edges.size - 1
    col_part = (np.searchsorted(col_edges, np.arange(0, w, b), side="right") - 1) * N_PAIRS
    for r in range(0, h, STRIP):  # a strip starts on a cell edge
        stop = min(r + STRIP, h)
        cells = block_row_cell[r // b:stop // b]
        yield r, stop, cells[0], _pair_counts(
            _strip_codes(spec, r, stop, xs, ys, codes, boxes, bounds, casts.meeting(r, stop)), b,
            (cells - cells[0]) * (wc * N_PAIRS), col_part,
            (cells[-1] + 1 - cells[0]) * wc * N_PAIRS).reshape(-1, wc, N_PAIRS)


def _strip_codes(spec: SceneSpec, r, stop, xs, ys, codes, boxes, bounds,
                 casts) -> np.ndarray:
    """The pair codes of rows r:stop of the supersample grid (see
    ``_strip_counts``), whose shadows are those of ``casts``."""
    classes = np.full((stop - r, xs.size), 2 * SURFACE_CLASSES.index("soil"), dtype=np.int8)
    rows, cols = slice(r, stop), slice(0, xs.size)
    for i in _meeting(bounds, rows, cols):
        _paint(classes, rows, cols, spec.features[i], boxes[i], codes[i], xs, ys)
    shadow = np.zeros(classes.shape, dtype=bool)
    for cast, top, left in casts:
        shift_or(shadow, cast, top - r, left)
    classes ^= (classes & 1) | shadow  # the pair code: 2 * class code + shadowed
    return classes


def _texture_grids(spec: SceneSpec, shape) -> list:
    """Per class, ``(factor, grid)``: its multiplicative brightness texture
    on a grid of ``factor``-supersample cells over a grid of ``shape``
    supersamples, clipped to stay positive, in float32 (``None`` when the
    class is untextured).  A texture that takes the class's reflectance
    beyond float32's range is a SceneError of its ``texture`` entry."""
    grids = [None] * len(SURFACE_CLASSES)
    for stream, cls in enumerate(sorted(spec.textures)):
        sigma, cell_m = spec.textures[cls]
        factor = _supersamples(cell_m)
        rng = np.random.default_rng([spec.seed, 1000 + stream])
        cells = 1.0 + rng.normal(0.0, sigma, size=tuple(-(-n // factor) for n in shape))
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            grid = np.clip(cells, 0.2, None).astype(np.float32)
            top = grid.max() * np.float32(max(map(abs, spec.spectra[cls].values())))
        if not np.isfinite(top):
            raise SceneError(f"texture {cls} {sigma!r} {cell_m!r} takes {cls!r} reflectances "
                             f"beyond the float32 range", f"texture {cls}")
        grids[SURFACE_CLASSES.index(cls)] = factor, grid
    return grids


NIR_GROUP = ("nir", "swir1", "swir2")


def _reduce(cells: np.ndarray, row_starts, col_starts) -> np.ndarray:
    """Sum the last two axes of ``cells`` over the runs that start at
    ``row_starts`` and ``col_starts``."""
    return np.add.reduceat(np.add.reduceat(cells, row_starts, axis=-2), col_starts, axis=-1)


def _render(spec: SceneSpec, xs, ys, edges):
    """Per sensor of ``SENSORS``, the sums of its pixels' supersample
    reflectances, (bands, height, width) float64; and per PAN pixel the
    supersamples of each class code, then of shadow, (height, width,
    classes + 1) uint8, since a PAN pixel holds 64.

    Per strip, one product of a weight matrix with the pair counts gives
    each cell's total in every band of ``SPECTRUM_BANDS`` (count times float32
    reflectance over the pairs, in float64), its class and shadow counts,
    and the counts of each textured class, whose per-cell reflectances are
    added next.  Those planes are summed over each sensor's pixels, and a
    pixel that two strips share takes a partial sum from each.  The sums are
    exact (see the module doc), so their order does not matter."""
    row_edges, col_edges = edges
    nb, n_classes = len(SPECTRUM_BANDS), len(SURFACE_CLASSES)
    lut = np.array([[spec.spectra[cls][band] for band in SPECTRUM_BANDS]
                    for cls in SURFACE_CLASSES], dtype=np.float32)
    darken = np.array([spec.shadow_factor_nir if band in NIR_GROUP else spec.shadow_factor
                       for band in SPECTRUM_BANDS], dtype=np.float32)
    textures = _texture_grids(spec, (ys.size, xs.size))
    textured = [code for code, tex in enumerate(textures) if tex is not None]
    # what one supersample of each pair (column) adds to each cell plane
    # (row): its reflectance in each band, but none for a textured class,
    # whose reflectance varies by cell; 1 to its class and, if shadowed, to
    # the shadow plane; and, for a textured class, 1 to its own count
    pairs = np.arange(N_PAIRS)
    own = nb + n_classes + 1
    weights = np.zeros((own + 2 * len(textured), N_PAIRS))
    weights[:nb, 0::2], weights[:nb, 1::2] = lut.T, (lut * darken).T
    weights[nb + pairs // 2, pairs] = 1.0
    weights[nb + n_classes, 1::2] = 1.0
    for i, code in enumerate(textured):
        weights[:nb, 2 * code:2 * code + 2] = 0.0
        weights[own + 2 * i:own + 2 * i + 2, 2 * code:2 * code + 2] = np.eye(2)
    sides = [_supersamples(pixel_m) for _, _, pixel_m in SENSORS]
    col_starts = [np.searchsorted(col_edges, np.arange(0, xs.size, s)) for s in sides]
    bands = [slice(SPECTRUM_BANDS.index(names[0]), SPECTRUM_BANDS.index(names[-1]) + 1)
             for _, names, _ in SENSORS]
    sums = [np.zeros((len(names), ys.size // s, xs.size // s))
            for s, (_, names, _) in zip(sides, SENSORS)]
    pan_counts = np.zeros((*sums[0].shape[1:], n_classes + 1), dtype=np.uint8)
    for top, stop, first, counts in _strip_counts(spec, xs, ys, edges):
        cell_rows = row_edges[first:first + counts.shape[0]]
        planes = weights @ counts.reshape(-1, N_PAIRS).astype(np.float64).T
        planes = planes.reshape(len(weights), *counts.shape[:2])
        totals = planes[:nb]
        for i, code in enumerate(textured):
            if not planes[nb + code].any():
                continue
            factor, grid = textures[code]
            bright = grid[cell_rows // factor][:, col_edges[:-1] // factor]
            lit = lut[code][:, np.newaxis, np.newaxis] * bright
            totals += lit * planes[own + 2 * i]
            lit *= darken[:, np.newaxis, np.newaxis]
            totals += lit * planes[own + 2 * i + 1]
        # the class and shadow counts of a cell, eight uint8 lanes of one
        # uint64, are summed at once: a PAN pixel holds 64, so no lane carries
        lanes = planes[nb:nb + n_classes + 1].transpose(1, 2, 0).astype(np.uint8, order="C")
        for s, cols, band, total in zip(sides, col_starts, bands, sums):
            p0, p1 = top // s, -(-stop // s)
            rows = np.searchsorted(cell_rows, np.maximum(np.arange(p0, p1) * s, top))
            total[:, p0:p1] += _reduce(totals[band], rows, cols)
            if s == sides[0]:
                part = _reduce(lanes.view(np.uint64)[..., 0], rows, cols)
                pan_counts[p0:p1] += part[..., np.newaxis].view(np.uint8)
        del counts, planes, totals, lanes, part  # freed before the next strip is painted
    return sums, pan_counts


def _rasters(spec: SceneSpec, sums, i: int) -> list:
    """One raster of sensor ``SENSORS[i]`` per date (one per ``LANDSAT_DAYS``
    date for Landsat): each pixel's mean reflectance plus noise from stream i + 1.
    A sample beyond float32's range is a SceneError of the ``noise`` entry, as
    the noise-free ones fit (``SceneSpec.validate``, ``_texture_grids``)."""
    sensor, band_names, pixel_m = SENSORS[i]
    geom = GridGeometry(sums.shape[2], sums.shape[1], pixel_m, origin_y=spec.extent[1])
    means = sums / _supersamples(pixel_m) ** 2
    sigma = spec.noise.get(sensor, 0.0)
    rasters = []
    for date_idx in range(len(LANDSAT_DAYS) if sensor == "landsat" else 1):
        bands = np.empty(sums.shape, dtype=np.float32)
        for bidx, pixels in enumerate(means):
            if sigma > 0:
                rng = np.random.default_rng([spec.seed, i + 1, bidx, date_idx])
                pixels = pixels + rng.normal(0.0, sigma, size=pixels.shape)
            with np.errstate(over="ignore"):  # an infinite sample is reported below
                bands[bidx] = pixels
        if sigma > 0 and not np.isfinite(bands).all():
            raise SceneError(f"noise {sensor} {sigma!r} gives samples beyond the float32 range",
                             f"noise {sensor}")
        rasters.append(RasterGrid(geom, bands, list(band_names)))
    return rasters


# one archetypal surface per validation class provides the training exemplars
TRAIN_SURFACE_OF = {
    "vegetation": "grass",
    "soil": "soil",
    "impervious": "impervious",
    "water": "water",
}


def _pick_train_sites(spec: SceneSpec, surface_codes: np.ndarray,
                      shadow_pan: np.ndarray, geometry: GridGeometry):
    """Pure, unshadowed training sites per validation class, as map coords.

    A site is usable when its full 3.2 m MS footprint holds one archetypal
    surface and no shadow, so the sampled MS spectrum is a clean class
    exemplar (look-alike surfaces such as dark plastic film are deliberately
    not part of the training set).
    """
    factor = int(round(MS_PIXEL_M / PAN_PIXEL_M))
    h, w = surface_codes.shape
    hc, wc = h // factor, w // factor
    blocks = surface_codes[:hc * factor, :wc * factor].reshape(hc, factor, wc, factor)
    uniform = (blocks == blocks[:, :1, :, :1]).all(axis=(1, 3))
    shadow_blocks = shadow_pan[:hc * factor, :wc * factor].reshape(hc, factor, wc, factor)
    clean = uniform & ~shadow_blocks.any(axis=(1, 3))
    block_class = blocks[:, 0, :, 0]

    rng = np.random.default_rng([spec.seed, 77])
    sites = []
    for stratum in CLASS_ORDER:
        scode = SURFACE_CLASSES.index(TRAIN_SURFACE_OF[stratum])
        pool = np.flatnonzero(clean & (block_class == scode))
        if pool.size < spec.train_per_class:
            raise SceneError(
                f"only {pool.size} clean training blocks for {stratum!r}, "
                f"need {spec.train_per_class}"
            )
        chosen = rng.choice(pool, size=spec.train_per_class, replace=False)
        for idx in np.sort(chosen):
            br, bc = divmod(int(idx), wc)
            row = br * factor + factor // 2
            col = bc * factor + factor // 2
            x, y = geometry.pixel_center(row, col)
            sites.append((stratum, float(x), float(y)))
    return sites


def generate_scene(spec: SceneSpec) -> SceneBundle:
    spec.validate()
    xs, ys = _supersample_axes(spec)
    edges = (_cell_edges(spec, ys.size), _cell_edges(spec, xs.size))
    sums, pan_counts = _render(spec, xs, ys, edges)
    [pan], [ms], landsat = (_rasters(spec, total, i) for i, total in enumerate(sums))

    n_classes = len(SURFACE_CLASSES)
    class_counts = pan_counts[..., :n_classes]
    half = _supersamples(PAN_PIXEL_M) ** 2 / 2
    water_codes = [SURFACE_CLASSES.index(c) for c in WATER_CLASSES]
    truth_bits = class_counts[..., water_codes].sum(axis=-1) > half
    shadow_bits = pan_counts[..., n_classes] > half
    # majority class per PAN pixel; argmax keeps the smallest code on ties
    majority = np.argmax(class_counts, axis=-1).astype(np.int8)
    stratum_of_code = np.array(
        [CLASS_ORDER.index(EVAL_CLASS_OF[c]) for c in SURFACE_CLASSES], dtype=np.int8
    )
    class_truth_codes = stratum_of_code[majority]

    class_truth = RasterGrid(
        pan.geometry, class_truth_codes.astype(np.float32)[np.newaxis], ["class_index"]
    )
    truth = BinaryMask(pan.geometry, truth_bits)
    shadow_truth = BinaryMask(pan.geometry, shadow_bits)
    sites = _pick_train_sites(spec, majority, shadow_bits, pan.geometry)
    return SceneBundle(pan, ms, landsat, truth, class_truth, shadow_truth, sites)


# ---------------------------------------------------------------------------
# default scene

DEFAULT_SCENE_TEXT = """\
# 240 x 240 m mixed scene: grass plain with a narrow river in the south,
# soil with a lake, plastic-film fields and buildings in the north.
extent 240 240
sun 50 180
shadow_factor 0.5
shadow_factor_nir 0.55
seed 7
train_per_class 60
noise pan 0.004
noise ms 0.030
noise landsat 0
texture grass 0.08 3.2
texture tree 0.22 0.8
texture water 0.10 3.2
spectrum water    pan=0.05  coastal=0.06 blue=0.06 green=0.05 red=0.04 nir=0.02 swir1=0.01 swir2=0.008
spectrum grass    pan=0.18  coastal=0.04 blue=0.04 green=0.08 red=0.05 nir=0.50 swir1=0.25 swir2=0.15
spectrum tree     pan=0.18  coastal=0.04 blue=0.04 green=0.08 red=0.05 nir=0.50 swir1=0.25 swir2=0.15
spectrum soil     pan=0.20  coastal=0.14 blue=0.15 green=0.18 red=0.20 nir=0.30 swir1=0.30 swir2=0.30
spectrum impervious pan=0.25 coastal=0.24 blue=0.25 green=0.25 red=0.25 nir=0.25 swir1=0.28 swir2=0.22
spectrum asphalt  pan=0.06  coastal=0.09 blue=0.09 green=0.09 red=0.09 nir=0.30 swir1=0.25 swir2=0.25
spectrum dark_field pan=0.05 coastal=0.10 blue=0.10 green=0.085 red=0.065 nir=0.03 swir1=0.20 swir2=0.20
feature grass rect 0 0 240 112
feature river line 0 88 240 100 width 2.4
feature tree disk 30 22 7 height 14
feature tree disk 72 30 8 height 18
feature tree disk 112 24 6 height 12
feature tree disk 158 32 7 height 16
feature tree disk 200 24 8 height 20
feature tree disk 58 30 7 height 15
feature lake rect 48 121.6 144 217.6
feature dark_field rect 176 160 224 208
feature building rect 4 140 24 156 height 30
feature building rect 4 180 24 196 height 30
feature building rect 150 116 170 132 height 30
feature asphalt rect 190 120 210 140
feature dark_field rect 4 160 24 176
feature dark_field rect 4 200 24 216
"""


def default_scene() -> SceneSpec:
    return parse_scene(DEFAULT_SCENE_TEXT)
