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
largest reflectance is under about 5000 times its smallest non-zero one.  So the
rasters equal the per-supersample block means bit for bit, whatever the
order of summation.  Everything is seeded, so the same scene file always
produces bit-identical rasters.

The supersample grid is never held whole: painting, shadows and counting go
one 30 m row strip at a time, so no supersample array is larger than a
strip, whose size grows with the scene's width alone.  A shadow may fall
strips away from its object, so each object keeps, in small arrays over its
own box, the pixels of flat ground there, and its cast shadow: the union of
its footprint shifted by every offset of its height sweep, built once and
by doubling (``shadow.sweep_union``), over the box that holds every shift.
Each strip ORs in one slice of each cast.  The footprint and the ground come
from the box's final heights, painted from every feature that meets the box
in file order: a later feature may cover part of the object, and another
object of the same height inside the box is part of the footprint, just as
on a whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .raster import BinaryMask, GridGeometry, RasterGrid
from .shadow import ShadowError, ShadowGeometry, shift_or, sweep_offsets, sweep_union
from .spectral import CLASS_ORDER

SUPERSAMPLE_M = 0.1
PAN_PIXEL_M = 0.8
MS_PIXEL_M = 3.2
LANDSAT_PIXEL_M = 30.0

PAN_BANDS = ("pan",)
MS_BANDS = ("blue", "green", "red", "nir")
LANDSAT_BANDS = ("coastal", "blue", "green", "red", "nir", "swir1", "swir2")
# every band a `spectrum` line gives, once each
SPECTRUM_BANDS = tuple(dict.fromkeys(PAN_BANDS + MS_BANDS + LANDSAT_BANDS))

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

LANDSAT_DAYS = (16, 74, 135, 192, 230, 288, 340)
NOISE_SENSORS = ("pan", "ms", "landsat")


class SceneError(Exception):
    pass


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


# the rules of one texture, noise or feature line, checked on that line by parse_scene
# and again by SceneSpec.validate, for a spec built in code
def _check_texture(cls, sigma, cell_m):
    if cls not in SURFACE_CLASSES:
        raise SceneError(f"unknown texture class {cls!r}")
    if not sigma >= 0:
        raise SceneError(f"texture sigma for {cls!r} must be >= 0")
    if not 0 < cell_m < math.inf:
        raise SceneError(f"texture cell for {cls!r} must be a positive size")


def _check_noise(sensor, sigma):
    if sensor not in NOISE_SENSORS:
        raise SceneError(f"unknown noise sensor {sensor!r}")
    if sigma < 0:
        raise SceneError(f"noise sigma for {sensor!r} must be >= 0")


def _check_feature(f):
    if f.kind not in SURFACE_CLASSES:
        raise SceneError(f"unknown feature class {f.kind!r}")
    if f.kind == "tree" and f.height <= 0:
        raise SceneError("tree feature needs a positive height")
    if f.height < 0:
        raise SceneError("feature height must be >= 0")
    if f.shape == "line" and f.width <= 0:
        raise SceneError("line feature needs a positive width")
    if f.shape == "disk" and f.params[2] < 0:
        raise SceneError(f"disk radius must be >= 0, got {f.params[2]}")


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
    landsat_days: tuple = LANDSAT_DAYS
    train_per_class: int = 60

    def validate(self):
        numbers = [*self.extent, self.sun.sun_elevation_deg, self.sun.sun_azimuth_deg,
                   self.shadow_factor, self.shadow_factor_nir, *self.noise.values(),
                   *(v for pair in self.textures.values() for v in pair),
                   *(v for bands in self.spectra.values() for v in bands.values()),
                   *(v for f in self.features for v in f.params + (f.width, f.height))]
        if not all(map(math.isfinite, numbers)):
            raise SceneError("scene numbers must be finite")
        ex, ey = self.extent
        if ex <= 0 or ey <= 0:
            raise SceneError("extent must be positive")
        for axis in self.extent:
            for pixel in (PAN_PIXEL_M, MS_PIXEL_M, LANDSAT_PIXEL_M):
                if abs(axis / pixel - round(axis / pixel)) > 1e-9:
                    raise SceneError(
                        f"extent {axis} must be a whole number of {pixel} m pixels"
                    )
        for cls in SURFACE_CLASSES:
            if cls not in self.spectra:
                raise SceneError(f"spectral library misses class {cls!r}")
            for band in SPECTRUM_BANDS:
                if band not in self.spectra[cls]:
                    raise SceneError(f"class {cls!r} misses band {band!r}")
        for cls in self.spectra:
            if cls not in SURFACE_CLASSES:
                raise SceneError(f"unknown spectrum class {cls!r}")
        for cls, (sigma, cell_m) in self.textures.items():
            _check_texture(cls, sigma, cell_m)
        for sensor, sigma in self.noise.items():
            _check_noise(sensor, sigma)
        if self.train_per_class < 2:  # the classifier fits each class from 2 sites or more
            raise SceneError(f"train_per_class must be >= 2, got {self.train_per_class}")
        for factor in (self.shadow_factor, self.shadow_factor_nir):
            if not (0.0 < factor <= 1.0):
                raise SceneError("shadow factors must be in (0, 1]")
        for f in self.features:
            _check_feature(f)
        return self


@dataclass
class SceneBundle:
    pan: RasterGrid
    ms: RasterGrid
    landsat: list
    landsat_days: tuple
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
# `feature` gives `height` and `width` at most once.  Numbers are finite, and
# the other directives take exactly the operands shown.

NAMED_DIRECTIVES = ("noise", "texture", "spectrum")
OPERAND_COUNTS = {"extent": 2, "sun": 2, "shadow_factor": 1, "shadow_factor_nir": 1,
                  "seed": 1, "train_per_class": 1, "noise": 2, "texture": 3}


def _number(word: str) -> float:
    value = float(word)
    if not math.isfinite(value):
        raise SceneError(f"{word!r} is not a finite number")
    return value


def parse_scene(text: str) -> SceneSpec:
    spec = SceneSpec()
    given = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key != "feature":
                entry = " ".join(parts[:2]) if key in NAMED_DIRECTIVES else key
                if entry in given:
                    raise SceneError(f"{entry!r} given twice")
                given.add(entry)
            if key in OPERAND_COUNTS and len(parts) != OPERAND_COUNTS[key] + 1:
                raise SceneError(f"{key!r} takes {OPERAND_COUNTS[key]} operand(s), "
                                 f"got {len(parts) - 1}")
            if key == "extent":
                spec.extent = (_number(parts[1]), _number(parts[2]))
            elif key == "sun":
                spec.sun = ShadowGeometry(_number(parts[1]), _number(parts[2]))
            elif key == "shadow_factor":
                spec.shadow_factor = _number(parts[1])
            elif key == "shadow_factor_nir":
                spec.shadow_factor_nir = _number(parts[1])
            elif key == "seed":
                spec.seed = int(parts[1])
            elif key == "train_per_class":
                spec.train_per_class = int(parts[1])
            elif key == "noise":
                spec.noise[parts[1]] = _number(parts[2])
                _check_noise(parts[1], spec.noise[parts[1]])
            elif key == "texture":
                spec.textures[parts[1]] = (_number(parts[2]), _number(parts[3]))
                _check_texture(parts[1], *spec.textures[parts[1]])
            elif key == "spectrum":
                bands = {}
                for item in parts[2:]:
                    band, value = item.split("=")
                    if band not in SPECTRUM_BANDS:
                        raise SceneError(f"unknown band {band!r}")
                    if band in bands:
                        raise SceneError(f"band {band!r} given twice")
                    bands[band] = _number(value)
                spec.spectra[parts[1]] = bands
            elif key == "feature":
                spec.features.append(_parse_feature(parts[1:]))
            else:
                raise SceneError(f"unknown directive {key!r}")
        except (IndexError, ValueError, ShadowError, SceneError) as exc:
            raise SceneError(f"scene line {lineno}: {raw.strip()!r}: {exc}") from exc
    return spec.validate()


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
            named[rest[i]] = _number(rest[i + 1])
            i += 2
        else:
            numbers.append(_number(rest[i]))
            i += 1
    if shape == "rect" and len(numbers) != 4:
        raise SceneError("rect needs x0 y0 x1 y1")
    if shape == "disk" and len(numbers) != 3:
        raise SceneError("disk needs cx cy radius")
    if shape == "line" and len(numbers) != 4:
        raise SceneError("line needs x0 y0 x1 y1")
    if shape == "poly" and (len(numbers) < 6 or len(numbers) % 2):
        raise SceneError("poly needs at least 3 x y pairs")
    if shape not in ("rect", "disk", "line", "poly"):
        raise SceneError(f"unknown shape {shape!r}")
    feature = Feature(kind, shape, tuple(numbers), **named)
    _check_feature(feature)
    return feature


# ---------------------------------------------------------------------------
# rasterization at the supersample grid

def _supersample_axes(spec: SceneSpec):
    ex, ey = spec.extent
    nx = int(round(ex / SUPERSAMPLE_M))
    ny = int(round(ey / SUPERSAMPLE_M))
    xs = (np.arange(nx) + 0.5) * SUPERSAMPLE_M
    ys = ey - (np.arange(ny) + 0.5) * SUPERSAMPLE_M  # row 0 is the north edge
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
        if length2 == 0:
            raise SceneError("degenerate line feature")
        t = np.clip(((gx - x0) * dx + (gy - y0) * dy) / length2, 0.0, 1.0)
        px = x0 + t * dx
        py = y0 + t * dy
        return (gx - px) ** 2 + (gy - py) ** 2 <= (f.width / 2.0) ** 2
    if f.shape == "poly":
        verts = np.array(f.params, dtype=np.float64).reshape(-1, 2)
        inside = np.zeros((ys.size, xs.size), dtype=bool)
        x2, y2 = verts[-1]
        for x1v, y1v in verts:
            crosses = (y1v > gy) != (y2 > gy)
            with np.errstate(divide="ignore", invalid="ignore"):
                xcut = (x2 - x1v) * (gy - y1v) / (y2 - y1v) + x1v
            inside ^= crosses & (gx < xcut)
            x2, y2 = x1v, y1v
        return inside
    raise SceneError(f"unknown shape {f.shape!r}")


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


def _texture_factor(cell_m: float) -> int:
    return max(1, int(round(cell_m / SUPERSAMPLE_M)))


def _cell_edges(spec: SceneSpec, n: int) -> np.ndarray:
    """Cell boundaries along an axis of ``n`` supersamples, 0 and ``n``
    included.  Cells are cut at every multiple of each sensor pixel and of
    each texture cell, so every sensor pixel is a block of whole cells and
    every class's texture is constant inside a cell.  The PAN pixel's edges
    make every cell at most 8 supersamples wide, so a cell holds at most 64
    supersamples and its counts fit ``uint8``."""
    sides = {int(round(p / SUPERSAMPLE_M)) for p in (PAN_PIXEL_M, MS_PIXEL_M, LANDSAT_PIXEL_M)}
    steps = sides | {_texture_factor(c) for _, c in spec.textures.values()}
    return np.unique(np.concatenate([np.arange(0, n + 1, s) for s in steps]))


def _object_height(f: Feature) -> np.float32:
    """Height of the solid object a feature paints (0 for flat surfaces)."""
    return np.float32(f.height if f.kind in ("impervious", "tree") else 0.0)


def _objects(spec: SceneSpec, xs, ys, boxes) -> list:
    """``(ground, rows, cols, cast, top, left)`` of every object feature:
    inside its box ``(rows, cols)``, the pixels of flat ground; then its cast
    shadow, the ``sweep_union`` of its footprint (the box's pixels whose
    final height is its own) over the offsets of its height sweep, whose
    top-left pixel is at (top, left) on the supersample grid.

    A pixel's final height is that of the last feature painted over it, so a
    box's heights are painted from every feature that meets the box, in file
    order: another object of the same height in the box is part of the
    footprint, and a later flat feature clears the pixels it covers."""
    levels = list(map(_object_height, spec.features))
    heights = sorted({h for h in levels if h > 0})
    levels = [heights.index(h) + 1 if h > 0 else 0 for h in levels]
    a, b = spec.sun.offset_coefficients()  # meters east / south per meter height
    slope = max(abs(a), abs(b))
    sweeps = []  # per height level, the sorted (row, col) offsets
    for h in heights:
        step = SUPERSAMPLE_M / slope if slope > 0 else h
        n_steps = int(math.ceil(h / step)) + 1
        sweep = np.minimum(step * np.arange(n_steps), h)
        sweeps.append(sweep_offsets(a, b, sweep, SUPERSAMPLE_M))
    objects = []
    for lvl, (rows, cols) in zip(levels, boxes):
        if not lvl:
            continue
        box_level = np.zeros((ys[rows].size, xs[cols].size),
                             dtype=np.min_scalar_type(len(heights)))
        for f, f_lvl, (f_rows, f_cols) in zip(spec.features, levels, boxes):
            r0, r1 = max(rows.start, f_rows.start), min(rows.stop, f_rows.stop)
            c0, c1 = max(cols.start, f_cols.start), min(cols.stop, f_cols.stop)
            if r0 < r1 and c0 < c1:
                mask = _feature_mask(f, xs[c0:c1], ys[r0:r1])
                box_level[r0 - rows.start:r1 - rows.start,
                          c0 - cols.start:c1 - cols.start][mask] = f_lvl
        cast, top, left = sweep_union(box_level == lvl, sweeps[lvl - 1])
        objects.append((box_level == 0, rows, cols, cast,
                        rows.start + top, cols.start + left))
    return objects


N_PAIRS = 2 * len(SURFACE_CLASSES)  # (surface class, lit/shadow) pairs


def _surface_counts(spec: SceneSpec, xs, ys, edges) -> np.ndarray:
    """``counts[2 * code + shadowed, i, j]``: supersamples of each (class,
    lit/shadow) pair in cell (i, j).

    No supersample array of the whole grid is made.  One 30 m Landsat row of
    supersamples at a time, the strip is painted with each feature's lit pair
    code, from every feature whose box meets it, in file order; the slice of
    each object's cast shadow (built once, by ``_objects``) that falls on it
    is ORed in; the pixels that hold objects are cleared of shadow; the
    shadow bit is ORed into the pair codes; and the pairs are counted.  Each
    step gives every pixel of the strip what it gives that pixel on the whole
    grid, so the counts are the same."""
    boxes = [_feature_box(f, xs, ys) for f in spec.features]
    codes = [2 * SURFACE_CLASSES.index(f.kind) for f in spec.features]  # lit pair
    objects = _objects(spec, xs, ys, boxes)
    row_edges, col_edges = edges
    h, w = ys.size, xs.size
    row_cell = np.searchsorted(row_edges, np.arange(h), side="right") - 1
    col_cell = np.searchsorted(col_edges, np.arange(w), side="right") - 1
    wc = col_edges.size - 1
    col_part = col_cell * N_PAIRS
    counts = np.empty((N_PAIRS, row_edges.size - 1, wc), dtype=np.uint8)
    strip = int(round(LANDSAT_PIXEL_M / SUPERSAMPLE_M))  # starts on a cell edge
    for r in range(0, h, strip):
        stop = min(r + strip, h)
        classes = np.full((stop - r, w), 2 * SURFACE_CLASSES.index("soil"), dtype=np.int8)
        for f, code, (rows, cols) in zip(spec.features, codes, boxes):
            r0, r1 = max(rows.start, r), min(rows.stop, stop)
            if r0 < r1:
                classes[r0 - r:r1 - r, cols][_feature_mask(f, xs[cols], ys[r0:r1])] = code
        shadow = np.zeros(classes.shape, dtype=bool)
        for _, _, _, cast, top, left in objects:
            shift_or(shadow, cast, top - r, left)
        # objects are lit surfaces, not shadows of themselves
        for ground, rows, cols, _, _, _ in objects:
            r0, r1 = max(rows.start, r), min(rows.stop, stop)
            if r0 < r1:
                shadow[r0 - r:r1 - r, cols] &= ground[r0 - rows.start:r1 - rows.start]
        classes |= shadow  # the pair code: 2 * class code + shadowed
        cells = row_cell[r:stop]
        index = ((cells - cells[0]) * (wc * N_PAIRS))[:, np.newaxis] + col_part
        index += classes
        n = np.bincount(index.ravel(), minlength=(cells[-1] + 1 - cells[0]) * wc * N_PAIRS)
        counts[:, cells[0]:cells[-1] + 1] = n.reshape(-1, wc, N_PAIRS).transpose(2, 0, 1)
    return counts


def _pixel_sums(cells: np.ndarray, edges, pixel_m: float, dtype=None) -> np.ndarray:
    """Sum the cell grid in the last two axes into sensor pixels."""
    side = int(round(pixel_m / SUPERSAMPLE_M))
    for axis, e in ((-2, edges[0]), (-1, edges[1])):
        starts = np.searchsorted(e, np.arange(0, e[-1], side))
        cells = np.add.reduceat(cells, starts, axis=axis, dtype=dtype)
    return cells


def _cell_brightness(spec: SceneSpec, edges) -> list:
    """Per class, its multiplicative brightness texture on the cell grid
    (``None`` when untextured): constant over texture cells of the configured
    size, clipped to stay positive."""
    brightness = [None] * len(SURFACE_CLASSES)
    for stream, cls in enumerate(sorted(spec.textures)):
        sigma, cell_m = spec.textures[cls]
        factor = _texture_factor(cell_m)
        ch, cw = (-(-e[-1] // factor) for e in edges)
        rng = np.random.default_rng([spec.seed, 1000 + stream])
        cells = np.clip(1.0 + rng.normal(0.0, sigma, size=(ch, cw)), 0.2, None)
        rows, cols = (e[:-1] // factor for e in edges)
        brightness[SURFACE_CLASSES.index(cls)] = cells[np.ix_(rows, cols)].astype(np.float32)
    return brightness


NIR_GROUP = ("nir", "swir1", "swir2")


def _render(spec: SceneSpec, counts, edges, brightness, band_names, pixel_m,
            sensor: str, sensor_id: int, dates: int = 1) -> list:
    """One raster per date.  A pixel is the mean of its supersamples' float32
    reflectances: per cell, count times reflectance over the pairs, summed
    in float64 and then over the pixel's cells, exactly (see module doc)."""
    ex, ey = spec.extent
    width = int(round(ex / pixel_m))
    height = int(round(ey / pixel_m))
    side = int(round(pixel_m / SUPERSAMPLE_M))
    geom = GridGeometry(width, height, pixel_m, origin_x=0.0, origin_y=ey)
    lut = np.array(
        [[spec.spectra[cls][band] for cls in SURFACE_CLASSES] for band in band_names],
        dtype=np.float32,
    )
    present = counts.reshape(N_PAIRS, -1).any(axis=1)
    means = []
    for bidx, band in enumerate(band_names):
        darken = spec.shadow_factor_nir if band in NIR_GROUP else spec.shadow_factor
        total = np.zeros(counts.shape[1:])
        for code, bright in enumerate(brightness):
            lit = lut[bidx, code] if bright is None else lut[bidx, code] * bright
            for pair, reflect in ((2 * code, lit), (2 * code + 1, lit * darken)):
                if present[pair]:
                    total += np.multiply(counts[pair], reflect, dtype=np.float64)
        means.append(_pixel_sums(total, edges, pixel_m) / side ** 2)
    sigma = spec.noise.get(sensor, 0.0)
    rasters = []
    for date_idx in range(dates):
        bands = np.empty((len(band_names), height, width), dtype=np.float32)
        for bidx, pixels in enumerate(means):
            if sigma > 0:
                rng = np.random.default_rng([spec.seed, sensor_id, bidx, date_idx])
                pixels = pixels + rng.normal(0.0, sigma, size=pixels.shape)
            bands[bidx] = pixels
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
    counts = _surface_counts(spec, xs, ys, edges)
    brightness = _cell_brightness(spec, edges)
    [pan] = _render(spec, counts, edges, brightness, PAN_BANDS, PAN_PIXEL_M, "pan", 1)
    [ms] = _render(spec, counts, edges, brightness, MS_BANDS, MS_PIXEL_M, "ms", 2)
    landsat = _render(spec, counts, edges, brightness, LANDSAT_BANDS, LANDSAT_PIXEL_M,
                      "landsat", 3, dates=len(spec.landsat_days))

    # supersamples per PAN pixel of each class code, then of shadow; a cell
    # or a PAN pixel holds at most 64, so uint8 holds every sum
    n_classes = len(SURFACE_CLASSES)
    planes = np.empty((n_classes + 1, *counts.shape[1:]), dtype=np.uint8)
    np.add(counts[0::2], counts[1::2], out=planes[:n_classes])
    np.sum(counts[1::2], axis=0, dtype=np.uint8, out=planes[n_classes])
    pan_counts = _pixel_sums(planes, edges, PAN_PIXEL_M, dtype=np.uint8)
    class_counts = pan_counts[:n_classes]
    half = int(round(PAN_PIXEL_M / SUPERSAMPLE_M)) ** 2 / 2
    water_codes = [SURFACE_CLASSES.index(c) for c in WATER_CLASSES]
    truth_bits = class_counts[water_codes].sum(axis=0) > half
    shadow_bits = pan_counts[n_classes] > half
    # majority class per PAN pixel; argmax keeps the smallest code on ties
    majority = np.argmax(class_counts, axis=0).astype(np.int8)
    stratum_of_code = np.array(
        [CLASS_ORDER.index(EVAL_CLASS_OF[c]) for c in SURFACE_CLASSES], dtype=np.int8
    )
    class_truth_codes = stratum_of_code[majority]

    class_truth = RasterGrid(
        pan.geometry, class_truth_codes.astype(np.float32)[np.newaxis], ["class_index"]
    )
    truth = BinaryMask(pan.geometry, truth_bits.astype(np.uint8))
    shadow_truth = BinaryMask(pan.geometry, shadow_bits.astype(np.uint8))
    sites = _pick_train_sites(spec, majority, shadow_bits, pan.geometry)
    return SceneBundle(pan, ms, landsat, tuple(spec.landsat_days), truth,
                       class_truth, shadow_truth, sites)


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
