"""Morphological profiles, K-Means object segmentation and per-segment
statistics on the panchromatic grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import BinaryMask, RasterError, RasterGrid, read_table, write_table
from .spectral import CLASS_ORDER

# profile family: (shape, size); each contributes an opening and a closing band
SE_FAMILY = (
    ("hline", 4),
    ("vline", 4),
    ("square", 4),
    ("square", 6),
    ("square", 8),
)

KMEANS_TOL = 1e-6
KMEANS_MAX_ITER = 100
KMEANS_SUBSAMPLE = 16    # the centres are found on every 16th pixel first
KMEANS_BLOCK = 1 << 12   # rows per block of k-means distances
KMEANS_SLACK = 2.0 ** -40  # relative rounding slack of the k-means bounds, see _lloyd


class SegmentationError(Exception):
    pass


# One row per segment.  ``votes`` counts MS class-map pixels in CLASS_ORDER
# order; ``label`` is "" until classify_segments_majority sets it; ``p_w`` and
# ``water`` are filled by the fuse stage.
SEGMENT_DTYPE = np.dtype([
    ("pixel_count", "<i8"),
    ("perimeter_px", "<i8"),
    ("area_m2", "<f8"),
    ("w", "<f8"),           # hydraulic diameter 4*area/perimeter, meters
    ("p_pan", "<f8"),
    ("p_ms", "<f8"),
    ("p_lan", "<f8"),
    ("p_shadow", "<f8"),
    ("mp_std", "<f8"),
    ("votes", "<i8", (len(CLASS_ORDER),)),
    ("label", "<U10"),
    ("p_w", "<f8"),
    ("water", "?"),
])


def segment_table(n: int) -> np.recarray:
    """Zeroed table of ``n`` segments, one column per SEGMENT_DTYPE field."""
    return np.zeros(n, dtype=SEGMENT_DTYPE).view(np.recarray)


@dataclass
class SegmentMap:
    labels: np.ndarray               # (h, w) int32 segment ids, 0..S-1
    records: np.recarray             # segment_table rows, indexed by id
    geometry: object
    # Lloyd iterations and final objective of the k-means fit that made
    # ``labels``; None for a map read back from disk
    kmeans_iterations: int | None = None
    kmeans_objective: float | None = None

    @property
    def count(self):
        return len(self.records)


def structuring_element(shape: str, size: int) -> np.ndarray:
    if size < 2:
        raise SegmentationError(f"structuring element size must be >= 2, got {size}")
    if shape == "hline":
        return np.ones((1, size), dtype=bool)
    if shape == "vline":
        return np.ones((size, 1), dtype=bool)
    if shape == "square":
        return np.ones((size, size), dtype=bool)
    raise SegmentationError(f"unknown structuring element shape {shape!r}")


def _origin_for(footprint: np.ndarray):
    # even-sized axes anchor at the top-left of the central 2x2
    return tuple(-1 if n % 2 == 0 and n > 1 else 0 for n in footprint.shape)


def morphological_profiles(pan: RasterGrid) -> RasterGrid:
    """10-band stack of grayscale openings and closings of the PAN image.

    Band order: opening then closing for each element of ``SE_FAMILY``.
    Borders are edge-replicated.
    """
    if pan.bands != 1:
        raise SegmentationError("morphological profiles expect a single-band raster")
    image = pan.data[0]
    bands = []
    names = []
    for shape, size in SE_FAMILY:
        fp = structuring_element(shape, size)
        origin = _origin_for(fp)
        opened = ndimage.grey_opening(image, footprint=fp, mode="nearest", origin=origin)
        closed = ndimage.grey_closing(image, footprint=fp, mode="nearest", origin=origin)
        bands.extend([opened, closed])
        names.extend([f"open_{shape}{size}", f"close_{shape}{size}"])
    return RasterGrid(pan.geometry, np.stack(bands).astype(np.float32), names)


def _standardize(features: np.ndarray) -> np.ndarray:
    """Standardize the columns of ``features`` in place; returns it."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0] = 1.0
    features -= mean
    features /= std
    return features


def _sq_distances(features: np.ndarray, f2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances ``f2 - 2 f.c + c2`` of every row of ``features`` to
    every centre, in one (rows, k) array.  Scaling the product by -2 is exact
    and addition commutes, so the bits are those of
    ``(f2 - (2 * features) @ centers.T) + c2``."""
    d2 = features @ centers.T
    d2 *= -2.0
    d2 += f2[:, None]
    d2 += np.sum(centers ** 2, axis=1)
    return d2


def _farthest_point_centers(sample: np.ndarray, k: int) -> np.ndarray:
    """``k`` rows of ``sample``: first the row farthest from the mean, then
    each time the row farthest from every centre picked so far."""
    centers = np.empty((k, sample.shape[1]))
    centers[0] = sample[int(np.argmax(np.sum((sample - sample.mean(axis=0)) ** 2, axis=1)))]
    dist = np.sum((sample - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        centers[i] = sample[int(np.argmax(dist))]
        dist = np.minimum(dist, np.sum((sample - centers[i]) ** 2, axis=1))
    return centers


def _nearest_two(features, f2, centers, rows=None):
    """The nearest and second-nearest centres of ``rows`` (an index array, or
    None for every row), KMEANS_BLOCK rows at a time, so that no (n, k) array
    is made.  Yields ``(block, nearest, best, second)``: the block's rows (a
    slice or an index array), the index of each row's smallest
    ``_sq_distances`` value (the lowest on a tie), that value, and the
    smallest value at any other centre (inf for one centre).

    Each value is bit-equal to that of one product over all rows: BLAS's gemm
    computes a row alike in every product of two or more rows.  But numpy
    multiplies a single row by gemv, which rounds otherwise, so a lone row of
    a longer product is multiplied as two copies of itself."""
    count = len(features) if rows is None else len(rows)
    for start in range(0, count, KMEANS_BLOCK):
        block = slice(start, start + KMEANS_BLOCK)
        if rows is not None:
            block = rows[block]
        x, x2 = features[block], f2[block]
        if len(x) == 1 and len(features) > 1:
            d2 = _sq_distances(x[[0, 0]], x2[[0, 0]], centers)[:1]
        else:
            d2 = _sq_distances(x, x2, centers)
        # one column at a time: argmin and min over rows of k values are slow;
        # a strict < keeps the lowest index on a tie, as argmin does
        nearest = np.zeros(len(d2), dtype=np.intp)
        best = d2[:, 0].copy()
        second = np.full(len(d2), np.inf)
        for c in range(1, len(centers)):
            value = d2[:, c]
            np.minimum(second, np.maximum(best, value), out=second)
            np.copyto(nearest, c, where=value < best)
            np.minimum(best, value, out=best)
        yield block, nearest, best, second


def _nearest(features, f2, centers):
    """Every row's nearest centre and its ``_sq_distances`` value."""
    assign = np.empty(len(features), dtype=np.intp)
    best = np.empty(len(features))
    for block, nearest, value, _ in _nearest_two(features, f2, centers):
        assign[block] = nearest
        best[block] = value
    return assign, best


def _reset_bounds(features, f2, centers, norm2, rows, assign, upper, lower):
    """Assign ``rows`` (None for every row) to their nearest centres and set
    their bounds of ``_lloyd`` from the computed squared distances."""
    for block, nearest, best, second in _nearest_two(features, f2, centers, rows):
        tau = KMEANS_SLACK * (f2[block] + norm2)
        assign[block] = nearest
        upper[block] = np.sqrt(best + tau)
        lower[block] = np.sqrt(np.maximum(second - tau, 0.0))


def _unsettled_rows(assign, upper, lower, f2, norm2, old, new):
    """Move the bounds of ``_lloyd`` with the centres from ``old`` to ``new``
    and return the rows whose bounds no longer prove their centre."""
    up, down = 1.0 + KMEANS_SLACK, 1.0 - KMEANS_SLACK
    move = np.sqrt(np.sum((new - old) ** 2, axis=1)) * up
    upper += move[assign]
    upper *= up
    lower -= np.max(move)
    lower *= down
    gaps = np.sqrt(np.sum((new[:, None] - new) ** 2, axis=2))
    np.fill_diagonal(gaps, np.inf)
    half = 0.5 * down * np.min(gaps, axis=1)
    # upper**2 + 2 tau against max(half, lower)**2, in two row-length arrays
    lhs = f2 + norm2
    lhs *= 2.0 * KMEANS_SLACK
    lhs += upper * upper
    rhs = half[assign]
    np.maximum(rhs, lower, out=rhs)
    rhs *= rhs
    settled = lhs < rhs
    del lhs, rhs
    return np.flatnonzero(~settled)


def _lloyd(features: np.ndarray, centers: np.ndarray):
    """Lloyd's k-means from ``centers``, until no centre coordinate moves by
    KMEANS_TOL or more, for at most KMEANS_MAX_ITER passes.

    Returns ``(assign, centers, iterations, objective)``: the objective is the
    sum of the squared distances of every row to its nearest final centre.
    ``features`` should be F-contiguous, so that each column is contiguous.

    Each pass assigns every row to the centre of its smallest
    ``_sq_distances`` value, and each centre becomes the mean of its rows,
    summed in row order.  The first pass, the labelling at the final centres
    and an empty cluster's search for the farthest row compute every
    distance.  In between, most rows keep their centre, and Hamerly's bounds
    prove it without their distances.  Row i keeps ``upper[i]``, at least
    its distance to its own centre a, and ``lower[i]``, at most its distance
    to any other centre.  When the centres move, ``upper`` grows by a's move
    and ``lower`` shrinks by the largest move (the triangle inequality).  A
    row keeps a unseen if ``upper**2 + 2 tau < max(half[a], lower)**2``,
    where ``half[a]`` is half the distance from a to its nearest other
    centre; the other rows get their distances computed and their bounds
    reset.

    Why the labels are those of a full computation, bit for bit.  The
    computed value e_c of ``f2 - 2 f.c + c2`` differs from the exact squared
    distance d_c**2 by at most (2 dims + 4) unit roundoffs (2**-53) of
    f2 + |c|**2.  ``tau = KMEANS_SLACK * (f2 + norm2)`` is 8192 of them,
    of a sum at least as large: ``norm2`` is the largest |c|**2 of any
    centre so far.  So the bounds set from computed values, ``sqrt(e_a + tau)``
    and ``sqrt(max(e_b - tau, 0))`` with e_b the second smallest, bound the
    exact distances.  Moves are rounded up and half-distances down by a
    factor 1 +- KMEANS_SLACK, and so is each bound after its update, so the
    bounds hold after any number of passes.  A row that passes the test has
    d_a**2 + 2 tau < d_c**2, hence e_a < e_c, for every other centre c.  The
    test is strict, so a row that ties is always recomputed and goes to the
    lowest index, as argmin does.  The rounding of the square roots and of
    the test itself is a few unit roundoffs of values below 2 (f2 + norm2):
    with the error above, all of it stays inside the slack for fewer than
    1000 columns.
    """
    n = len(features)
    k, dims = centers.shape
    f2 = np.empty(n)  # in blocks, so that no (n, dims) array of squares is made
    for start in range(0, n, KMEANS_BLOCK):
        block = slice(start, start + KMEANS_BLOCK)
        f2[block] = np.sum(features[block] ** 2, axis=1)
    assign = np.empty(n, dtype=np.intp)
    upper = np.empty(n)
    lower = np.empty(n)
    norm2 = 0.0
    previous = None
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        norm2 = max(norm2, float(np.max(np.sum(centers ** 2, axis=1))))
        # the first pass computes every row, a later one the unsettled rows
        rows = None if previous is None else _unsettled_rows(
            assign, upper, lower, f2, norm2, previous, centers)
        _reset_bounds(features, f2, centers, norm2, rows, assign, upper, lower)
        del rows  # so that the next pass's bound test does not overlap it
        counts = np.bincount(assign, minlength=k)
        # per-centre sums in pixel order, as features[assign == c].sum(axis=0)
        sums = np.stack([np.bincount(assign, weights=features[:, j], minlength=k)
                         for j in range(dims)], axis=1)
        new_centers = sums / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            farthest = np.argmax(_nearest(features, f2, centers)[1])
            new_centers[empty] = features[int(farthest)]
        movement = np.max(np.abs(new_centers - centers))
        previous, centers = centers, new_centers
        if movement < KMEANS_TOL:
            break
    del upper, lower
    assign, best = _nearest(features, f2, centers)
    return assign, centers, iterations, float(best.sum())


def _kmeans(features: np.ndarray, k: int):
    """k-means that depends on ``features`` alone: Lloyd on every
    KMEANS_SUBSAMPLE-th row from farthest-point centres, then Lloyd on all
    rows from the centres that reaches.  A subsample of fewer than ``k`` rows
    is replaced by all rows.  Returns what ``_lloyd`` returns for the full
    pass, so ``iterations`` counts full-data passes."""
    sample = features[::KMEANS_SUBSAMPLE]
    if len(sample) < k:
        sample = features
    sample = np.asfortranarray(sample)
    _, centers, _, _ = _lloyd(sample, _farthest_point_centers(sample, k))
    return _lloyd(features, centers)


FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _connected_segments(cluster_img: np.ndarray) -> np.ndarray:
    """Split equal-cluster regions into 4-connected components with ids in
    raster-scan order of each component's first pixel."""
    h, w = cluster_img.shape
    combined = np.zeros((h, w), dtype=np.int64)
    offset = 0
    for cluster in np.unique(cluster_img):
        comp, n = ndimage.label(cluster_img == cluster, structure=FOUR_CONNECTED)
        mask = comp > 0
        combined[mask] = comp[mask] + offset
        offset += n
    flat = combined.ravel() - 1
    first = np.full(offset, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    remap = np.empty(offset, dtype=np.int32)
    remap[np.argsort(first, kind="stable")] = np.arange(offset, dtype=np.int32)
    return remap[flat].reshape(h, w)


def kmeans_segment(pan: RasterGrid, mps: RasterGrid, k: int) -> SegmentMap:
    """Cluster (PAN, MPs) feature vectors into ``k >= 1`` clusters and split
    them into 4-connected segments.  The result depends on the images alone."""
    if pan.geometry != mps.geometry:
        raise SegmentationError("PAN and profile rasters must share one grid")
    h, w = pan.geometry.height, pan.geometry.width
    features = np.concatenate([pan.data, mps.data]).reshape(-1, h * w).T.astype(np.float64)
    features = _standardize(features)
    assign, _, iterations, objective = _kmeans(features, k)
    labels = _connected_segments(assign.reshape(h, w))
    n_segments = int(labels.max()) + 1
    counts = np.bincount(labels.ravel(), minlength=n_segments)
    records = segment_table(n_segments)
    records.pixel_count = counts
    return SegmentMap(labels, records, pan.geometry, iterations, objective)


def _perimeter_edges(labels: np.ndarray, n: int) -> np.ndarray:
    """Exposed pixel edges per segment (neighbor of another segment or border)."""
    per = np.zeros(n, dtype=np.int64)
    horiz = labels[:, 1:] != labels[:, :-1]
    vert = labels[1:, :] != labels[:-1, :]
    for side in (labels[:, 1:][horiz], labels[:, :-1][horiz],
                 labels[1:, :][vert], labels[:-1, :][vert],
                 labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]):
        per += np.bincount(side.ravel(), minlength=n)
    return per


def _segment_means(labels_flat, values_flat, counts):
    sums = np.bincount(labels_flat, weights=values_flat, minlength=counts.size)
    return sums / counts


def segment_stats(segmap: SegmentMap, pan: RasterGrid, mps: RasterGrid,
                  p_ms_field: RasterGrid, p_lan_field: RasterGrid,
                  ms_class_map: RasterGrid) -> SegmentMap:
    """Fill every per-segment statistic except the shadow proportion.

    All rasters must already live on the PAN grid; ``ms_class_map`` holds
    indices into ``CLASS_ORDER``.
    """
    for r in (pan, mps, p_ms_field, p_lan_field, ms_class_map):
        if r.geometry != segmap.geometry:
            raise SegmentationError("all rasters must live on the segment grid")
    labels = segmap.labels
    flat = labels.ravel()
    n = segmap.count
    counts = np.bincount(flat, minlength=n)
    perimeter = _perimeter_edges(labels, n)
    r_pan = segmap.geometry.pixel_size

    p_ms = _segment_means(flat, p_ms_field.data[0].ravel().astype(np.float64), counts)
    p_lan = _segment_means(flat, p_lan_field.data[0].ravel().astype(np.float64), counts)
    mp_std_px = mps.data.astype(np.float64).std(axis=0, ddof=0)
    mp_std = _segment_means(flat, mp_std_px.ravel(), counts)

    n_classes = len(CLASS_ORDER)
    class_idx = ms_class_map.data[0].ravel().astype(np.int64)
    if class_idx.min() < 0 or class_idx.max() >= n_classes:
        raise SegmentationError("class map holds an index outside CLASS_ORDER")
    table = segmap.records
    table.votes = np.bincount(flat * n_classes + class_idx,
                              minlength=n * n_classes).reshape(n, n_classes)
    table.pixel_count = counts
    table.area_m2 = counts * r_pan * r_pan
    table.perimeter_px = perimeter
    table.w = 4.0 * table.area_m2 / (perimeter * r_pan)
    table.p_ms = p_ms
    table.p_lan = p_lan
    table.mp_std = mp_std
    return segmap


def pan_water_probability(segmap: SegmentMap, pan: RasterGrid, t_pan: float) -> SegmentMap:
    """Per segment, the fraction of PAN pixels darker than the threshold."""
    if not np.isfinite(t_pan):
        raise SegmentationError("t_pan must be finite")
    flat = segmap.labels.ravel()
    n = segmap.count
    counts = np.bincount(flat, minlength=n)
    if (counts == 0).any():
        raise SegmentationError("segment with no pixels")
    dark = np.bincount(flat[pan.data[0].ravel() < t_pan], minlength=n)
    segmap.records.p_pan = dark / counts
    return segmap


def paint_segments(segmap: SegmentMap, values, band_name="value") -> RasterGrid:
    """Raster whose pixels carry their segment's value."""
    values = np.asarray(values, dtype=np.float32)
    return RasterGrid(segmap.geometry, values[segmap.labels][np.newaxis], [band_name])


def segment_water_mask(segmap: SegmentMap, water_flags) -> BinaryMask:
    flags = np.asarray(water_flags, dtype=np.uint8)
    return BinaryMask(segmap.geometry, flags[segmap.labels])


def save_segment_stats(segmap: SegmentMap, path) -> None:
    """Write the segment table as one ``.npy`` table."""
    write_table(segmap.records, path)


def load_segment_stats(path, labels: np.ndarray, geometry) -> SegmentMap:
    """Read a table written by ``save_segment_stats`` for the segment raster
    ``labels``; a file of another layout or length is a RasterError."""
    labels = np.asarray(labels, dtype=np.int32)
    table = read_table(path, SEGMENT_DTYPE)
    n = int(labels.max()) + 1
    if table.shape != (n,):
        raise RasterError(f"{path}: {table.shape} rows for {n} segments")
    return SegmentMap(labels, table.view(np.recarray), geometry)
