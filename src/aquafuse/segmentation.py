"""Morphological profiles, K-Means object segmentation and per-segment
statistics on the panchromatic grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import RasterError, RasterGrid, read_table, window_reduce, write_table
from .spectral import CLASS_ORDER

# profile family: (band suffix, (rows, cols) of an all-ones rectangle); each
# contributes an opening and a closing band
SE_FAMILY = (
    ("hline4", (1, 4)),
    ("vline4", (4, 1)),
    ("square4", (4, 4)),
    ("square6", (6, 6)),
    ("square8", (8, 8)),
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
    # Lloyd iterations, final objective and convergence of the k-means fit
    # that made ``labels``; None for a map read back from disk
    kmeans_iterations: int | None = None
    kmeans_objective: float | None = None
    kmeans_converged: bool | None = None

    @property
    def count(self):
        return len(self.records)

    def mean(self, values) -> np.ndarray:
        """Per-segment mean of ``values``, one value per pixel of ``labels``."""
        sums = np.bincount(self.labels.ravel(), weights=np.ravel(values), minlength=self.count)
        return sums / self.records.pixel_count


def morphological_profiles(pan: RasterGrid) -> RasterGrid:
    """10-band stack of grayscale openings and closings of the PAN image.

    Band order: opening then closing for each element of ``SE_FAMILY``.
    Borders are edge-replicated.  Each band equals scipy's
    ``grey_opening``/``grey_closing`` with ``mode="nearest"`` and an even side
    anchored at the first of its two central pixels (origin -1), bit for bit:
    an erosion or dilation is a minimum or maximum over the same windows,
    which is exact in any order.
    """
    if pan.bands != 1:
        raise SegmentationError("morphological profiles expect a single-band raster")
    image = pan.data[0]
    bands = np.empty((2 * len(SE_FAMILY), *image.shape), dtype=np.float32)
    names = []
    for suffix, size in SE_FAMILY:
        for op, first, then in (("open", np.minimum, np.maximum),
                                ("close", np.maximum, np.minimum)):
            bands[len(names)] = _rank_filter(_rank_filter(image, size, first), size, then)
            names.append(f"{op}_{suffix}")
    return RasterGrid(pan.geometry, bands, names)


def _rank_filter(image: np.ndarray, size, op) -> np.ndarray:
    """Erosion (``op`` np.minimum) or dilation (np.maximum) of ``image`` by an
    all-ones rectangle of ``size``, edge-replicated, one axis at a time.

    scipy's window rule: the erosion window of a side n starts (n - 1) // 2
    pixels before the pixel; the dilation's is reflected, so it starts n // 2
    before (``grey_dilation`` negates the origin and an even side then
    subtracts 1)."""
    for axis, n in enumerate(size):
        if n > 1:
            before = (n - 1) // 2 if op is np.minimum else n // 2
            pad = [(0, 0), (0, 0)]
            pad[axis] = (before, n - 1 - before)
            image = window_reduce(np.pad(image, pad, mode="edge"), n, op, axis)
    return image


def _standardize(features: np.ndarray) -> np.ndarray:
    """Standardize the columns of ``features`` in place, one at a time, so
    that no temporary larger than a column is made; returns it.  Each column
    should be contiguous (``features`` F-ordered): its mean and deviation are
    then the same reductions over the same contiguous run as those of
    ``features.mean(axis=0)`` and ``features.std(axis=0)``."""
    for column in features.T:
        mean, std = column.mean(), column.std()
        column -= mean
        column /= std if std != 0 else 1.0
    return features


def _round_to_quantum(features: np.ndarray) -> float:
    """Round ``features`` in place, toward zero, to whole multiples of the
    power of two ``q = 2**(ceil(log2(n * max|x|)) - 52)`` for its n rows, and
    return q (0 for all-zero features, which stay as they are).

    Then n * max|x| / q <= 2**52, so every sum of rows, in any order and at
    every partial step, is a whole number of q below 2**53 in magnitude:
    exact in float64.  Rounding toward zero grows no |x|, so the result's
    quantum, or that of any subset of its rows, is q or smaller, and
    rounding it again is a no-op."""
    top = max(float(np.max(features, initial=0.0)), -float(np.min(features, initial=0.0)))
    if top == 0.0:
        return 0.0
    q = 2.0 ** (int(np.ceil(np.log2(len(features) * top))) - 52)
    features /= q
    np.trunc(features, out=features)
    features *= q
    return q


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


def _reset_bounds(features, f2, centers, norm2, rows, assign, upper, lower, sums):
    """Assign ``rows`` (None for every row) to their nearest centres and set
    their bounds of ``_lloyd`` from the computed squared distances.  Given
    ``sums`` (and ``rows`` as an index array), each row whose centre changes
    also moves from its old centre's row sum in ``sums`` to its new one."""
    for block, nearest, best, second in _nearest_two(features, f2, centers, rows):
        tau = KMEANS_SLACK * (f2[block] + norm2)
        if sums is not None:
            old = assign[block]
            moved = old != nearest
            if moved.any():
                x = features[block[moved]]
                np.subtract.at(sums, old[moved], x)
                np.add.at(sums, nearest[moved], x)
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

    Returns ``(assign, centers, iterations, objective, converged)``: the
    objective is the sum of the squared distances of every row to its
    nearest final centre, and ``converged`` tells whether the last pass
    moved every centre coordinate by less than KMEANS_TOL.  ``features``
    should be F-contiguous, so that each column is contiguous, and rounded
    by ``_round_to_quantum``, as ``_kmeans`` rounds them.

    Each pass assigns every row to the centre of its smallest
    ``_sq_distances`` value, and each centre becomes the mean of its rows.
    The rounding makes every sum of rows exact, so the first pass sums each
    centre's rows in full and a later pass moves only the rows that change
    centre from one sum to the other: the sums, and so the centres, are bit
    for bit those of full sums in any order.  The first pass, the labelling
    at the final centres and an empty cluster's search for the farthest row
    compute every distance.  In between, most rows keep their centre, and
    Hamerly's bounds prove it without their distances.  Row i keeps
    ``upper[i]``, at least its distance to its own centre a, and
    ``lower[i]``, at most its distance to any other centre.  When the
    centres move, ``upper`` grows by a's move and ``lower`` shrinks by the
    largest move (the triangle inequality).  A row keeps a unseen if
    ``upper**2 + 2 tau < max(half[a], lower)**2``, where ``half[a]`` is half
    the distance from a to its nearest other centre; the other rows get
    their distances computed and their bounds reset.

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
        if previous is None:  # the first pass computes and sums every row
            _reset_bounds(features, f2, centers, norm2, None, assign, upper, lower, None)
            sums = np.stack([np.bincount(assign, weights=features[:, j], minlength=k)
                             for j in range(dims)], axis=1)
        else:  # a later pass computes the unsettled rows and moves their sums
            rows = _unsettled_rows(assign, upper, lower, f2, norm2, previous, centers)
            _reset_bounds(features, f2, centers, norm2, rows, assign, upper, lower, sums)
            del rows  # so that the next pass's bound test does not overlap it
        counts = np.bincount(assign, minlength=k)
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
    return assign, centers, iterations, float(best.sum()), bool(movement < KMEANS_TOL)


def _kmeans(features: np.ndarray, k: int):
    """k-means that depends on ``features`` alone: Lloyd on every
    KMEANS_SUBSAMPLE-th row from farthest-point centres, then Lloyd on all
    rows from the centres that reaches.  A subsample of fewer than ``k`` rows
    is replaced by all rows.  ``features`` are first rounded in place by
    ``_round_to_quantum``; the subsample's sums are then exact as well, as
    it has fewer rows on the same quantum.  Returns what ``_lloyd`` returns
    for the full pass, so ``iterations`` counts full-data passes."""
    _round_to_quantum(features)
    sample = features[::KMEANS_SUBSAMPLE]
    if len(sample) < k:
        sample = features
    sample = np.asfortranarray(sample)
    centers = _lloyd(sample, _farthest_point_centers(sample, k))[1]
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
    features = np.empty((h * w, pan.bands + mps.bands), order="F")  # each column contiguous
    for column, band in zip(features.T, (*pan.data, *mps.data)):
        column[:] = band.ravel()
    _standardize(features)
    assign, _, iterations, objective, converged = _kmeans(features, k)
    labels = _connected_segments(assign.reshape(h, w))
    records = segment_table(int(labels.max()) + 1)
    records.pixel_count = np.bincount(labels.ravel())
    return SegmentMap(labels, records, pan.geometry, iterations, objective, converged)


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


def segment_stats(segmap: SegmentMap, pan: RasterGrid, mps: RasterGrid,
                  p_ms_field: RasterGrid, p_lan_field: RasterGrid,
                  ms_class_map: RasterGrid, t_pan: float) -> SegmentMap:
    """Fill every per-segment statistic except the shadow proportion;
    ``p_pan`` is the share of PAN pixels strictly darker than ``t_pan``.

    All rasters must already live on the PAN grid; ``ms_class_map`` holds
    indices into ``CLASS_ORDER``.
    """
    for r in (pan, mps, p_ms_field, p_lan_field, ms_class_map):
        if r.geometry != segmap.geometry:
            raise SegmentationError("all rasters must live on the segment grid")
    n_classes = len(CLASS_ORDER)
    class_idx = ms_class_map.data[0].ravel().astype(np.int64)
    if class_idx.min() < 0 or class_idx.max() >= n_classes:
        raise SegmentationError("class map holds an index outside CLASS_ORDER")
    table = segmap.records
    n = segmap.count
    table.votes = np.bincount(segmap.labels.ravel() * n_classes + class_idx,
                              minlength=n * n_classes).reshape(n, n_classes)
    r_pan = segmap.geometry.pixel_size
    table.area_m2 = table.pixel_count * r_pan * r_pan
    table.perimeter_px = _perimeter_edges(segmap.labels, n)
    table.w = 4.0 * table.area_m2 / (table.perimeter_px * r_pan)
    table.p_pan = segmap.mean(pan.data[0] < t_pan)
    table.p_ms = segmap.mean(p_ms_field.data[0])
    table.p_lan = segmap.mean(p_lan_field.data[0])
    table.mp_std = segmap.mean(mps.data.std(axis=0, dtype=np.float64))
    return segmap


def paint_segments(segmap: SegmentMap, values, band_name) -> RasterGrid:
    """Raster whose pixels carry their segment's value."""
    values = np.asarray(values, dtype=np.float32)
    return RasterGrid(segmap.geometry, values[segmap.labels][np.newaxis], [band_name])


def save_segment_stats(segmap: SegmentMap, path) -> None:
    """Write the segment table as one ``.npy`` table."""
    write_table(segmap.records, path)


def load_segment_stats(path, segments: RasterGrid) -> SegmentMap:
    """Read a table written by ``save_segment_stats`` for the ``segments``
    raster, whose ids must be 0..n-1 for n rows, each on its ``pixel_count``
    > 0 pixels; anything else, or a file of another layout, is a RasterError."""
    table = read_table(path, SEGMENT_DTYPE).view(np.recarray)
    ids = segments.data[0]
    if not ((ids >= 0) & (ids < len(table)) & (ids == np.floor(ids))).all():
        raise RasterError(f"{path}: segment ids must be whole numbers "
                          f"in 0..{len(table) - 1}")
    labels = ids.astype(np.int32)
    counts = np.bincount(labels.ravel(), minlength=len(table))
    if not (counts.all() and np.array_equal(counts, table.pixel_count)):
        raise RasterError(f"{path}: pixel_count must be the nonzero pixel count "
                          f"of each id in the segments raster")
    return SegmentMap(labels, table, segments.geometry)
