"""Morphological profiles, K-Means object segmentation and the segment
table on the panchromatic grid: each segment's statistics and its label."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import RasterError, RasterGrid, read_table, row_blocks, window_reduce
from .spectral import CLASS_ORDER, ComputeError, otsu_threshold

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
KMEANS_BLOCK = 1 << 13   # rows per block of k-means features and distances
KMEANS_TEST_BLOCK = 1 << 16  # rows per block of the k-means bound test
KMEANS_SLACK = 2.0 ** -40  # relative rounding slack of the k-means bounds, see _lloyd
STD_BLOCK = 1 << 14      # pixels per block of band_std


# One row per segment, filled by segment_stats.  ``votes`` counts MS
# class-map pixels in CLASS_ORDER order; ``label`` is one of SEGMENT_LABELS,
# the majority class with vegetation split into grass and tree.
SEGMENT_LABELS = ("grass", "tree", "soil", "impervious", "water")
SEGMENT_DTYPE = np.dtype([
    ("pixel_count", "<i8"),
    ("w", "<f8"),           # hydraulic diameter 4*area/perimeter, meters
    ("p_pan", "<f8"),
    ("p_ms", "<f8"),
    ("p_lan", "<f8"),
    ("mp_std", "<f8"),
    ("votes", "<i8", (len(CLASS_ORDER),)),
    ("label", "<U10"),
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
    """10-band stack of grayscale openings and closings of the one-band PAN image.

    Band order: opening then closing for each element of ``SE_FAMILY``.
    Borders are edge-replicated.  Each band equals scipy's
    ``grey_opening``/``grey_closing`` with ``mode="nearest"`` and an even side
    anchored at the first of its two central pixels (origin -1), bit for bit:
    an erosion or dilation is a minimum or maximum over the same windows,
    which is exact in any order.
    """
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


def _quantum(n: int, top: float) -> float:
    """The quantum ``2**(ceil(log2(n * top)) - 52)`` of ``_round_to_quantum``
    for ``n`` rows whose largest |x| is ``top``; 0 for ``top`` 0."""
    return 2.0 ** (int(np.ceil(np.log2(n * top))) - 52) if top else 0.0


def _truncate(values: np.ndarray, q: float) -> None:
    """Round ``values`` in place, toward zero, to whole multiples of ``q``
    (none for q 0)."""
    if q:
        values /= q
        np.trunc(values, out=values)
        values *= q


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
    q = _quantum(len(features), top)
    _truncate(features, q)
    return q


class _FeatureRows:
    """The k-means features of ``kmeans_segment`` as a row source: one row
    per pixel and one column per plane of (PAN, MPs), each column
    standardized (less its mean, over its deviation, or 1 where that is 0)
    and then rounded by ``_round_to_quantum``, but never held as one
    (pixels, planes) matrix.  ``rows[block]``, for a slice or an index
    array, builds the rows of ``block`` as an F-ordered float64 array from
    the float32 planes.

    The values are those of the whole matrix, F-ordered, bit for bit.  The
    pre-pass widens one plane at a time to a contiguous float64 column, as
    the matrix's column is, so its mean and deviation are the same
    reductions over the same values.  A block takes each value through the
    same elementwise steps (subtract the mean, divide by the deviation,
    divide by q, truncate, multiply by q), each correctly rounded, so a
    value does not depend on the block it is built in.  ``(x - mean) /
    deviation``, rounded at each step, never falls as x grows, so the
    largest and smallest standardized values of a column are those of the
    plane's largest and smallest values; they give the largest |x| of the
    matrix, and so its quantum q."""

    def __init__(self, planes):
        self.planes = [plane.ravel() for plane in planes]
        self.means, self.scales, top = [], [], 0.0
        column = np.empty(len(self))  # the one float64 column, reused for each plane
        for plane in self.planes:
            column[:] = plane
            mean = column.mean()
            column -= mean  # numpy's std, in place
            std = np.sqrt(np.square(column, out=column).sum() / len(column))
            scale = std if std != 0 else 1.0
            self.means.append(mean)
            self.scales.append(scale)
            top = max(top, float((plane.max() - mean) / scale),
                      -float((plane.min() - mean) / scale))
        self.q = _quantum(len(self), top)

    def __len__(self):
        return len(self.planes[0])

    def __getitem__(self, block):
        count = len(range(len(self))[block]) if isinstance(block, slice) else len(block)
        rows = np.empty((count, len(self.planes)), order="F")
        for column, plane, mean, scale in zip(rows.T, self.planes, self.means, self.scales):
            column[:] = plane[block]
            column -= mean
            column /= scale
        _truncate(rows, self.q)
        return rows


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, added column by column, left to right, as
    numpy sums the rows of an F-ordered matrix in ``np.sum(x ** 2, axis=1)``.
    (numpy would sum a C-ordered row with several accumulators, which
    rounds otherwise.)"""
    x2 = x[:, 0] ** 2
    for column in x.T[1:]:
        x2 += column ** 2
    return x2


def _sq_distances(x: np.ndarray, x2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances ``x2 - 2 x.c + c2`` of every row of ``x``, whose
    squared norms are ``x2``, to every centre, in one (k, rows) array, so
    that each centre's distances are contiguous.  Scaling the product by -2
    is exact and addition commutes, so the bits are those of
    ``(x2 - 2 * (centers @ x.T)) + c2[:, None]``.  Not those of the (rows,
    k) product ``x @ centers.T`` transposed: some BLAS kernels round it
    otherwise.  The rule that holds on every kernel is that of
    ``row_blocks``, so a lone row is multiplied as two copies of itself."""
    if len(x) == 1:
        return _sq_distances(x[[0, 0]], x2[[0, 0]], centers)[:, :1]
    d2 = centers @ x.T
    d2 *= -2.0
    d2 += x2
    d2 += np.sum(centers ** 2, axis=1)[:, None]
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


def _nearest_two(x, x2, centers):
    """The nearest and second-nearest centres of the rows ``x``, whose
    squared norms are ``x2``: the index of each row's smallest
    ``_sq_distances`` value (the lowest on a tie), that value, and the
    smallest value at any other centre (inf for one centre).  Callers pass
    one of the ``row_blocks`` of up to KMEANS_BLOCK rows at a time, so that
    no (rows, k) array is made; by their rule, each value is bit-equal to
    that of one product over all rows."""
    d2 = _sq_distances(x, x2, centers)
    # one centre at a time: argmin and min over k values per column are
    # slow; a strict < keeps the lowest index on a tie, as argmin does
    nearest = np.zeros(d2.shape[1], dtype=np.intp)
    best = d2[0].copy()
    second = np.full(d2.shape[1], np.inf)
    for c in range(1, len(centers)):
        value = d2[c]
        np.minimum(second, np.maximum(best, value), out=second)
        np.copyto(nearest, c, where=value < best)
        np.minimum(best, value, out=best)
    return nearest, best, second


def _nearest(features, centers):
    """Every row's nearest centre, as the smallest unsigned type that holds
    its index, and its ``_sq_distances`` value."""
    n = len(features)
    assign = np.empty(n, dtype=np.min_scalar_type(len(centers) - 1))
    best = np.empty(n)
    for block in row_blocks(n, KMEANS_BLOCK):
        x = features[block]
        assign[block], best[block], _ = _nearest_two(x, _row_norms(x), centers)
    return assign, best


def _reset_bounds(features, centers, norm2, drift, total, rows, label, budget, sums):
    """Assign ``rows`` to their nearest centres and set their budgets of
    ``_lloyd`` from the computed squared distances, building each block of
    rows once: ``drift`` holds each centre's cumulative move and ``total``
    the cumulative largest move, as of these centres.  With ``rows`` None
    (the first pass), each block's rows go into their centres' sums in
    ``sums`` by one product with a 0/1 indicator.  With an index array, the
    rows whose centre changes move from their old centre's sum to their new
    one's by one product with a +-1 indicator.  Returns the number of rows
    each centre gained, the indicator's sums."""
    first = rows is None
    ids = np.arange(len(centers))[:, None]
    gained = np.zeros(len(centers))
    for block in row_blocks(len(label) if first else len(rows), KMEANS_BLOCK):
        block = block if first else rows[block]
        x = features[block]
        x2 = _row_norms(x)
        nearest, best, second = _nearest_two(x, x2, centers)
        if first:
            indicator = (nearest == ids) * 1.0
        else:
            old = label[block]
            moved = old != nearest
            indicator = (nearest[moved] == ids) * 1.0
            indicator -= old[moved] == ids
            x = x[moved]
        sums += indicator @ x
        gained += indicator.sum(axis=1)
        label[block] = nearest
        tau = KMEANS_SLACK * (x2 + norm2)
        upper = np.sqrt(best + tau) + np.sqrt(2.0 * tau)  # U + m of _lloyd
        lower = np.sqrt(np.maximum(second - tau, 0.0))    # L
        budget[block] = lower - upper + drift[nearest] + total
    return gained


def _unsettled_rows(label, budget, reach):
    """The rows whose budget of ``_lloyd`` no longer proves their centre a,
    the candidates: those whose ``budget`` is at most ``reach[a]``.
    (``np.take`` gathers by a uint8 label twice as fast as indexing does.)"""
    rows = []
    for block in row_blocks(len(label), KMEANS_TEST_BLOCK):  # no row-length temporaries
        rows.append(np.flatnonzero(budget[block] <= np.take(reach, label[block])) + block.start)
    return np.concatenate(rows)


def _lloyd(features, centers: np.ndarray):
    """Lloyd's k-means from ``centers``, until no centre coordinate moves by
    KMEANS_TOL or more, for at most KMEANS_MAX_ITER passes.

    Returns ``(assign, centers, iterations, objective, converged)``: the
    objective is the sum of the squared distances of every row to its
    nearest final centre, and ``converged`` tells whether the last pass
    moved every centre coordinate by less than KMEANS_TOL.  ``assign`` has
    the smallest unsigned type that holds a centre index.

    ``features`` is a row source: ``len(features)`` rows, of which
    ``features[block]`` gives those of a slice or an index array as a
    float64 array, the same values in any block.  ``_FeatureRows`` builds
    them from the image planes; a matrix is a row source too.  The rows must
    be rounded by ``_round_to_quantum``, as ``_FeatureRows`` rounds them.
    Rows are read only in ``row_blocks`` of up to KMEANS_BLOCK: the first
    pass and the final labelling build each block once, a later pass only
    its unsettled rows.  No value depends on the block a row is built in,
    its squared norm is summed left to right (``_row_norms``, again for
    each block built, so that no array of norms is held) and each distance
    is the one a product over all rows gives it (the rule of
    ``row_blocks``, which ``_sq_distances`` keeps for a lone row), so the
    results are those of one matrix, bit for bit.

    Each pass assigns every row to the centre of its smallest
    ``_sq_distances`` value, and each centre becomes the mean of its rows.
    The rounding makes every sum of rows exact, so the first pass adds up
    each centre's rows block by block, as one product of a 0/1 indicator
    with the block, and a later pass moves only the rows that change
    centre from one sum, and one count, to the other, by a product with a
    +-1 indicator: every product term is a row or its negation, so the
    sums, and so the centres, are bit for bit those of full sums in any
    order.  The first pass, the labelling at the final centres and an empty
    cluster's search for the farthest row compute every distance.  In
    between, most rows keep their centre, and Hamerly's bounds, kept as
    sums of drifts (Ding et al., Yinyang k-means, 2015), prove it without
    their distances.

    The bounds.  A row holds two values, 9 bytes for up to 256 centres:
    its centre a, in the smallest unsigned type that holds it, and a
    float64 budget set when its distances were last computed, at its
    reset.  There U is at least its distance to a, L at most its distance
    to any other centre, and m = ``sqrt(2 tau)`` is a margin for rounding
    (below).  The passes keep, per centre, its cumulative move D since the
    first pass, and the cumulative largest move M; a row stores ``budget =
    L - U - m + D[a] + M``, with D and M as of its reset.  By the triangle
    inequality, once the centres have moved on, its distance to a is at
    most U plus a's moves since, and its distance to any other centre at
    least L less the largest moves since.  The margin then is m at the
    reset plus ``growth``, ``sqrt(2 KMEANS_SLACK (norm2 - norm2 of the
    first pass))``: ``norm2``, the largest |c|**2 of any centre so far,
    never falls, and ``sqrt(s + t) <= sqrt(s) + sqrt(t)``.  So a row whose
    budget is above ``D[a] + M + growth``, D and M now, is kept unseen:
    every other centre is farther from it than a by more than the margin.
    A pass reads only the label and the budget of every row.  Only the
    rows whose budget is used up, the candidates, are built, and their
    budgets reset.

    Why the labels are those of a full computation, bit for bit.  The
    computed value e_c of ``f2 - 2 f.c + c2``, f2 the row's squared norm,
    differs from the exact squared distance d_c**2 by at most eps =
    (2 dims + 4) unit roundoffs (2**-53) of f2 + |c|**2.  ``tau =
    KMEANS_SLACK * (f2 + norm2)`` is 8192 of them, of a sum at least as
    large, so eps <= tau / 4 for fewer than 1000 columns.  Hence U =
    ``sqrt(e_a + tau)`` is at least d_a, and L = ``sqrt(max(e_b - tau,
    0))``, e_b the second smallest value, at most every other d_c.  A row
    with d_c - d_a > sqrt(tau / 2) for every other centre c has d_c**2 -
    d_a**2 > tau / 2 >= 2 eps, hence e_a < e_c: its computed label is a.
    In exact arithmetic, the test keeps a row only with d_c - d_a above the
    margin, at least ``sqrt(2 tau)`` now, twice sqrt(tau / 2).  The second
    sqrt(tau / 2) >= 2**-20.5 sqrt(f2 + norm2) covers the float64 rounding
    of every step that makes or tests a budget.  Each of those few dozen
    steps rounds by a unit roundoff of a value below 5 KMEANS_MAX_ITER
    sqrt(f2 + norm2): U and L, no distance being more than |x| + |c|; every
    centre's move, no more than twice sqrt(norm2), so that D and M are each
    below 2 KMEANS_MAX_ITER sqrt(norm2); ``growth``, and the sums and
    differences of these.  That is below 2**-37 sqrt(f2 + norm2) in all.
    Besides, each move, D, M, ``growth`` and the per-centre sums of the
    test are rounded up by a factor 1 + KMEANS_SLACK, so that each step of
    D and M is at least the move it adds.  Squared distances must be
    finite.  With one centre L is infinite, and so is every budget: no row
    is ever a candidate.  The test is strict, so a row that ties is always
    recomputed and goes to the lowest index, as argmin does.
    """
    centers, iterations, converged = _lloyd_passes(features, centers)
    assign, best = _nearest(features, centers)
    return assign, centers, iterations, float(best.sum()), converged


def _lloyd_passes(features, centers: np.ndarray):
    """The passes of ``_lloyd`` without its final labelling: returns
    ``(centers, iterations, converged)``."""
    n = len(features)
    k = len(centers)
    up = 1.0 + KMEANS_SLACK
    label = np.empty(n, dtype=np.min_scalar_type(k - 1))
    budget = np.empty(n)
    sums = np.zeros(centers.shape)
    drift, total = np.zeros(k), 0.0  # D and M of _lloyd
    previous = None
    for iterations in range(1, KMEANS_MAX_ITER + 1):
        top = float(np.max(np.sum(centers ** 2, axis=1)))
        if previous is None:  # the first pass computes, sums and counts every row
            norm2 = first_norm2 = top
            counts = _reset_bounds(features, centers, norm2, drift, total, None,
                                   label, budget, sums)
        else:  # a later pass computes the unsettled rows and moves their sums and counts
            norm2 = max(norm2, top)
            move = np.sqrt(np.sum((centers - previous) ** 2, axis=1)) * up
            drift = (drift + move) * up
            total = (total + float(np.max(move))) * up
            growth = np.sqrt(2.0 * KMEANS_SLACK * (norm2 - first_norm2)) * up
            rows = _unsettled_rows(label, budget, (drift + total + growth) * up)
            counts += _reset_bounds(features, centers, norm2, drift, total, rows,
                                    label, budget, sums)
            del rows  # so that the next pass's bound test does not overlap it
        new_centers = sums / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            farthest = int(np.argmax(_nearest(features, centers)[1]))
            new_centers[empty] = features[farthest:farthest + 1]
        movement = np.max(np.abs(new_centers - centers))
        previous, centers = centers, new_centers
        if movement < KMEANS_TOL:
            break
    return centers, iterations, bool(movement < KMEANS_TOL)


def _kmeans(features, k: int):
    """k-means that depends on ``features`` alone: Lloyd on every
    KMEANS_SUBSAMPLE-th row from farthest-point centres, then Lloyd on all
    rows from the centres that reaches.  A subsample of fewer than ``k`` rows
    is replaced by all rows.  ``features`` is a row source of ``_lloyd``,
    rounded by ``_round_to_quantum``; the subsample's sums are then exact as
    well, as it has fewer rows on the same quantum.  The subsample is one
    F-ordered matrix, freed before the full pass, and only its centres are
    kept.  Returns what ``_lloyd`` returns for the full pass, so
    ``iterations`` counts full-data passes."""
    sample = features[::KMEANS_SUBSAMPLE]
    if len(sample) < k:
        sample = features[:]
    sample = np.asfortranarray(sample)
    centers = _lloyd_passes(sample, _farthest_point_centers(sample, k))[0]
    del sample
    return _lloyd(features, centers)


def _connected_segments(cluster_img: np.ndarray) -> np.ndarray:
    """Split equal-cluster regions into 4-connected components with ids in
    raster-scan order of each component's first pixel.

    Run-based labelling (He, Chao and Suzuki, IEEE TIP 2008): a run is a
    maximal stretch of one cluster along a row, and runs are numbered in
    raster order.  Each run is linked once to each equal-valued run that it
    touches in the row above.  The links are merged in rounds, until no link
    joins two roots: each root is hooked to the smallest root below it that
    it is linked to, and then pointer jumping points every run at its root
    (Shiloach and Vishkin, 1982).  A root is thus its component's smallest
    run, whose first pixel is the component's first, so the roots in run
    order are the ids.  The run of each pixel is numbered in int32, as the
    ids are."""
    h, w = cluster_img.shape
    flat = cluster_img.ravel()
    starts = np.ones(flat.size, dtype=bool)  # a run starts at column 0 or a change
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::w] = True
    run_of = np.cumsum(starts, dtype=np.int32)
    run_of -= 1
    # a pixel equal to the one above links their two runs; two runs overlap
    # in one stretch, which begins where one of them starts, so counting only
    # such pixels gives one link per pair
    links = (flat[w:] == flat[:-w]) & (starts[w:] | starts[:-w])
    below, above = run_of[w:][links], run_of[:-w][links]
    parent = np.arange(int(run_of[-1]) + 1)
    while True:
        root_below, root_above = parent[below], parent[above]
        joins = root_below != root_above
        if not joins.any():
            break
        below, above = below[joins], above[joins]
        root_below, root_above = root_below[joins], root_above[joins]
        np.minimum.at(parent, np.maximum(root_below, root_above),
                      np.minimum(root_below, root_above))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    ids = np.cumsum(parent == np.arange(len(parent)), dtype=np.int32)
    ids -= 1
    return ids[parent][run_of].reshape(h, w)


def kmeans_segment(pan: RasterGrid, mps: RasterGrid, k: int) -> SegmentMap:
    """Cluster (PAN, MPs) feature vectors, the MPs on the PAN grid, into
    ``k >= 1`` clusters and split them into 4-connected segments.  The result
    depends on the images alone.  The feature rows are built a block at a time
    from the planes (``_FeatureRows``), so no (pixels, bands) matrix is held."""
    h, w = pan.geometry.height, pan.geometry.width
    assign, _, iterations, objective, converged = _kmeans(
        _FeatureRows((*pan.data, *mps.data)), k)
    labels = _connected_segments(assign.reshape(h, w))
    records = segment_table(int(labels.max()) + 1)
    records.pixel_count = _pixel_counts(labels, len(records))
    return SegmentMap(labels, records, pan.geometry, iterations, objective, converged)


def _pixel_counts(labels: np.ndarray, n: int) -> np.ndarray:
    """Pixels of each id 0..n-1 in (h, w) ``labels``, 64 rows at a time (no intp copy)."""
    counts = np.zeros(n, dtype=np.int64)
    for rows in row_blocks(len(labels), 64):
        counts += np.bincount(labels[rows].ravel(), minlength=n)
    return counts


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


def band_std(stack: np.ndarray) -> np.ndarray:
    """``stack.std(axis=0, dtype=np.float64)`` of a (bands, h, w) stack, one
    band at a time and up to STD_BLOCK pixels at a time, so that no
    temporary larger than one float64 block is made besides the (h, w)
    result.  numpy reduces axis 0 plane by plane, in this order, with the
    same steps for each element, so the result is the same bit for bit."""
    bands = stack.reshape(len(stack), -1)
    var = np.zeros(bands.shape[1])
    for pixels in row_blocks(len(var), STD_BLOCK):
        block, out = bands[:, pixels], var[pixels]
        mean = block[0].astype(np.float64)
        for band in block[1:]:
            mean += band
        mean /= len(block)
        dev = np.empty_like(mean)
        for band in block:
            np.subtract(band, mean, out=dev)
            dev *= dev
            out += dev
    var /= len(stack)
    return np.sqrt(var, out=var).reshape(stack.shape[1:])


def segment_stats(segmap: SegmentMap, pan: np.ndarray, mp_std: np.ndarray,
                  p_ms: np.ndarray, p_lan: np.ndarray, ms_class: np.ndarray,
                  t_pan: float, t_tree: float | None) -> SegmentMap:
    """Fill the segment table but the ``pixel_count`` of ``kmeans_segment``
    from (h, w) planes on the segment grid: ``p_pan`` is the share of ``pan``
    pixels strictly darker than ``t_pan``; ``p_ms``, ``p_lan`` and ``mp_std``
    (each pixel's ``band_std`` over the profiles, which the caller takes
    before it resamples the fields, so that the ten profile bands are freed
    first) are the means of their planes; ``votes`` counts the ``ms_class``
    indices into CLASS_ORDER, checked by their reader.  The label, set last,
    is the class of the most votes (the first in CLASS_ORDER on a tie), with
    vegetation split into tree (``mp_std`` strictly above ``t_tree``) and
    grass; ``t_tree`` None takes Otsu's threshold over the vegetation
    segments, and all are grass where Otsu has none."""
    n_classes, n, table = len(CLASS_ORDER), segmap.count, segmap.records
    codes = segmap.labels.ravel() * n_classes + ms_class.ravel().astype(np.int64)
    table.votes = np.bincount(codes, minlength=n * n_classes).reshape(n, n_classes)
    r = segmap.geometry.pixel_size
    table.w = 4.0 * (table.pixel_count * r * r) / (_perimeter_edges(segmap.labels, n) * r)
    table.p_pan = segmap.mean(pan < t_pan)
    table.p_ms = segmap.mean(p_ms)
    table.p_lan = segmap.mean(p_lan)
    table.mp_std = segmap.mean(mp_std)
    table.label = np.array(CLASS_ORDER)[table.votes.argmax(axis=1)]
    veg = table.label == "vegetation"
    if veg.any():
        if t_tree is None:
            try:
                t_tree = otsu_threshold(table.mp_std[veg])
            except ComputeError:
                t_tree = np.inf
        table.label[veg] = np.where(table.mp_std[veg] > t_tree, "tree", "grass")
    return segmap


def paint_segments(segmap: SegmentMap, values, band_name) -> RasterGrid:
    """Raster whose pixels carry their segment's value."""
    values = np.asarray(values, dtype=np.float32)
    return RasterGrid(segmap.geometry, values[segmap.labels][np.newaxis], [band_name])


def load_segment_stats(path, segments: RasterGrid) -> SegmentMap:
    """Read the segment table that the ``segment`` stage wrote for the ``segments``
    raster, whose ids must be 0..n-1 for n rows, each on its ``pixel_count`` > 0
    pixels, with probabilities in [0, 1], ``w`` finite and > 0, ``mp_std`` finite
    and >= 0 and labels of SEGMENT_LABELS; anything else is a RasterError."""
    table = read_table(path, SEGMENT_DTYPE).view(np.recarray)
    for name, rule, held in (
            *((p, "in [0, 1]", (0 <= table[p]) & (table[p] <= 1))
              for p in ("p_pan", "p_ms", "p_lan")),
            ("w", "finite and > 0", np.isfinite(table.w) & (table.w > 0)),
            ("mp_std", "finite and >= 0", np.isfinite(table.mp_std) & (table.mp_std >= 0)),
            ("label", f"one of {', '.join(SEGMENT_LABELS)}",
             np.isin(table.label, SEGMENT_LABELS))):
        if not held.all():
            raise RasterError(f"{path}: {name} must be {rule}")
    ids = segments.data[0]
    if not ((ids >= 0) & (ids < len(table)) & (ids == np.floor(ids))).all():
        raise RasterError(f"{path}: segment ids must be whole numbers "
                          f"in 0..{len(table) - 1}")
    labels = ids.astype(np.int32)
    counts = _pixel_counts(labels, len(table))
    if not (counts.all() and np.array_equal(counts, table.pixel_count)):
        raise RasterError(f"{path}: pixel_count must be the nonzero pixel count "
                          f"of each id in the segments raster")
    return SegmentMap(labels, table, segments.geometry)
