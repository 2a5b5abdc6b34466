import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from aquafuse import segmentation
from aquafuse.config import PipelineConfig
from aquafuse.raster import (GridGeometry, RasterError, RasterGrid, read_raster, row_blocks,
                            write_table)
from aquafuse.segmentation import (
    KMEANS_BLOCK,
    KMEANS_MAX_ITER,
    KMEANS_SUBSAMPLE,
    KMEANS_TOL,
    SE_FAMILY,
    SegmentMap,
    band_std,
    kmeans_segment,
    load_segment_stats,
    morphological_profiles,
    paint_segments,
    segment_stats,
    segment_table,
)
from aquafuse.spectral import CLASS_ORDER


def pan_raster(values, pixel_size=0.8):
    values = np.asarray(values, dtype=np.float32)
    h, w = values.shape
    geom = GridGeometry(w, h, pixel_size, origin_y=h * pixel_size)
    return RasterGrid(geom, values[np.newaxis], ["pan"])


def reference_lloyd(features, centers):
    """Lloyd's k-means from ``centers`` as first written: distances from four
    (n, k) arrays, each centre the mean of a boolean-mask copy of its rows."""
    k = len(centers)
    for _ in range(KMEANS_MAX_ITER):
        d2 = (np.sum(features ** 2, axis=1)[:, None]
              - 2.0 * features @ centers.T
              + np.sum(centers ** 2, axis=1)[None, :])
        assign = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] == 0:
                far = int(np.argmax(np.min(d2, axis=1)))
                new_centers[c] = features[far]
            else:
                new_centers[c] = features[assign == c].mean(axis=0)
        movement = np.max(np.abs(new_centers - centers))
        centers = new_centers
        if movement < KMEANS_TOL:
            break
    d2 = (np.sum(features ** 2, axis=1)[:, None]
          - 2.0 * features @ centers.T
          + np.sum(centers ** 2, axis=1)[None, :])
    return np.argmin(d2, axis=1), centers


def reference_kmeans(features, k):
    """The two-step k-means written out: farthest-point centres on every
    KMEANS_SUBSAMPLE-th row (all rows if that leaves fewer than k), starting
    from the row farthest from the mean; Lloyd there; Lloyd on all rows."""
    sample = features[::KMEANS_SUBSAMPLE]
    if len(sample) < k:
        sample = features
    picked = [int(np.argmax(np.sum((sample - sample.mean(axis=0)) ** 2, axis=1)))]
    while len(picked) < k:
        dist = np.min([np.sum((sample - sample[i]) ** 2, axis=1) for i in picked], axis=0)
        picked.append(int(np.argmax(dist)))
    _, centers = reference_lloyd(sample, sample[picked])
    return reference_lloyd(features, centers)


def reference_connected_segments(cluster_img):
    """_connected_segments as first written: scipy's 4-connected labelling of
    each cluster's mask in turn, then ids reordered by each component's first
    pixel in raster-scan order."""
    four_connected = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    h, w = cluster_img.shape
    combined = np.zeros((h, w), dtype=np.int64)
    offset = 0
    for cluster in np.unique(cluster_img):
        comp, n = ndimage.label(cluster_img == cluster, structure=four_connected)
        mask = comp > 0
        combined[mask] = comp[mask] + offset
        offset += n
    flat = combined.ravel() - 1
    first = np.full(offset, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size))
    remap = np.empty(offset, dtype=np.int32)
    remap[np.argsort(first, kind="stable")] = np.arange(offset, dtype=np.int32)
    return remap[flat].reshape(h, w)


def scipy_profiles(image):
    """The profile stack from scipy's ``grey_opening`` and ``grey_closing``,
    edge-replicated, an even side anchored at the first of its two central
    pixels."""
    bands = []
    for _, size in SE_FAMILY:
        origin = tuple(-1 if n % 2 == 0 else 0 for n in size)
        for fn in (ndimage.grey_opening, ndimage.grey_closing):
            bands.append(fn(image, size=size, mode="nearest", origin=origin))
    return np.stack(bands)


def brute_morph(image, fp, anchor, op):
    """Direct windowed min/max with edge replication; opening/closing use the
    reflected window for the second stage."""
    h, w = image.shape
    offs = [(r - anchor[0], c - anchor[1])
            for r in range(fp.shape[0]) for c in range(fp.shape[1]) if fp[r, c]]

    def scan(img, offsets, fn):
        out = np.empty_like(img)
        for r in range(h):
            for c in range(w):
                vals = [img[min(max(r + dr, 0), h - 1), min(max(c + dc, 0), w - 1)]
                        for dr, dc in offsets]
                out[r, c] = fn(vals)
        return out

    reflected = [(-dr, -dc) for dr, dc in offs]
    if op == "open":
        return scan(scan(image, offs, min), reflected, max)
    return scan(scan(image, reflected, max), offs, min)


class TestMorphologicalProfiles:
    def test_constant_image(self):
        pan = pan_raster(np.full((12, 12), 3.5))
        mps = morphological_profiles(pan)
        assert mps.bands == 10
        assert np.allclose(mps.data, 3.5)

    def test_bright_pixel_removed_by_opening(self):
        img = np.zeros((10, 10))
        img[5, 5] = 9.0
        mps = morphological_profiles(pan_raster(img))
        opened = mps.data[mps.band_names.index("open_square4")]
        assert np.allclose(opened, 0.0)

    def test_dark_pixel_filled_by_closing(self):
        img = np.full((10, 10), 4.0)
        img[4, 6] = 0.0
        mps = morphological_profiles(pan_raster(img))
        closed = mps.data[mps.band_names.index("close_square4")]
        assert np.allclose(closed, 4.0)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        img = rng.random((9, 9)).astype(np.float32)
        mps = morphological_profiles(pan_raster(img))
        for i, (suffix, size) in enumerate(SE_FAMILY):
            fp = np.ones(size, bool)
            anchor = tuple(n // 2 - 1 if n % 2 == 0 and n > 1 else n // 2
                           for n in fp.shape)
            assert np.array_equal(mps.data[2 * i], brute_morph(img, fp, anchor, "open")), suffix
            assert np.array_equal(mps.data[2 * i + 1],
                                  brute_morph(img, fp, anchor, "close")), suffix

    def test_fixture_matches_scipy(self, pipeline_dir):
        pan = read_raster(pipeline_dir / "pan.hdr")
        assert np.array_equal(morphological_profiles(pan).data, scipy_profiles(pan.data[0]))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 5), (2, 12), (7, 3)])
    def test_narrower_than_the_window_matches_scipy(self, shape):
        """Images narrower than a window side take many of its samples from
        the replicated edge."""
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        img = rng.normal(size=shape).astype(np.float32)
        assert np.array_equal(morphological_profiles(pan_raster(img)).data,
                              scipy_profiles(img))

    @pytest.mark.parametrize("seed", range(4))
    def test_plateaus_match_scipy(self, seed):
        """Few grey levels in blocks and lines, so that most windows hold
        ties, and runs of equal values longer than a window."""
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 3, size=(9, 11)).repeat(3, axis=0).repeat(2, axis=1)
        img[rng.integers(0, img.shape[0]), :] = 5
        img[:, rng.integers(0, img.shape[1])] = -1
        img = img.astype(np.float32)
        assert np.array_equal(morphological_profiles(pan_raster(img)).data,
                              scipy_profiles(img))

    def test_order_and_idempotence(self):
        rng = np.random.default_rng(1)
        img = rng.random((16, 16)).astype(np.float32)
        pan = pan_raster(img)
        mps = morphological_profiles(pan)
        for i in range(5):
            opened, closed = mps.data[2 * i], mps.data[2 * i + 1]
            assert (opened <= img + 1e-6).all()
            assert (closed >= img - 1e-6).all()
            again = morphological_profiles(pan_raster(opened))
            assert np.array_equal(again.data[2 * i], opened)
            again = morphological_profiles(pan_raster(closed))
            assert np.array_equal(again.data[2 * i + 1], closed)

    def test_fixture_peak_allocation(self, pipeline_dir):
        """Each opening and closing is written into the one (10, h, w) output
        array: the traced peak on the fixture stays below 1.5 times it."""
        pan = read_raster(pipeline_dir / "pan.hdr")
        tracemalloc.start()
        try:
            mps = morphological_profiles(pan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * mps.data.nbytes


class TestKmeansSegment:
    def test_single_cluster(self):
        pan = pan_raster(np.random.default_rng(0).random((8, 8)))
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=1)
        assert segmap.count == 1
        assert (segmap.labels == 0).all()

    def test_separated_blobs_recovered(self):
        # 4 well-separated intensity plateaus; oracle is nearest-true-center
        img = np.zeros((16, 16))
        img[:8, :8], img[:8, 8:], img[8:, :8], img[8:, 8:] = 0.0, 10.0, 20.0, 30.0
        pan = pan_raster(img)
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=4)
        labels = segmap.labels
        for block in (labels[:8, :8], labels[:8, 8:], labels[8:, :8], labels[8:, 8:]):
            assert np.unique(block).size == 1
        assert np.unique(labels).size == 4

    def test_disjoint_equal_regions_get_distinct_segments(self):
        img = np.zeros((9, 9))
        img[1:3, 1:3] = 5.0
        img[6:8, 6:8] = 5.0
        pan = pan_raster(img)
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=2)
        a = segmap.labels[1, 1]
        b = segmap.labels[6, 6]
        assert a != b

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pan = pan_raster(rng.random((12, 12)))
        mps = morphological_profiles(pan)
        a = kmeans_segment(pan, mps, k=3)
        b = kmeans_segment(pan, mps, k=3)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("height", [10, 150])
    def test_partition_completeness(self, height):
        # 150 rows: the pixel counts are summed over several blocks of rows
        rng = np.random.default_rng(3)
        pan = pan_raster(rng.random((height, 14)))
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=5)
        counts = np.bincount(segmap.labels.ravel(), minlength=segmap.count)
        assert counts.sum() == height * 14
        assert np.array_equal(segmap.records.pixel_count, counts)

    def test_fixture_peak_allocation(self, pipeline_dir):
        """No (n, 11) float64 feature matrix is held: the rows are built a
        block at a time from the planes, and k-means keeps 9 bytes a pixel
        (a uint8 label and a float64 budget), so the traced peak on the
        fixture, where the blocks weigh most, stays below half the size of
        that matrix."""
        pan = read_raster(pipeline_dir / "pan.hdr")
        mps = morphological_profiles(pan)
        tracemalloc.start()
        try:
            kmeans_segment(pan, mps, PipelineConfig().kmeans_k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * pan.data.size * 11 * 8

    def test_tile_2x2_fit_and_peak_allocation(self, tile_2x2):
        """On the bundled layout tiled 2 x 2 (480 m), k-means takes 19 full
        passes to its pinned objective, and the traced peak of
        kmeans_segment stays below 20 bytes a pixel: 9 bytes of k-means
        state a pixel (a uint8 label and a float64 budget), the int32
        segment ids, and blocks of rows."""
        pan = tile_2x2.pan
        mps = morphological_profiles(pan)
        tracemalloc.start()
        try:
            segmap = kmeans_segment(pan, mps, PipelineConfig().kmeans_k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert segmap.kmeans_iterations == 19
        assert segmap.kmeans_objective == pytest.approx(59521.6373, abs=1e-4)
        assert peak < 20 * pan.data.size

    def test_ids_in_raster_scan_order(self):
        rng = np.random.default_rng(4)
        pan = pan_raster(rng.random((10, 10)))
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=4)
        firsts = [np.flatnonzero(segmap.labels.ravel() == s)[0]
                  for s in range(segmap.count)]
        assert firsts == sorted(firsts)


def standardized(planes):
    """The (pixels, planes) F-ordered float64 matrix of ``planes``, each
    column less its mean and over its deviation (1 where that is 0), from
    reductions over the whole matrix."""
    features = np.reshape(planes, (len(planes), -1)).T.astype(np.float64)
    std = features.std(axis=0)
    return (features - features.mean(axis=0)) / np.where(std == 0, 1.0, std)


def standardized_features(pan):
    """The (pixels, 11) F-ordered feature matrix that kmeans_segment
    clusters, before its rounding."""
    return standardized(np.concatenate([pan.data, morphological_profiles(pan).data]))


def feature_rows(pan):
    """The row source of the features that kmeans_segment clusters."""
    return segmentation._FeatureRows((*pan.data, *morphological_profiles(pan).data))


def bits(values):
    """The bit patterns of float64 ``values``, so that -0.0 differs from 0.0."""
    return np.ascontiguousarray(values).view(np.uint64)


def test_standardize_gives_the_whole_array_formula():
    """The row source standardizes one contiguous column at a time with the
    bits of the column means and deviations taken over the whole F-ordered
    matrix; a constant column is only centred."""
    rng = np.random.default_rng(8)
    planes = rng.normal(3.0, 2.0, size=(11, 50021)).astype(np.float32)
    planes[4] = 1.5
    features = planes.T.astype(np.float64)
    std = features.std(axis=0)
    rows = segmentation._FeatureRows(planes)
    assert np.array_equal(bits(rows.means), bits(features.mean(axis=0)))
    assert np.array_equal(bits(rows.scales), bits(np.where(std == 0, 1.0, std)))
    got = rows[:]
    assert not got[:, 4].any()
    want = standardized(planes)
    segmentation._round_to_quantum(want)
    assert np.array_equal(bits(got), bits(want))


class TestFeatureRows:
    """Any block of rows from the row source has the bits of the same rows
    of the rounded feature matrix, and so do their squared norms."""

    def assert_blocks_match(self, planes, blocks):
        rows = segmentation._FeatureRows(planes)
        want = standardized(planes)
        assert rows.q == segmentation._round_to_quantum(want)
        want2 = np.sum(want ** 2, axis=1)
        for block in blocks:
            got = rows[block]
            assert got.flags.f_contiguous
            assert np.array_equal(bits(got), bits(want[block]))
            assert np.array_equal(bits(segmentation._row_norms(got)), bits(want2[block]))
        return rows, want, want2

    def test_fixture_blocks(self, pipeline_dir):
        pan = read_raster(pipeline_dir / "pan.hdr")
        planes = np.concatenate([pan.data, morphological_profiles(pan).data])
        n = pan.data.size
        picked = np.sort(np.random.default_rng(9).choice(n, 5000, replace=False))
        rows, _, _ = self.assert_blocks_match(planes, [
            slice(0, KMEANS_BLOCK), slice(KMEANS_BLOCK - 3, KMEANS_BLOCK + 5),
            slice(KMEANS_BLOCK, 2 * KMEANS_BLOCK), slice(n - 5, n + KMEANS_BLOCK),
            slice(None), slice(None, None, KMEANS_SUBSAMPLE), picked,
            np.arange(3, n, 7), slice(n - 1, n), slice(0, 1),
            *(np.array([i]) for i in range(5, n, n // 40)),
            *row_blocks(n, KMEANS_BLOCK),
            *(picked[part] for part in row_blocks(len(picked), KMEANS_BLOCK))])
        assert rows.q > 0

    def test_constant_column(self):
        planes = np.random.default_rng(10).random((3, 2 * KMEANS_BLOCK + 1)).astype(np.float32)
        planes[1] = 0.75
        rows, _, _ = self.assert_blocks_match(planes, [
            slice(None), slice(KMEANS_BLOCK - 1, KMEANS_BLOCK + 1), np.array([7]),
            np.arange(0, 2 * KMEANS_BLOCK + 1, 5)])
        assert rows.scales[1] == 1.0
        assert not rows[:][:, 1].any()

    def test_all_zero_features(self):
        planes = np.full((2, 40), 0.25, dtype=np.float32)
        rows, _, _ = self.assert_blocks_match(planes, [slice(None), np.array([3, 9])])
        assert rows.q == 0.0
        assert not rows[:].any()

    def test_fixture_kmeans_is_the_matrix_kmeans(self, pipeline_dir):
        """k-means through the row source gives what it gives on the rounded
        matrix: labels, centres, passes and objective, bit for bit."""
        pan = read_raster(pipeline_dir / "pan.hdr")
        k = PipelineConfig().kmeans_k
        features = standardized_features(pan)
        segmentation._round_to_quantum(features)
        got = segmentation._kmeans(feature_rows(pan), k)
        want = segmentation._kmeans(features, k)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(bits(got[1]), bits(want[1]))
        assert got[2:] == want[2:]


class TestKmeansOracle:
    """_kmeans gives the reference's labels and centres bit for bit."""

    def assert_matches_reference(self, features, k):
        segmentation._round_to_quantum(features)  # as _kmeans rounds them
        assign, centers, iterations, objective, _ = segmentation._kmeans(features, k)
        ref_assign, ref_centers = reference_kmeans(features, k)
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(centers, ref_centers)
        return assign, centers, iterations, objective

    def test_fixture_scene(self, pipeline_dir):
        pan = read_raster(pipeline_dir / "pan.hdr")
        features = standardized_features(pan)
        assert features.flags.f_contiguous
        assign, _, iterations, objective = self.assert_matches_reference(features, 8)
        labels = segmentation._connected_segments(
            assign.reshape(pan.geometry.height, pan.geometry.width))
        assert int(labels.max()) + 1 == 1281
        assert iterations == 18
        assert objective == pytest.approx(14719.7455, abs=1e-4)

    def test_single_cluster(self):
        features = np.asfortranarray(np.random.default_rng(0).normal(size=(50, 3)))
        assign, _, iterations, objective = self.assert_matches_reference(features, 1)
        assert (assign == 0).all()
        assert iterations == 2
        assert objective == pytest.approx(
            np.sum((features - features.mean(axis=0)) ** 2))

    def test_empty_cluster_takes_farthest_point(self):
        # start at rows 0, 1 and 2 of three points p0, p0, p1, p1, p2: the
        # repeated centre p0 loses both copies of p0 to the first, lower
        # index, so cluster 1 is empty.  It takes the farthest row from its
        # centre, row 4: every other row lies on a centre, whatever the
        # rounding.  In the second pass row 4 leaves the cluster it joined
        # in the first, whose centre moves back; nothing moves in the third
        for seed in range(8):
            points = np.random.default_rng(seed).normal(size=(3, 2))
            features = np.asfortranarray(points[[0, 0, 1, 1, 2]])
            segmentation._round_to_quantum(features)
            start = features[[0, 0, 2]]
            assign, centers, iterations, objective, _ = segmentation._lloyd(features, start)
            ref_assign, ref_centers = reference_lloyd(features, start)
            assert np.array_equal(assign, ref_assign)
            assert np.array_equal(centers, ref_centers)
            assert np.array_equal(centers[1], features[4])
            assert assign.tolist() == [0, 0, 2, 2, 1]
            assert iterations == 3
            assert abs(objective) < 1e-12
        # three centres for two distinct points: the farthest-point start
        # repeats row 0's point as centre 2, so one cluster is always empty.
        # It takes the row whose computed distance to its own point, zero but
        # for rounding, is largest.  Where that is a copy of the other point,
        # the centre moves there and a second pass follows.  Which copy
        # rounds largest, and so whether a centre moves, follows the BLAS
        # kernel's dot product; either way the reference gives the same
        for seed in range(8):
            points = np.random.default_rng(seed).normal(size=(2, 2))
            features = np.asfortranarray(points[[0, 0, 0, 1, 1]])
            segmentation._round_to_quantum(features)
            start = segmentation._farthest_point_centers(features, 3)
            assert len(np.unique(start, axis=0)) == 2
            assert np.array_equal(start[2], features[0])
            assign, centers, iterations, objective, _ = segmentation._lloyd(features, start)
            ref_assign, ref_centers = reference_lloyd(features, start)
            assert np.array_equal(assign, ref_assign)
            assert np.array_equal(centers, ref_centers)
            assert sorted(np.bincount(assign, minlength=3)) == [0, 2, 3]
            assert abs(objective) < 1e-12
            moved = not np.array_equal(centers[2], start[2])
            if moved:
                assert np.array_equal(centers[2], features[3])
            assert iterations == (2 if moved else 1)
            self.assert_matches_reference(features, 3)

    @pytest.mark.parametrize("shape,k", [((8, 8), 8), ((5, 1), 3)],
                             ids=["8x8-k8", "5x1-k3"])
    def test_small_input_seeds_on_all_rows(self, shape, k):
        """A subsample of fewer than k rows would repeat start centres; the
        start is then taken from every row, so it has k distinct rows."""
        pan = pan_raster(np.random.default_rng(5).random(shape))
        features = standardized_features(pan)
        segmentation._round_to_quantum(features)
        assert len(features[::KMEANS_SUBSAMPLE]) < k
        start = segmentation._farthest_point_centers(features, k)
        assert len(np.unique(start, axis=0)) == k
        seeded = segmentation._lloyd(features, start)[1]
        assign, centers, iterations, _ = self.assert_matches_reference(features, k)
        assert np.array_equal(centers, seeded)
        assert iterations == 1
        assert np.unique(assign).size == k
        assert kmeans_segment(pan, morphological_profiles(pan), k=k).kmeans_iterations == 1

    # The cases below reach the paths that _lloyd's bounds add.

    def assert_lloyd_matches_reference(self, features, start):
        segmentation._round_to_quantum(features)  # as _kmeans rounds them
        assign, centers, iterations, objective, _ = segmentation._lloyd(features, start)
        ref_assign, ref_centers = reference_lloyd(features, start)
        assert np.array_equal(assign, ref_assign)
        assert np.array_equal(centers, ref_centers)
        return assign, centers, iterations, objective

    def test_cluster_empties_after_the_first_pass(self, monkeypatch):
        # the middle centre takes 3 and 5 in the first pass and moves to 4;
        # the outer centres move to 2.125 and 5.9375, 0.875 and 0.9375 from
        # those rows, so the middle cluster empties and takes the farthest
        # row, 5.  Every value is a whole multiple of the features' quantum,
        # 2**-45, so the values need no rounding.
        features = np.asfortranarray(
            np.array([2.125] * 5 + [3.0, 5.0] + [5.9375] * 5)[:, None])
        start = np.array([[0.5], [7.5], [4.0]])
        monkeypatch.setattr(segmentation, "KMEANS_MAX_ITER", 1)
        assert segmentation._lloyd(features, start)[1][2, 0] == 4.0
        monkeypatch.setattr(segmentation, "KMEANS_MAX_ITER", 2)
        assert segmentation._lloyd(features, start)[1][2, 0] == 5.0
        monkeypatch.setattr(segmentation, "KMEANS_MAX_ITER", KMEANS_MAX_ITER)
        self.assert_lloyd_matches_reference(features, start)

    def test_rows_tied_between_two_centres(self):
        # the first pass gives the row at 6 to the centre at 7 and moves the
        # centres to 2 and 10; the row is then exactly 4 from both, so the
        # second pass must look at it and give it to the lower index
        features = np.asfortranarray([[1.0], [3.0], [6.0], [14.0]])
        start = np.array([[1.0], [7.0]])
        assign, centers, _, _ = self.assert_lloyd_matches_reference(features, start)
        assert assign.tolist() == [0, 0, 0, 1]
        assert centers.tolist() == [[10.0 / 3.0], [14.0]]

    def test_rows_at_zero_distance_from_a_centre(self):
        # two copies each of three far points, whose mean is the point
        # itself, and a blob near the origin: from the second pass on the
        # copies sit at distance zero, where the computed squared distance
        # may round below zero
        rng = np.random.default_rng(3)
        points = rng.normal(size=(3, 11)) * 4
        features = np.asfortranarray(np.concatenate(
            [np.repeat(points, 2, axis=0), rng.normal(size=(20, 11)) * 0.5]))
        start = np.vstack([points + 0.3, np.zeros(11)])
        segmentation._round_to_quantum(features)
        rounded_points = features[[0, 2, 4]]
        _, centers, _, _ = self.assert_lloyd_matches_reference(features, start)
        assert np.array_equal(centers[:3], rounded_points)

    def test_far_outlier_row(self):
        # one row a million units out: its own rounding slack is large, and
        # as part of a cluster it makes every row's slack large
        rng = np.random.default_rng(2)
        blobs = np.concatenate([rng.normal(c, 0.7, size=(100, 4)) for c in (0.0, 3.0, 6.0)])
        features = np.asfortranarray(np.vstack([blobs, [[1e6, -1e6, 1e6, 5e5]]]))
        self.assert_matches_reference(features, 3)
        self.assert_lloyd_matches_reference(features, blobs[[0, 150, 299]])

    def test_rows_far_from_the_origin(self):
        # rows 1e7 out with unit spread: the expansion form rounds by about
        # 0.1 in squared distance, as much as many gaps between centres, so
        # skipping a row is exact only with the slack
        rng = np.random.default_rng(5)
        features = np.asfortranarray(rng.normal(size=(200, 3)) + 1e7)
        self.assert_lloyd_matches_reference(features, features[:4].copy())

    def test_single_cluster_over_several_blocks(self):
        features = np.asfortranarray(
            np.random.default_rng(3).normal(size=(3 * KMEANS_BLOCK + 5, 11)))
        assign, _, _, _ = self.assert_matches_reference(features, 1)
        assert (assign == 0).all()

    @pytest.fixture
    def bound_log(self, monkeypatch):
        """Wrap _reset_bounds and _unsettled_rows; yields the list of their
        calls in order: ("reset", norm2) and ("test", rows, candidates,
        rows to rebuild, whether every budget is infinite)."""
        reset, test, log = segmentation._reset_bounds, segmentation._unsettled_rows, []

        def reset_spy(features, centers, norm2, *rest):
            log.append(("reset", norm2))
            return reset(features, centers, norm2, *rest)

        def test_spy(label, budget, reach):
            rows = test(label, budget, reach)
            log.append(("test", len(label), int(np.count_nonzero(budget <= reach[label])),
                        len(rows), bool(np.isposinf(budget).all())))
            return rows

        monkeypatch.setattr(segmentation, "_reset_bounds", reset_spy)
        monkeypatch.setattr(segmentation, "_unsettled_rows", test_spy)
        return log

    def test_single_cluster_budget_is_infinite(self, pipeline_dir, bound_log):
        """With one centre there is no second distance: every budget is
        +inf, made without an inf - inf, so no row is ever a candidate."""
        features = standardized_features(read_raster(pipeline_dir / "pan.hdr"))
        assign, _, iterations, _ = self.assert_matches_reference(features, 1)
        assert not assign.any()
        assert iterations == 2
        tests = [entry for entry in bound_log if entry[0] == "test"]
        assert tests and all(entry[2] == 0 and entry[4] for entry in tests)

    def test_centres_whose_norm_grows(self, bound_log):
        # two blobs 6 out from the origin and three centres near it: the
        # largest centre norm grows from 0.25 to about 74 after the first
        # pass, so the later passes keep rows unseen through the growth term
        # (from farthest-point centres, the largest norm falls instead)
        rng = np.random.default_rng(7)
        features = np.asfortranarray(np.concatenate(
            [rng.normal(size=(200, 3)) + [6, 0, 0], rng.normal(size=(200, 3)) + [0, 6, 0]]))
        self.assert_matches_reference(features, 3)
        bound_log.clear()
        start = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        self.assert_lloyd_matches_reference(features, start)
        first = bound_log[0][1]
        norm2, kept_after_growth = first, 0
        for entry in bound_log:
            if entry[0] == "reset":
                norm2 = entry[1]
            elif norm2 > 100 * first:
                kept_after_growth += entry[1] - entry[3]
        assert kept_after_growth > 0

    def test_large_drift_spends_every_budget(self, bound_log):
        # rows in [-1, 1] and centres at -1000 and 1000: each centre moves
        # about 1000 in the first pass, more than any row's budget, so the
        # second pass tests and rebuilds every row
        features = np.asfortranarray(np.random.default_rng(8).uniform(-1, 1, size=(300, 1)))
        self.assert_matches_reference(features, 2)
        bound_log.clear()
        self.assert_lloyd_matches_reference(features, np.array([[-1000.0], [1000.0]]))
        tests = [entry for entry in bound_log if entry[0] == "test"]
        assert tests[0][1:4] == (300, 300, 300)
        assert any(entry[2] < 300 for entry in tests[1:])

    def test_fixture_objective_is_the_references(self, pipeline_dir):
        """The objective is the sum over rows of the smallest expansion-form
        squared distance at the reference's final centres, computed here, so
        that the check holds for any BLAS build.  The features are rounded
        as kmeans_segment rounds them."""
        pan = read_raster(pipeline_dir / "pan.hdr")
        features = standardized_features(pan)
        segmentation._round_to_quantum(features)
        _, centers = reference_kmeans(features, PipelineConfig().kmeans_k)
        d2 = (np.sum(features ** 2, axis=1)[:, None]
              - 2.0 * features @ centers.T
              + np.sum(centers ** 2, axis=1)[None, :])
        segmap = kmeans_segment(pan, morphological_profiles(pan),
                                k=PipelineConfig().kmeans_k)
        assert segmap.kmeans_objective == float(np.min(d2, axis=1).sum())


def far_rows(case):
    """F-ordered rows that test the exact sums far from unit scale: three
    blobs and one row a million units out, or rows 1e7 out."""
    if case == "outlier":
        rng = np.random.default_rng(2)
        blobs = np.concatenate([rng.normal(c, 0.7, size=(100, 4)) for c in (0.0, 3.0, 6.0)])
        return np.asfortranarray(np.vstack([blobs, [[1e6, -1e6, 1e6, 5e5]]]))
    return np.asfortranarray(np.random.default_rng(5).normal(size=(200, 3)) + 1e7)


class TestExactSums:
    """_round_to_quantum makes every sum of rows exact, so the centre sums
    that _lloyd moves row by row equal full sums over the current labels."""

    def assert_rounded_once_for_all(self, features):
        q = segmentation._round_to_quantum(features)
        top = np.max(np.abs(features))
        assert len(features) * top / q < 2.0 ** 53
        assert np.array_equal(np.trunc(features / q), features / q)
        again = features.copy()
        assert segmentation._round_to_quantum(again) <= q
        assert np.array_equal(again, features)
        return q

    @pytest.mark.parametrize("case", ["outlier", "far"])
    def test_rounding_is_idempotent(self, case):
        self.assert_rounded_once_for_all(far_rows(case))

    def test_rounding_that_a_nearest_multiple_would_undo(self):
        # 6 rows, q = 2**-50: the top row is 750599937895082.625 q, below
        # 2**52 q / 6.  Its nearest multiple, 750599937895083 q, would lift
        # 6 * max|x| over 2**52 q and so double q on the next call; toward
        # zero, the rounding stays put
        features = np.zeros((6, 1))
        features[0] = 750599937895082.625 * 2.0 ** -50
        assert self.assert_rounded_once_for_all(features) == 2.0 ** -50
        assert features[0, 0] == 750599937895082 * 2.0 ** -50

    def test_zero_features_stay(self):
        features = np.zeros((4, 2))
        assert segmentation._round_to_quantum(features) == 0.0
        assert not features.any()

    def test_fixture_subsample_keeps_the_full_rounding(self, pipeline_dir):
        features = standardized_features(read_raster(pipeline_dir / "pan.hdr"))
        q = self.assert_rounded_once_for_all(features)
        sample = np.asfortranarray(features[::KMEANS_SUBSAMPLE])
        rounded = sample.copy()
        assert segmentation._round_to_quantum(sample) <= q
        assert np.array_equal(sample, rounded)

    @pytest.fixture
    def moved_rows(self, monkeypatch):
        """Wrap _reset_bounds: after the first pass, which sums every row
        block by block, and after each later pass, which moves rows between
        the sums, they must equal full bincount sums over the labels, and
        the rows each centre gained must be the change in its count.
        Yields the list of rows that change centre, one count per later
        pass."""
        reset, moved = segmentation._reset_bounds, []

        def checked(features, centers, norm2, drift, total, rows, label, budget, sums):
            before = label.copy()
            gained = reset(features, centers, norm2, drift, total, rows, label, budget, sums)
            matrix = features[:]
            full = np.stack([np.bincount(label, weights=column, minlength=len(centers))
                             for column in matrix.T], axis=1)
            assert np.array_equal(sums, full)
            if rows is None:
                assert np.array_equal(gained, np.bincount(label, minlength=len(centers)))
            else:
                assert np.array_equal(gained, np.bincount(label[rows], minlength=len(centers))
                                      - np.bincount(before[rows], minlength=len(centers)))
                moved.append(int(np.count_nonzero(before != label)))
            return gained

        monkeypatch.setattr(segmentation, "_reset_bounds", checked)
        return moved

    def test_fixture_sums(self, pipeline_dir, moved_rows):
        features = feature_rows(read_raster(pipeline_dir / "pan.hdr"))
        segmentation._kmeans(features, PipelineConfig().kmeans_k)
        assert sum(moved_rows) > 0

    @pytest.mark.parametrize("case", ["outlier", "far"])
    def test_far_rows_sums(self, case, moved_rows):
        features = far_rows(case)
        segmentation._round_to_quantum(features)
        segmentation._lloyd(features, features[[0, 150, 299]] if case == "outlier"
                            else features[:4].copy())
        segmentation._kmeans(features, 3)
        assert sum(moved_rows) > 0

    def test_sums_of_a_cluster_that_empties(self, moved_rows):
        features = np.asfortranarray(
            np.array([2.125] * 5 + [3.0, 5.0] + [5.9375] * 5)[:, None])
        _, centers, _, _, _ = segmentation._lloyd(features, np.array([[0.5], [7.5], [4.0]]))
        assert centers[2, 0] == 5.0  # the emptied cluster took the farthest row
        assert moved_rows[0] == 2


def kmeans_map(pan):
    """The k-means cluster image that kmeans_segment splits into segments."""
    assign = segmentation._kmeans(feature_rows(pan), PipelineConfig().kmeans_k)[0]
    return assign.reshape(pan.geometry.height, pan.geometry.width)


def comb(joined_by):
    """Vertical teeth of cluster 1 two columns apart, the gaps between them
    joined by the first or the last row: every tooth is its own run in
    every row, and the gaps meet only at the joining row."""
    img = np.ones((40, 41), dtype=np.intp)
    img[:, ::2] = 0
    img[0 if joined_by == "first" else -1] = 0
    return img


def spiral(n):
    """Square rings of cluster 1 two pixels apart on 0, each cut just below
    its top-left corner and joined there to the next ring inward, so that
    the 1s wind inward as one path and the 0s wind between them."""
    i, j = np.indices((n, n))
    ring = np.minimum(np.minimum(i, j), np.minimum(n - 1 - i, n - 1 - j))
    img = (ring % 2 == 0).astype(np.intp)
    for r in range(0, (n - 1) // 2 - 1, 2):
        img[r + 1, r] = 0
        img[r + 2, r + 1] = 1
    return img


def connected_segments_images():
    rng = np.random.default_rng(13)
    return {
        "random k=2": rng.integers(2, size=(57, 83)),
        "random k=8": rng.integers(8, size=(57, 83)),
        "constant": np.full((9, 13), 3, dtype=np.intp),
        "one pixel": np.zeros((1, 1), dtype=np.intp),
        "1 x n": rng.integers(2, size=(1, 40)),
        "n x 1": rng.integers(2, size=(40, 1)),
        "comb joined by the last row": comb("last"),
        "comb joined by the first row": comb("first"),
        "spiral": spiral(33),
        "staircase": np.triu(np.ones((30, 30), dtype=np.intp)),
        "checkerboard": np.indices((17, 19)).sum(axis=0) % 2,
    }


class TestConnectedSegments:
    """The run-based labelling gives scipy's components and their ids in
    raster-scan order of each component's first pixel, bit for bit."""

    @pytest.mark.parametrize("name", list(connected_segments_images()))
    def test_matches_reference(self, name):
        img = connected_segments_images()[name]
        labels = segmentation._connected_segments(img)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, reference_connected_segments(img))

    def test_fixture_kmeans_map(self, pipeline_dir):
        img = kmeans_map(read_raster(pipeline_dir / "pan.hdr"))
        labels = segmentation._connected_segments(img)
        assert int(labels.max()) + 1 == 1281
        assert np.array_equal(labels, reference_connected_segments(img))

    def test_tile_2x2_kmeans_map(self, tile_2x2):
        img = kmeans_map(tile_2x2.pan)
        labels = segmentation._connected_segments(img)
        assert int(labels.max()) + 1 == 5212
        assert np.array_equal(labels, reference_connected_segments(img))


def test_row_blocks_give_the_values_of_one_product():
    """Every row gets from _nearest_two the values that one (k, rows)
    product over all rows gives it, as _sq_distances orients it, in a
    block of consecutive rows, of picked rows or alone; and from _row_norms
    the squared norms of the whole matrix."""
    rng = np.random.default_rng(6)
    features = np.asfortranarray(rng.normal(size=(2 * KMEANS_BLOCK + 3, 11)))
    n = len(features)
    centers = rng.normal(size=(8, 11))
    f2 = np.sum(features ** 2, axis=1)
    d2 = (f2 - 2.0 * (centers @ features.T)) + np.sum(centers ** 2, axis=1)[:, None]
    assert np.array_equal(segmentation._sq_distances(features, f2, centers), d2)
    d2 = d2.T
    two = np.sort(d2, axis=1)[:, :2]
    picked = np.arange(5, 3 * KMEANS_BLOCK // 2, 3)
    for block in [*row_blocks(n, KMEANS_BLOCK),
                  *(picked[part] for part in row_blocks(len(picked), KMEANS_BLOCK)),
                  *(np.array([i]) for i in range(8))]:
        x = features[block]
        assert np.array_equal(bits(segmentation._row_norms(x)), bits(f2[block]))
        nearest, best, second = segmentation._nearest_two(x, f2[block], centers)
        assert np.array_equal(nearest, np.argmin(d2[block], axis=1))
        assert np.array_equal(best, two[block, 0])
        assert np.array_equal(second, two[block, 1])


def test_lone_row_has_the_values_of_a_product_of_rows():
    """_sq_distances gives a lone row, alone or picked, the bits that a
    product of two or more rows gives it.  numpy would multiply it by gemv,
    which rounds otherwise: here every one of the nine rows would differ."""
    rng = np.random.default_rng(0)
    x = np.asfortranarray(rng.normal(size=(9, 11)))
    centers = rng.normal(size=(8, 11))
    x2 = segmentation._row_norms(x)
    d2 = segmentation._sq_distances(x, x2, centers)
    for i in range(len(x)):
        for row in (x[i:i + 1], x[[i]]):
            got = segmentation._sq_distances(row, x2[i:i + 1], centers)
            assert np.array_equal(bits(got), bits(d2[:, i:i + 1]))


def test_lloyd_holds_no_rows_by_centres_array():
    """One _lloyd call on 2**17 rows of 11 columns and 8 centres never holds
    an (n, k) float array, nor four float64 values a row: its traced peak
    stays below 40 bytes a row, for its 9 bytes of state a row (a uint8
    label and a float64 budget), or the label and float64 distance of the
    final labelling, and its blocks of rows."""
    n, k = 1 << 17, 8
    rng = np.random.default_rng(4)
    modes = rng.normal(scale=2.0, size=(k, 11))
    features = np.asfortranarray(modes[rng.integers(k, size=n)] + rng.normal(size=(n, 11)))
    start = segmentation._farthest_point_centers(features[::KMEANS_SUBSAMPLE], k)
    tracemalloc.start()
    try:
        iterations = segmentation._lloyd(features, start)[2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert iterations > 2
    assert peak < n * 40


def constant_field(geom, value):
    """An (h, w) float32 plane of ``value`` on ``geom``."""
    return np.full((geom.height, geom.width), value, dtype=np.float32)


class TestSegmentStats:
    def _segmap_for(self, labels, pixel_size=0.8):
        from aquafuse.segmentation import SegmentMap, segment_table

        labels = np.asarray(labels, dtype=np.int32)
        h, w = labels.shape
        geom = GridGeometry(w, h, pixel_size, origin_y=h * pixel_size)
        table = segment_table(labels.max() + 1)
        table.pixel_count = np.bincount(labels.ravel())
        return SegmentMap(labels, table, geom), geom

    def test_constant_probability_mean(self):
        labels = np.zeros((4, 4), dtype=np.int32)
        segmap, geom = self._segmap_for(labels)
        pan = constant_field(geom, 1.0)
        stats = segment_stats(segmap, pan, np.zeros((4, 4)),
                              constant_field(geom, 0.7),
                              constant_field(geom, 0.2),
                              constant_field(geom, 3.0), 0.5, None)
        assert stats.records[0].p_ms == pytest.approx(0.7)
        assert stats.records[0].p_lan == pytest.approx(0.2)
        assert stats.records.votes[0, CLASS_ORDER.index("water")] == 16

    def test_votes_per_class(self):
        labels = np.array([[0, 0, 1], [1, 1, 2]], dtype=np.int32)
        segmap, geom = self._segmap_for(labels)
        classes = np.array([[0, 3, 3], [1, 3, 1]], dtype=np.float32)
        f = constant_field(geom, 0.0)
        stats = segment_stats(segmap, f, np.zeros((2, 3)), f, f, classes, 0.5, None)
        expected = np.zeros((3, len(CLASS_ORDER)), dtype=np.int64)
        for segment, cls in zip(labels.ravel(), classes.ravel().astype(int)):
            expected[segment, cls] += 1
        assert np.array_equal(stats.records.votes, expected)

    def test_ribbon_hydraulic_diameter(self):
        labels = np.ones((7, 104), dtype=np.int32)
        labels[2:5, 2:102] = 0
        segmap, geom = self._segmap_for(labels, pixel_size=0.8)
        pan = constant_field(geom, 1.0)
        f = constant_field(geom, 0.0)
        stats = segment_stats(segmap, pan, np.zeros((7, 104)), f, f,
                              constant_field(geom, 0.0), 0.5, None)
        rec = stats.records[0]
        assert rec.pixel_count == 300
        assert segmentation._perimeter_edges(labels, 2)[0] == 206
        assert rec.w == pytest.approx(4 * (300 * 0.64) / (206 * 0.8))

    def test_square_hydraulic_diameter(self):
        labels = np.ones((44, 44), dtype=np.int32)
        labels[2:42, 2:42] = 0
        segmap, geom = self._segmap_for(labels, pixel_size=0.8)
        pan = constant_field(geom, 1.0)
        f = constant_field(geom, 0.0)
        stats = segment_stats(segmap, pan, np.zeros((44, 44)), f, f,
                              constant_field(geom, 0.0), 0.5, None)
        rec = stats.records[0]
        assert rec.pixel_count == 1600
        assert segmentation._perimeter_edges(labels, 2)[0] == 160
        assert rec.w == pytest.approx(32.0)

    def test_mp_std(self):
        labels = np.zeros((2, 2), dtype=np.int32)
        segmap, geom = self._segmap_for(labels)
        pan = constant_field(geom, 1.0)
        mp_data = np.zeros((10, 2, 2), dtype=np.float32)
        mp_data[:, 0, 0] = np.arange(10)  # std 2.8722813
        f = constant_field(geom, 0.0)
        stats = segment_stats(segmap, pan, band_std(mp_data), f, f,
                              constant_field(geom, 0.0), 0.5, None)
        expected = np.arange(10).std() / 4.0
        assert stats.records[0].mp_std == pytest.approx(expected)

    @pytest.mark.parametrize("case", ["random", "constant_band", "large_offset", "one_band"])
    def test_band_std_is_numpy_std_bit_for_bit(self, case):
        """mp_std's deviation, taken one float32 band at a time into float64
        blocks of pixels, equals ``np.std(axis=0, dtype=np.float64)`` bit for
        bit."""
        rng = np.random.default_rng(["random", "constant_band", "large_offset",
                                     "one_band"].index(case))
        stack = rng.normal(0.0, 1.0, (1 if case == "one_band" else 10, 31, 47))
        if case == "constant_band":
            stack[3] = 0.375
        if case == "large_offset":
            stack = stack * 1e-3 + 1e5
        stack = stack.astype(np.float32)
        assert np.array_equal(band_std(stack),
                              np.std(stack, axis=0, dtype=np.float64))

    def test_band_std_by_blocks_is_numpy_std_bit_for_bit(self, monkeypatch):
        """In blocks of up to 100 pixels, the 1457 pixels take 15 blocks of
        97 or 98, and the deviation is still numpy's bit for bit."""
        monkeypatch.setattr(segmentation, "STD_BLOCK", 100)
        stack = np.random.default_rng(4).normal(0.0, 1.0, (10, 31, 47)).astype(np.float32)
        assert np.array_equal(band_std(stack), np.std(stack, axis=0, dtype=np.float64))


def test_fixture_w_bit_for_bit(pipeline_dir):
    """The fixture's ``w`` column, 4 area / perimeter, has the bits it had
    when the table also stored the area (m2) and the perimeter (pixel
    edges) and ``w`` was taken from those two columns."""
    w = np.load(pipeline_dir / "segment_table.npy")["w"]
    assert len(w) == 1281
    assert w[:3].tolist() == [35.17675213675214, 1.5384615384615383, 7.741935483870967]
    assert hashlib.sha256(w.tobytes()).hexdigest() == (
        "792c5e91042c0d993c989763bb2ea859e08325eabb8d39f7e74d852e9ecf3a3d")


def segment_labels(segments, classes, mp_std=0.0, t_tree=None):
    """The labels that segment_stats gives the segments of a one-row image:
    pixel i lies in segment ``segments[i]`` and has the MS class
    ``classes[i]`` (a CLASS_ORDER name) and the profile deviation
    ``mp_std[i]`` (or ``mp_std`` for all)."""
    labels = np.array([segments], dtype=np.int32)
    table = segment_table(labels.max() + 1)
    table.pixel_count = np.bincount(labels.ravel())
    segmap = SegmentMap(labels, table, GridGeometry(labels.shape[1], 1, 1.0))
    codes = np.array([[CLASS_ORDER.index(c) for c in classes]], dtype=np.float32)
    f = np.zeros(labels.shape, dtype=np.float32)
    deviation = np.broadcast_to(np.asarray(mp_std, dtype=np.float64), labels.shape)
    return segment_stats(segmap, f, deviation, f, f, codes, 0.5, t_tree).records.label.tolist()


class TestMajorityVote:
    def test_plain_majority(self):
        classes = ["vegetation"] * 2 + ["water"] * 5 + ["soil"]
        assert segment_labels([0] * 8, classes) == ["water"]

    @pytest.mark.parametrize("classes,label", [
        (["soil"] * 3 + ["vegetation"] * 3 + ["water"], "grass"),
        (["water"] * 2 + ["impervious"] * 2, "impervious"),
        (["water", "soil"], "soil"),
    ], ids=["vegetation-over-soil", "impervious-over-water", "soil-over-water"])
    def test_tie_breaks_by_class_order(self, classes, label):
        """A tie goes to the class first in CLASS_ORDER (vegetation < soil <
        impervious < water); a vegetation segment is then grass or tree."""
        assert segment_labels([0] * len(classes), classes) == [label]


class TestTreeGrassSplit:
    def test_explicit_threshold_is_strict(self):
        assert segment_labels([0, 1, 2], ["vegetation"] * 3, [0.1, 0.5, 0.9],
                              t_tree=0.5) == ["grass", "grass", "tree"]

    def test_non_vegetation_untouched(self):
        assert segment_labels([0, 1], ["water", "soil"]) == ["water", "soil"]

    def test_derived_threshold_separates_modes(self):
        out = segment_labels(range(6), ["vegetation"] * 6, [0.01, 0.02, 0.015, 0.8, 0.9, 0.85])
        assert out == ["grass", "grass", "grass", "tree", "tree", "tree"]

    def test_derived_threshold_from_vegetation_alone(self):
        """Otsu sees only the vegetation segments' deviations: a water
        segment's large one does not move the threshold."""
        out = segment_labels(range(4), ["vegetation"] * 3 + ["water"], [0.1, 0.2, 0.9, 50.0])
        assert out == ["grass", "grass", "tree", "water"]

    def test_constant_deviation_means_all_grass(self):
        assert segment_labels(range(4), ["vegetation"] * 4, 0.3) == ["grass"] * 4


class TestPanWaterProbability:
    def _simple(self, values, t):
        pan = pan_raster(values)
        labels = np.zeros_like(pan.data[0], dtype=np.int32)
        segmap = SegmentMap(labels, segment_table(1), pan.geometry)
        segmap.records.pixel_count = labels.size
        f = constant_field(pan.geometry, 0.0)
        return segment_stats(segmap, pan.data[0], np.zeros(labels.shape), f, f, f,
                             t, None).records[0].p_pan

    def test_all_below(self):
        assert self._simple(np.zeros((10, 10)), 1.0) == 1.0

    def test_none_below(self):
        assert self._simple(np.ones((10, 10)), 1.0) == 0.0

    def test_partial_count(self):
        values = np.zeros((10, 10))
        values[:, :2] = 5.0  # 20 of 100 at/above threshold
        assert self._simple(values, 1.0) == pytest.approx(0.8)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        values = rng.random((10, 10))
        probs = [self._simple(values, t) for t in np.linspace(0, 1, 11)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))


def test_paint_segments():
    from aquafuse.segmentation import SegmentMap, segment_table

    geom = GridGeometry(2, 2, 1.0)
    labels = np.array([[0, 0], [1, 1]], dtype=np.int32)
    segmap = SegmentMap(labels, segment_table(2), geom)
    out = paint_segments(segmap, [0.25, 0.75], "value")
    assert np.array_equal(out.data[0], [[0.25, 0.25], [0.75, 0.75]])


class TestSegmentTableFile:
    def _segmap(self):
        labels = np.array([[0, 0, 1], [2, 2, 1]], dtype=np.int32)
        table = segment_table(3)
        rng = np.random.default_rng(0)
        for name in ("w", "p_pan", "p_ms", "p_lan", "mp_std"):
            table[name] = rng.random(3)
        table.pixel_count = [2, 2, 2]
        table.votes = rng.integers(0, 9, (3, len(CLASS_ORDER)))
        table.label = ["impervious", "tree", "grass"]
        return SegmentMap(labels, table, GridGeometry(3, 2, 0.8))

    @staticmethod
    def _raster(segmap, ids):
        return RasterGrid(segmap.geometry, np.asarray(ids, np.float32)[np.newaxis], ["segment"])

    def test_round_trip(self, tmp_path):
        segmap = self._segmap()
        write_table(segmap.records, tmp_path / "t.npy")
        loaded = load_segment_stats(tmp_path / "t.npy", self._raster(segmap, segmap.labels))
        assert loaded.count == 3
        assert np.array_equal(loaded.labels, segmap.labels)
        for name in segmap.records.dtype.names:
            assert np.array_equal(loaded.records[name], segmap.records[name]), name

    def test_row_holds_no_column_that_another_gives(self):
        """No area or perimeter is stored: w holds the size, and the pixel
        count the area.  A row is 120 bytes."""
        assert segmentation.SEGMENT_DTYPE.names == (
            "pixel_count", "w", "p_pan", "p_ms", "p_lan", "mp_std", "votes", "label")
        assert segmentation.SEGMENT_DTYPE.itemsize == 120

    @pytest.mark.parametrize("column,value,message", [
        ("p_pan", -0.1, "p_pan must be in [0, 1]"),
        ("p_ms", 5.0, "p_ms must be in [0, 1]"),
        ("p_ms", np.nan, "p_ms must be in [0, 1]"),
        ("p_lan", 1.5, "p_lan must be in [0, 1]"),
        ("w", 0.0, "w must be finite and > 0"),
        ("w", -1.0, "w must be finite and > 0"),
        ("w", np.inf, "w must be finite and > 0"),
        ("w", np.nan, "w must be finite and > 0"),
        ("mp_std", -1e-9, "mp_std must be finite and >= 0"),
        ("mp_std", np.inf, "mp_std must be finite and >= 0"),
        ("label", "vegetation", "label must be one of grass, tree, soil, impervious, water"),
        ("label", "", "label must be one of grass, tree, soil, impervious, water"),
    ])
    def test_damaged_column_rejected(self, tmp_path, column, value, message):
        segmap = self._segmap()
        segmap.records[column][1] = value
        write_table(segmap.records, tmp_path / "t.npy")
        with pytest.raises(RasterError, match=re.escape(f"{tmp_path / 't.npy'}: {message}")):
            load_segment_stats(tmp_path / "t.npy", self._raster(segmap, segmap.labels))

    def test_bounds_are_accepted(self, tmp_path):
        segmap = self._segmap()
        for column, value in (("p_pan", 0.0), ("p_ms", 1.0), ("mp_std", 0.0), ("w", 1e-300)):
            segmap.records[column][0] = value
        write_table(segmap.records, tmp_path / "t.npy")
        load_segment_stats(tmp_path / "t.npy", self._raster(segmap, segmap.labels))

    def test_other_length_rejected(self, tmp_path):
        segmap = self._segmap()
        write_table(segmap.records, tmp_path / "t.npy")
        with pytest.raises(RasterError):
            load_segment_stats(tmp_path / "t.npy", self._raster(segmap, np.zeros((2, 3))))

    @pytest.mark.parametrize("ids,message", [
        ([[0, 0, 1], [2, 2, -1]], "whole numbers in 0..2"),
        ([[0, 0, 1], [2, 2, 3]], "whole numbers in 0..2"),
        ([[0, 0, 1], [2, 2, 1.5]], "whole numbers in 0..2"),
        ([[0, 0, 1], [2, 1, 1]], "pixel_count"),   # 1 and 3 pixels, not 2 and 2
        ([[0, 0, 0], [2, 2, 0]], "pixel_count"),   # id 1 has no pixels
    ], ids=["negative", "past-the-table", "fractional", "miscounted", "empty-id"])
    def test_damaged_segments_raster_rejected(self, tmp_path, ids, message):
        segmap = self._segmap()
        write_table(segmap.records, tmp_path / "t.npy")
        with pytest.raises(RasterError, match=message):
            load_segment_stats(tmp_path / "t.npy", self._raster(segmap, ids))
