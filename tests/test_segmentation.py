import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from aquafuse import segmentation
from aquafuse.config import PipelineConfig
from aquafuse.raster import GridGeometry, RasterError, RasterGrid, read_raster
from aquafuse.segmentation import (
    KMEANS_BLOCK,
    KMEANS_MAX_ITER,
    KMEANS_SUBSAMPLE,
    KMEANS_TOL,
    SE_FAMILY,
    SegmentationError,
    SegmentMap,
    kmeans_segment,
    load_segment_stats,
    morphological_profiles,
    paint_segments,
    save_segment_stats,
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

    def test_multiband_rejected(self):
        geom = GridGeometry(4, 4, 1.0)
        raster = RasterGrid(geom, np.zeros((2, 4, 4), dtype=np.float32))
        with pytest.raises(SegmentationError):
            morphological_profiles(raster)


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

    def test_partition_completeness(self):
        rng = np.random.default_rng(3)
        pan = pan_raster(rng.random((10, 14)))
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=5)
        counts = np.bincount(segmap.labels.ravel(), minlength=segmap.count)
        assert counts.sum() == 10 * 14
        assert np.array_equal(segmap.records.pixel_count, counts)

    def test_fixture_peak_allocation(self, pipeline_dir):
        """The features are filled and standardized in place in one (n, 11)
        float64 array: the traced peak on the fixture stays below 1.8 times
        that array."""
        pan = read_raster(pipeline_dir / "pan.hdr")
        mps = morphological_profiles(pan)
        tracemalloc.start()
        try:
            kmeans_segment(pan, mps, PipelineConfig().kmeans_k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * pan.data.size * 11 * 8

    def test_ids_in_raster_scan_order(self):
        rng = np.random.default_rng(4)
        pan = pan_raster(rng.random((10, 10)))
        mps = morphological_profiles(pan)
        segmap = kmeans_segment(pan, mps, k=4)
        firsts = [np.flatnonzero(segmap.labels.ravel() == s)[0]
                  for s in range(segmap.count)]
        assert firsts == sorted(firsts)


def standardized_features(pan):
    """The (pixels, 11) F-ordered feature matrix that kmeans_segment clusters."""
    mps = morphological_profiles(pan)
    h, w = pan.geometry.height, pan.geometry.width
    features = np.concatenate([pan.data, mps.data]).reshape(-1, h * w).T.astype(np.float64)
    return segmentation._standardize(features)


def test_standardize_gives_the_whole_array_formula():
    """Standardizing one contiguous column at a time gives the bits of the
    column means and deviations taken over the whole F-ordered array; a
    constant column is only centred."""
    rng = np.random.default_rng(8)
    features = np.asfortranarray(rng.normal(3.0, 2.0, size=(50021, 11)))
    features[:, 4] = 1.5
    std = features.std(axis=0)
    want = (features - features.mean(axis=0)) / np.where(std == 0, 1.0, std)
    got = segmentation._standardize(features)
    assert np.array_equal(got, want)
    assert np.array_equal(got[:, 4], np.zeros(len(got)))


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
        # three centres for two distinct points: the farthest-point start
        # repeats row 0's point as centre 2, so one cluster is always empty.
        # It takes the row whose computed distance to its own point, zero but
        # for rounding, is largest.  Where that is a copy of the other point,
        # the centre moves there and a second pass follows.  Which copy
        # rounds largest follows the BLAS's dot product, so eight pairs of
        # points are tried, and at least one must move
        moved = []
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
            moved.append(not np.array_equal(centers[2], start[2]))
            if moved[-1]:
                assert np.array_equal(centers[2], features[3])
            assert iterations == (2 if moved[-1] else 1)
            self.assert_matches_reference(features, 3)
        assert any(moved)

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
        """Wrap _reset_bounds: after each pass that moves the sums, they
        must equal full bincount sums over the labels.  Yields the list of
        rows that change centre, one count per such pass."""
        reset, moved = segmentation._reset_bounds, []

        def checked(features, f2, centers, norm2, rows, assign, upper, lower, sums):
            before = assign.copy()
            reset(features, f2, centers, norm2, rows, assign, upper, lower, sums)
            if sums is not None:
                full = np.stack([np.bincount(assign, weights=features[:, j],
                                             minlength=len(centers))
                                 for j in range(features.shape[1])], axis=1)
                assert np.array_equal(sums, full)
                moved.append(int(np.count_nonzero(before != assign)))

        monkeypatch.setattr(segmentation, "_reset_bounds", checked)
        return moved

    def test_fixture_sums(self, pipeline_dir, moved_rows):
        features = standardized_features(read_raster(pipeline_dir / "pan.hdr"))
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


def test_row_blocks_give_the_values_of_one_product():
    """Every row gets from _nearest_two the values that one product over all
    rows gives it, in a block of consecutive rows, of picked rows or alone."""
    rng = np.random.default_rng(6)
    features = np.asfortranarray(rng.normal(size=(2 * KMEANS_BLOCK + 3, 11)))
    centers = rng.normal(size=(8, 11))
    f2 = np.sum(features ** 2, axis=1)
    d2 = segmentation._sq_distances(features, f2, centers)
    two = np.sort(d2, axis=1)[:, :2]
    for rows in [None, np.arange(5, 3 * KMEANS_BLOCK // 2, 3)] + [np.array([i]) for i in range(8)]:
        for block, nearest, best, second in segmentation._nearest_two(
                features, f2, centers, rows):
            assert np.array_equal(nearest, np.argmin(d2[block], axis=1))
            assert np.array_equal(best, two[block, 0])
            assert np.array_equal(second, two[block, 1])


def test_lloyd_holds_no_rows_by_centres_array():
    """One _lloyd call on 2**17 rows of 11 columns and 8 centres never holds
    an (n, k) float array: its traced peak stays below n * k * 8 bytes."""
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
    assert peak < n * k * 8


def constant_field(geom, value, name):
    return RasterGrid(geom, np.full((1, geom.height, geom.width), value,
                                    dtype=np.float32), [name])


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
        pan = constant_field(geom, 1.0, "pan")
        mps = RasterGrid(geom, np.zeros((10, 4, 4), dtype=np.float32))
        stats = segment_stats(segmap, pan, mps,
                              constant_field(geom, 0.7, "p"),
                              constant_field(geom, 0.2, "p"),
                              constant_field(geom, 3.0, "class_index"), 0.5)
        assert stats.records[0].p_ms == pytest.approx(0.7)
        assert stats.records[0].p_lan == pytest.approx(0.2)
        assert stats.records.votes[0, CLASS_ORDER.index("water")] == 16

    def test_votes_per_class(self):
        labels = np.array([[0, 0, 1], [1, 1, 2]], dtype=np.int32)
        segmap, geom = self._segmap_for(labels)
        classes = np.array([[0, 3, 3], [1, 3, 1]], dtype=np.float32)
        f = constant_field(geom, 0.0, "p")
        stats = segment_stats(segmap, f, RasterGrid(geom, np.zeros((10, 2, 3), np.float32)),
                              f, f, RasterGrid(geom, classes[np.newaxis]), 0.5)
        expected = np.zeros((3, len(CLASS_ORDER)), dtype=np.int64)
        for segment, cls in zip(labels.ravel(), classes.ravel().astype(int)):
            expected[segment, cls] += 1
        assert np.array_equal(stats.records.votes, expected)

    @pytest.mark.parametrize("bad", [-1.0, float(len(CLASS_ORDER))])
    def test_class_index_out_of_range_rejected(self, bad):
        labels = np.zeros((2, 2), dtype=np.int32)
        segmap, geom = self._segmap_for(labels)
        f = constant_field(geom, 0.0, "p")
        with pytest.raises(SegmentationError):
            segment_stats(segmap, f, RasterGrid(geom, np.zeros((10, 2, 2), np.float32)),
                          f, f, constant_field(geom, bad, "class_index"), 0.5)

    def test_ribbon_hydraulic_diameter(self):
        labels = np.ones((7, 104), dtype=np.int32)
        labels[2:5, 2:102] = 0
        segmap, geom = self._segmap_for(labels, pixel_size=0.8)
        pan = constant_field(geom, 1.0, "pan")
        mps = RasterGrid(geom, np.zeros((10, 7, 104), dtype=np.float32))
        f = constant_field(geom, 0.0, "p")
        stats = segment_stats(segmap, pan, mps, f, f,
                              constant_field(geom, 0.0, "class_index"), 0.5)
        rec = stats.records[0]
        assert rec.pixel_count == 300
        assert rec.perimeter_px == 206
        assert rec.w == pytest.approx(4 * (300 * 0.64) / (206 * 0.8))

    def test_square_hydraulic_diameter(self):
        labels = np.ones((44, 44), dtype=np.int32)
        labels[2:42, 2:42] = 0
        segmap, geom = self._segmap_for(labels, pixel_size=0.8)
        pan = constant_field(geom, 1.0, "pan")
        mps = RasterGrid(geom, np.zeros((10, 44, 44), dtype=np.float32))
        f = constant_field(geom, 0.0, "p")
        stats = segment_stats(segmap, pan, mps, f, f,
                              constant_field(geom, 0.0, "class_index"), 0.5)
        rec = stats.records[0]
        assert rec.pixel_count == 1600
        assert rec.perimeter_px == 160
        assert rec.w == pytest.approx(32.0)

    def test_mp_std(self):
        labels = np.zeros((2, 2), dtype=np.int32)
        segmap, geom = self._segmap_for(labels)
        pan = constant_field(geom, 1.0, "pan")
        mp_data = np.zeros((10, 2, 2), dtype=np.float32)
        mp_data[:, 0, 0] = np.arange(10)  # std 2.8722813
        mps = RasterGrid(geom, mp_data)
        f = constant_field(geom, 0.0, "p")
        stats = segment_stats(segmap, pan, mps, f, f,
                              constant_field(geom, 0.0, "class_index"), 0.5)
        expected = np.arange(10).std() / 4.0
        assert stats.records[0].mp_std == pytest.approx(expected)


class TestPanWaterProbability:
    def _simple(self, values, t):
        pan = pan_raster(values)
        labels = np.zeros_like(pan.data[0], dtype=np.int32)
        segmap = SegmentMap(labels, segment_table(1), pan.geometry)
        segmap.records.pixel_count = labels.size
        f = constant_field(pan.geometry, 0.0, "p")
        mps = RasterGrid(pan.geometry, np.zeros((10,) + labels.shape, np.float32))
        return segment_stats(segmap, pan, mps, f, f, f, t).records[0].p_pan

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
        for name in ("area_m2", "w", "p_pan", "p_ms", "p_lan", "p_shadow", "mp_std", "p_w"):
            table[name] = rng.random(3)
        table.pixel_count = [2, 2, 2]
        table.perimeter_px = [6, 6, 6]
        table.votes = rng.integers(0, 9, (3, len(CLASS_ORDER)))
        table.label = ["impervious", "", "vegetation"]
        table.water = [True, False, True]
        return SegmentMap(labels, table, GridGeometry(3, 2, 0.8))

    @staticmethod
    def _raster(segmap, ids):
        return RasterGrid(segmap.geometry, np.asarray(ids, np.float32)[np.newaxis], ["segment"])

    def test_round_trip(self, tmp_path):
        segmap = self._segmap()
        save_segment_stats(segmap, tmp_path / "t.npy")
        loaded = load_segment_stats(tmp_path / "t.npy", self._raster(segmap, segmap.labels))
        assert loaded.count == 3
        assert np.array_equal(loaded.labels, segmap.labels)
        for name in segmap.records.dtype.names:
            assert np.array_equal(loaded.records[name], segmap.records[name]), name

    def test_other_length_rejected(self, tmp_path):
        segmap = self._segmap()
        save_segment_stats(segmap, tmp_path / "t.npy")
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
        save_segment_stats(segmap, tmp_path / "t.npy")
        with pytest.raises(RasterError, match=message):
            load_segment_stats(tmp_path / "t.npy", self._raster(segmap, ids))
