import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from aquafuse import cli, spectral
from aquafuse.raster import (GridGeometry, RasterError, RasterGrid, read_raster, read_table,
                             resample_nearest)
from aquafuse.spectral import (
    CLASS_ORDER,
    CLASSIFY_BLOCK,
    ClassifierModel,
    ComputeError,
    classify_probabilities,
    fit_classifier,
    landsat_water_index,
    otsu_threshold,
    pca_components,
    pca_fuse,
)


def raster_from_spectra(spectra, width, height, names=None, pixel_size=1.0):
    spectra = np.asarray(spectra, dtype=np.float32)
    bands = spectra.shape[1]
    data = spectra.T.reshape(bands, height, width)
    geom = GridGeometry(width, height, pixel_size, origin_y=height * pixel_size)
    return RasterGrid(geom, data, names or [f"b{i}" for i in range(bands)])


def four_classes(centres, rng, n, scale=1.0):
    """n normal samples around each centre, labelled in CLASS_ORDER."""
    centres = np.asarray(centres, dtype=np.float64)
    spectra = np.vstack([c + rng.normal(scale=scale, size=(n, centres.shape[1]))
                         for c in centres])
    return spectra, np.repeat(CLASS_ORDER, n)


def reference_classify(model, raster):
    """classify_probabilities as first written: one LU solve per class over
    every pixel at once, in (C, n) float64 arrays.  Returns the float32
    posteriors, (C, n), and the class indices, (n,)."""
    spectra = raster.data.reshape(raster.bands, -1).T.astype(np.float64)
    d = spectra.shape[1]
    logpost = np.empty((len(CLASS_ORDER), len(spectra)))
    for i in range(len(CLASS_ORDER)):
        chol = np.linalg.cholesky(model.covs[i])
        z = np.linalg.solve(chol, (spectra - model.means[i]).T)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        logpost[i] = -0.5 * (np.sum(z * z, axis=0) + logdet + d * np.log(2.0 * np.pi))
    logpost -= logsumexp(logpost, axis=0, keepdims=True)
    probs = np.exp(logpost)
    return probs.astype(np.float32), np.argmax(probs, axis=0)


def assert_classifies_as_reference(model, raster):
    probs, class_map = classify_probabilities(model, raster)
    ref_probs, ref_classes = reference_classify(model, raster)
    assert probs.data.dtype == class_map.data.dtype == np.float32
    assert np.array_equal(probs.data.reshape(len(CLASS_ORDER), -1), ref_probs)
    assert np.array_equal(class_map.data.ravel(), ref_classes)


def reference_pca_fuse(ms, pan):
    """pca_fuse as first written: a PCA fit to the upsampled spectra, then a
    forward transform and an inverse one, each converting and centring its
    own float64 copy of the pixels.  Returns the float32 (d, h, w) array."""
    up = resample_nearest(ms.data, ms.geometry, pan.geometry)
    spectra = up.reshape(ms.bands, -1).T.astype(np.float64, order="C")
    mean = spectra.mean(axis=0)
    centered = spectra - mean
    cov = centered.T @ centered / (spectra.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    components = evecs[:, np.argsort(evals)[::-1]].T
    for comp in components:
        pivot = np.argmax(np.abs(comp))
        if comp[pivot] < 0:
            comp *= -1.0
    scores = (np.asarray(up.reshape(ms.bands, -1).T, dtype=np.float64) - mean) \
        @ components.T
    pc1 = scores[:, 0]
    pan_values = pan.data[0].ravel().astype(np.float64)
    scores[:, 0] = ((pan_values - pan_values.mean()) * (pc1.std() / pan_values.std())
                    + pc1.mean())
    fused = np.asarray(scores, dtype=np.float64) @ components + mean
    h, w = pan.geometry.height, pan.geometry.width
    return fused.T.reshape(ms.bands, h, w).astype(np.float32)


def pca_of(spectra):
    """``(centred, components, variances)`` of (n, d) spectra: the variances
    are those of the scores on each component."""
    centred = np.asarray(spectra, dtype=np.float64) - np.mean(spectra, axis=0)
    components = pca_components(centred)
    return centred, components, (centred @ components.T).var(axis=0, ddof=1)


class TestPcaFit:
    def test_single_axis_variance(self):
        rng = np.random.default_rng(0)
        spectra = np.zeros((64, 2))
        spectra[:, 0] = rng.normal(size=64)
        _, components, variances = pca_of(spectra)
        assert abs(abs(components[0, 0]) - 1.0) < 1e-9
        assert abs(components[0, 1]) < 1e-9
        assert variances[1] == pytest.approx(0.0, abs=1e-12)

    def test_forward_inverse_identity(self):
        rng = np.random.default_rng(1)
        spectra = rng.normal(size=(100, 4))
        centred, components, _ = pca_of(spectra)
        back = (centred @ components.T) @ components + spectra.mean(axis=0)
        assert np.allclose(back, spectra, rtol=1e-4, atol=1e-8)

    def test_orthonormal_components(self):
        rng = np.random.default_rng(2)
        spectra = rng.normal(size=(50, 3)) @ np.diag([3.0, 1.0, 0.2])
        _, components, variances = pca_of(spectra)
        gram = components @ components.T
        assert np.allclose(gram, np.eye(3), atol=1e-6)
        assert (np.diff(variances) <= 1e-12).all()

    def test_largest_coefficient_positive(self):
        rng = np.random.default_rng(3)
        spectra = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 4))
        _, components, _ = pca_of(spectra)
        _, flipped, _ = pca_of(-spectra)
        rows = np.arange(4)
        assert (components[rows, np.argmax(np.abs(components), axis=1)] > 0).all()
        assert np.allclose(flipped, components)

    def test_known_covariance_eigenvalues(self):
        # independent oracle: eigendecomposition of the sample covariance
        rng = np.random.default_rng(42)
        spectra = rng.normal(size=(10_000, 3)) * np.sqrt([4.0, 1.0, 0.25])
        _, _, variances = pca_of(spectra)
        sample_cov = np.cov(spectra.T, ddof=1)
        expected = np.sort(np.linalg.eigvalsh(sample_cov))[::-1]
        assert np.allclose(variances, expected, rtol=1e-9)
        assert np.allclose(variances, [4.0, 1.0, 0.25], rtol=0.05)


class TestPcaFuse:
    def _ms_pan(self, seed=0, h=8, w=8, bands=4):
        rng = np.random.default_rng(seed)
        ms_geom = GridGeometry(w, h, 2.0, origin_y=2.0 * h)
        ms = RasterGrid(ms_geom, rng.normal(size=(bands, h, w)).astype(np.float32),
                        ["blue", "green", "red", "nir"][:bands])
        pan_geom = GridGeometry(2 * w, 2 * h, 1.0, origin_y=2.0 * h)
        return ms, pan_geom

    def test_substitution_identity(self):
        ms, pan_geom = self._ms_pan(seed=3)
        up = resample_nearest(ms.data, ms.geometry, pan_geom)
        centred, components, _ = pca_of(up.reshape(4, -1).T)
        pc1 = centred @ components[0]
        pan = RasterGrid(pan_geom,
                         pc1.reshape(pan_geom.height, pan_geom.width)
                         .astype(np.float32)[np.newaxis], ["pan"])
        fused = pca_fuse(ms, pan)
        assert np.allclose(fused.data, up, atol=2e-3)

    def test_constant_ms_rejected_varying_pan_shape(self):
        ms, pan_geom = self._ms_pan(seed=4)
        rng = np.random.default_rng(7)
        pan = RasterGrid(pan_geom,
                         rng.normal(size=(1, pan_geom.height, pan_geom.width))
                         .astype(np.float32), ["pan"])
        fused = pca_fuse(ms, pan)
        assert fused.bands == 4
        assert fused.geometry == pan_geom
        assert fused.band_names == ms.band_names

    def test_rank_one_perturbation_along_pc1(self):
        # varying PAN over constant-offset MS only moves pixels along PC1
        ms, pan_geom = self._ms_pan(seed=5)
        up = resample_nearest(ms.data, ms.geometry, pan_geom)
        _, components, _ = pca_of(up.reshape(4, -1).T)
        rng = np.random.default_rng(11)
        pan = RasterGrid(pan_geom,
                         rng.normal(size=(1, pan_geom.height, pan_geom.width))
                         .astype(np.float32), ["pan"])
        fused = pca_fuse(ms, pan)
        delta = (fused.data - up).reshape(4, -1).T.astype(np.float64)
        residual = delta - np.outer(delta @ components[0], components[0])
        assert np.abs(residual).max() < 1e-3

    def test_zero_variance_pan(self):
        ms, pan_geom = self._ms_pan(seed=6)
        pan = RasterGrid(pan_geom,
                         np.ones((1, pan_geom.height, pan_geom.width), dtype=np.float32),
                         ["pan"])
        with pytest.raises(ComputeError, match="variance"):
            pca_fuse(ms, pan)

    def test_fewer_pixels_than_bands(self):
        ms, _ = self._ms_pan(seed=9, h=1, w=1)
        pan = RasterGrid(GridGeometry(1, 2, 1.0, origin_y=2.0),
                         np.array([[[0.0], [1.0]]], dtype=np.float32), ["pan"])
        with pytest.raises(RasterError, match="at least 4 pixels, got 2"):
            pca_fuse(ms, pan)

    @pytest.mark.parametrize("bands", [2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_rasters_match_reference(self, bands, seed):
        ms, pan_geom = self._ms_pan(seed=seed, h=11, w=13, bands=bands)
        pan = RasterGrid(pan_geom, np.random.default_rng(seed + 10).random(
            (1, pan_geom.height, pan_geom.width)).astype(np.float32), ["pan"])
        assert np.array_equal(pca_fuse(ms, pan).data, reference_pca_fuse(ms, pan))

    @pytest.mark.parametrize("block", [4, 7, 571])
    def test_row_blocks_match_reference(self, monkeypatch, block):
        """Transforms in blocks of rows give the bits of one product over all
        572 rows; with blocks of up to 571 rows the rows split 286 + 286, not
        571 + 1."""
        monkeypatch.setattr(spectral, "PCA_BLOCK", block)
        ms, pan_geom = self._ms_pan(seed=12, h=11, w=13)
        pan = RasterGrid(pan_geom, np.random.default_rng(13).random(
            (1, pan_geom.height, pan_geom.width)).astype(np.float32), ["pan"])
        assert np.array_equal(pca_fuse(ms, pan).data, reference_pca_fuse(ms, pan))

    def test_fixture_matches_reference(self, pipeline_dir):
        ms, pan = (read_raster(pipeline_dir / f"{stem}.hdr") for stem in ("ms", "pan"))
        assert np.array_equal(pca_fuse(ms, pan).data, reference_pca_fuse(ms, pan))

    def test_tile_2x2_matches_reference(self, tile_2x2):
        ms, pan = tile_2x2.ms, tile_2x2.pan
        assert np.array_equal(pca_fuse(ms, pan).data, reference_pca_fuse(ms, pan))

    def test_fixture_peak_allocation(self, pipeline_dir):
        """The spectra are copied to float64 once and the fused spectra
        overwrite that copy, which is freed once the float32 output is made;
        the first component is freed before the float64 PAN band is made.
        So the float64 spectra and the output, or the float64 spectra and
        the resampled float32 input, take 3 times the output at the peak,
        and the blocks of scores little more: the traced peak on the
        fixture, about 3.2 times the output, stays below 3.5 times it.
        The code that held the first component beside the PAN band, and the
        spectra beside the output's finiteness check, with blocks of 2**16
        rows, peaked at 4.5 times."""
        ms, pan = (read_raster(pipeline_dir / f"{stem}.hdr") for stem in ("ms", "pan"))
        tracemalloc.start()
        try:
            fused = pca_fuse(ms, pan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * fused.data.nbytes


class TestClassifier:
    def test_fitted_means_near_truth(self):
        rng = np.random.default_rng(0)
        n = 400
        centres = [[0.0, 0.0], [10.0, 10.0], [20.0, 0.0], [0.0, 20.0]]
        spectra, labels = four_classes(centres, rng, n)
        model = fit_classifier(spectra, labels)
        tol = 3.0 / np.sqrt(n)
        assert np.abs(model.means - centres).max() < tol

    def test_duplicate_samples_covariance_floor(self):
        spectra = np.repeat(np.arange(4.0)[:, None] + [1.0, 2.0, 3.0], 5, axis=0)
        model = fit_classifier(spectra, np.repeat(CLASS_ORDER, 5))
        assert np.allclose(model.covs, 1e-4 * np.eye(3))

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        spectra = rng.normal(size=(40, 3))
        labels = np.array(list(CLASS_ORDER) * 10)
        model_a = fit_classifier(spectra, labels)
        perm = rng.permutation(40)
        model_b = fit_classifier(spectra[perm], labels[perm])
        assert np.allclose(model_a.means, model_b.means)
        assert np.allclose(model_a.covs, model_b.covs)

    def test_too_few_samples(self):
        with pytest.raises(ComputeError, match="samples"):
            fit_classifier(np.array([[1.0], [2.0], [3.0]]),
                           np.array(["water", "water", "soil"]))

    @pytest.mark.parametrize("drop", [0, 1, 2, 3])
    def test_missing_class_is_named(self, drop):
        rng = np.random.default_rng(6)
        spectra, labels = four_classes(np.eye(4), rng, 5)
        keep = (labels != CLASS_ORDER[drop]) | (np.arange(labels.size) % 5 == 0)
        with pytest.raises(ComputeError, match=f"'{CLASS_ORDER[drop]}' has 1 samples"):
            fit_classifier(spectra[keep], labels[keep])
        keep = labels != CLASS_ORDER[drop]
        with pytest.raises(ComputeError, match=f"'{CLASS_ORDER[drop]}' has 0 samples"):
            fit_classifier(spectra[keep], labels[keep])

    def test_unknown_label_is_named(self):
        rng = np.random.default_rng(7)
        spectra, labels = four_classes(np.eye(4), rng, 5)
        labels = labels.astype("<U10")
        labels[7] = "grass"
        with pytest.raises(ComputeError, match="'grass' is not one of"):
            fit_classifier(spectra, labels)

    def test_posterior_at_class_mean(self):
        rng = np.random.default_rng(2)
        centres = [[0.0, 50.0], [0.0, 0.0], [50.0, 50.0], [50.0, 0.0]]
        model = fit_classifier(*four_classes(centres, rng, 200, scale=0.5))
        probe = raster_from_spectra(np.array([[0.0, 0.0], [50.0, 0.0]]), 2, 1)
        probs, class_map = classify_probabilities(model, probe)
        assert probs.band_names == ["p_vegetation", "p_soil", "p_impervious", "p_water"]
        i_soil = CLASS_ORDER.index("soil")
        i_water = CLASS_ORDER.index("water")
        assert probs.data[i_soil, 0, 0] > 0.99
        assert probs.data[i_water, 0, 1] > 0.99
        assert class_map.data[0, 0, 0] == i_soil

    def test_equidistant_pixel_is_half(self):
        rng = np.random.default_rng(3)
        noise = rng.normal(scale=0.3, size=(300, 2))
        # soil and water 4 apart, the other two classes far away
        centres = [[-100.0, 100.0], [0.0, 0.0], [100.0, 100.0], [4.0, 0.0]]
        spectra = np.vstack([np.asarray(c) + noise for c in centres])
        model = fit_classifier(spectra, np.repeat(CLASS_ORDER, 300))
        probe = raster_from_spectra(np.array([[2.0, 0.0]]), 1, 1)
        probs, _ = classify_probabilities(model, probe)
        # shared scatter makes the midpoint nearly symmetric
        assert probs.data[:, 0, 0].max() < 0.6

    def test_no_training_samples(self):
        with pytest.raises(ComputeError, match="class 'vegetation' has 0 samples, need >= 2"):
            fit_classifier(np.empty((0, 3)), np.array([], dtype="<U10"))

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        spectra = rng.normal(size=(60, 3))
        labels = np.array(list(CLASS_ORDER) * 15)
        model = fit_classifier(spectra, labels)
        probe = raster_from_spectra(rng.normal(size=(24, 3)), 6, 4)
        probs, _ = classify_probabilities(model, probe)
        sums = probs.data.sum(axis=0)
        assert np.abs(sums - 1.0).max() < 1e-6


@pytest.fixture(scope="module")
def fixture_rasters(pipeline_dir):
    """The fixture's ``ms`` raster and its PCA-fused image (``pca_fused``),
    fused in process from ``ms`` and ``pan``.  Classified, the fused image
    gives the run's ``pca_prob`` bit for bit, so it is the image that the
    pca-fuse stage classified."""
    ms, pan = (read_raster(pipeline_dir / f"{stem}.hdr") for stem in ("ms", "pan"))
    fused = pca_fuse(ms, pan)
    probs, _ = cli._classify(fused, read_table(pipeline_dir / "train_sites.npy",
                                               cli.SITE_DTYPE))
    assert np.array_equal(probs.data, read_raster(pipeline_dir / "pca_prob.hdr").data)
    return {"ms": ms, "pca_fused": fused}


class TestBlockedClassifier:
    """classify_probabilities, in blocks of pixels through the inverse
    Cholesky factors, gives the float32 posteriors and the classes of the LU
    solve over all pixels, bit for bit.

    Unlike the k-means sums, this identity is not exact by construction: the
    two paths give different float64 log-densities, and only their float32
    posteriors and classes agree.  So the ``array_equal`` checks below hold
    for these inputs with the BLAS and LAPACK in use, not for any build."""

    @pytest.mark.parametrize("stem", ["ms", "pca_fused"])
    def test_fixture_rasters(self, pipeline_dir, fixture_rasters, stem):
        raster = fixture_rasters[stem]
        sites = read_table(pipeline_dir / "train_sites.npy", cli.SITE_DTYPE)
        model = fit_classifier(*cli._sample_spectra(raster, sites))
        assert_classifies_as_reference(model, raster)

    def test_fixture_peak_allocation(self, pipeline_dir, fixture_rasters):
        """On the PCA-fused fixture (90000 pixels), the traced peak is the
        float32 outputs plus one block's work, about 6.6 float64 (classes,
        CLASSIFY_BLOCK) arrays: 2.9 times the outputs at 2**14 pixels a
        block, 7.3 times at 2**16.  It stays below 3.5 times the outputs."""
        raster = fixture_rasters["pca_fused"]
        sites = read_table(pipeline_dir / "train_sites.npy", cli.SITE_DTYPE)
        model = fit_classifier(*cli._sample_spectra(raster, sites))
        tracemalloc.start()
        try:
            probs, class_map = classify_probabilities(model, raster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * (probs.data.nbytes + class_map.data.nbytes)

    def test_three_blocks_and_one_pixel(self):
        rng = np.random.default_rng(8)
        model = fit_classifier(*four_classes(rng.normal(size=(4, 4)), rng, 50))
        n = 3 * CLASSIFY_BLOCK + 1
        assert_classifies_as_reference(
            model, raster_from_spectra(rng.normal(scale=2.0, size=(n, 4)), n, 1))

    def test_class_from_float64_posteriors(self):
        """Soil and water means 2**-10 apart, and a pixel 2**-34 past their
        midpoint, towards water: their posteriors differ by about 1e-14, so
        both store as 0.5 in float32, and the pixel is still water."""
        means = np.array([[-100.0, 100.0], [0.0, 0.0], [100.0, 100.0], [2.0 ** -10, 0.0]])
        model = ClassifierModel(means, np.repeat(np.eye(2)[np.newaxis], 4, axis=0))
        probe = raster_from_spectra([[2.0 ** -11 + 2.0 ** -34, 0.0]], 1, 1)
        probs, class_map = classify_probabilities(model, probe)
        soil, water = CLASS_ORDER.index("soil"), CLASS_ORDER.index("water")
        assert probs.data[soil, 0, 0] == probs.data[water, 0, 0] == np.float32(0.5)
        assert class_map.data[0, 0, 0] == water
        assert_classifies_as_reference(model, probe)

    def test_holds_no_classes_by_pixels_float64_array(self, monkeypatch):
        """With blocks of 2**12 pixels, 2**18 pixels of 4 bands are classified
        with a traced peak below one (C, n) float64 array: the float32
        outputs take 5/8 of that, and a block's work the rest.  At the
        default block size, a block's work alone is about 3.3 MiB."""
        monkeypatch.setattr(spectral, "CLASSIFY_BLOCK", 1 << 12)
        rng = np.random.default_rng(9)
        model = fit_classifier(*four_classes(rng.normal(size=(4, 4)), rng, 50))
        n = 1 << 18
        raster = raster_from_spectra(rng.normal(scale=2.0, size=(n, 4)), n >> 9, 1 << 9)
        tracemalloc.start()
        try:
            classify_probabilities(model, raster)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(CLASS_ORDER) * n * 8


def logsumexp_blocks():
    """(4, n) blocks on which the numpy logsumexp must give scipy's bits:
    random ones, two-, three- and four-way ties of the column maximum,
    whole numbers (which tie often) and values near -800, where exp
    underflows without the shift."""
    rng = np.random.default_rng(12)
    base = rng.normal(-50.0, 20.0, size=(4, 5000))
    blocks = {"random": base}
    for ways in (2, 3, 4):
        tied = base.copy()
        tied[:ways] = base.max(axis=0) + 1.0
        blocks[f"{ways}-way tie"] = tied
    blocks["whole"] = rng.integers(-3, 3, size=(4, 5000)).astype(np.float64)
    blocks["whole, wide"] = np.round(base)
    blocks["near -800"] = rng.normal(-800.0, 5.0, size=(4, 5000))
    blocks["at -800"] = -800.0 + rng.normal(0.0, 1e-3, size=(4, 5000))
    blocks["one column"] = base[:, :1].copy()
    return blocks


class TestLogsumexp:
    """spectral._logsumexp is scipy's logsumexp over axis 0, bit for bit."""

    @pytest.mark.parametrize("name", list(logsumexp_blocks()))
    def test_matches_scipy(self, name):
        block = logsumexp_blocks()[name]
        assert np.array_equal(spectral._logsumexp(block),
                              logsumexp(block, axis=0, keepdims=True))

    @pytest.mark.parametrize("stem", ["ms", "pca_fused"])
    def test_fixture_logposts(self, pipeline_dir, fixture_rasters, stem, monkeypatch):
        numpy_logsumexp, blocks = spectral._logsumexp, []

        def recorded(logpost):
            blocks.append(logpost.copy())
            return numpy_logsumexp(logpost)

        monkeypatch.setattr(spectral, "_logsumexp", recorded)
        raster = fixture_rasters[stem]
        sites = read_table(pipeline_dir / "train_sites.npy", cli.SITE_DTYPE)
        classify_probabilities(fit_classifier(*cli._sample_spectra(raster, sites)), raster)
        assert blocks
        for logpost in blocks:
            assert np.array_equal(numpy_logsumexp(logpost),
                                  logsumexp(logpost, axis=0, keepdims=True))


class TestWaterIndex:
    def _stack(self, spectra_by_date, width=1, height=1):
        names = ["coastal", "blue", "green", "red", "nir", "swir1", "swir2"]
        stack = []
        for spec in spectra_by_date:
            geom = GridGeometry(width, height, 30.0, origin_y=30.0 * height)
            data = np.tile(np.asarray(spec, dtype=np.float32)[:, None, None],
                           (1, height, width))
            stack.append(RasterGrid(geom, data, names))
        return stack

    def test_strict_inequality_fires(self):
        stack = self._stack([[0.02, 0.04, 0.05, 0.06, 0.10, 0.01, 0.02]])
        out = landsat_water_index(stack)
        assert out.data[0, 0, 0] == 1.0

    def test_equality_is_zero(self):
        stack = self._stack([[0.02, 0.04, 0.05, 0.06, 0.10, 0.06, 0.02]])
        out = landsat_water_index(stack)
        assert out.data[0, 0, 0] == 0.0

    def test_seven_date_fraction(self):
        water = [0.02, 0.04, 0.05, 0.06, 0.10, 0.01, 0.02]
        land = [0.02, 0.04, 0.05, 0.06, 0.10, 0.30, 0.25]
        stack = self._stack([water] * 5 + [land] * 2)
        out = landsat_water_index(stack)
        assert out.data[0, 0, 0] == pytest.approx(5 / 7)

    def test_values_are_k_over_m(self):
        rng = np.random.default_rng(0)
        names = ["coastal", "blue", "green", "red", "nir", "swir1", "swir2"]
        geom = GridGeometry(5, 4, 30.0, origin_y=120.0)
        stack = [RasterGrid(geom, rng.random((7, 4, 5)).astype(np.float32), names)
                 for _ in range(6)]
        out = landsat_water_index(stack)
        scaled = out.data[0] * 6
        assert np.allclose(scaled, np.round(scaled), atol=1e-6)

    def test_swir_inflation_is_monotone(self):
        rng = np.random.default_rng(1)
        names = ["coastal", "blue", "green", "red", "nir", "swir1", "swir2"]
        geom = GridGeometry(4, 4, 30.0, origin_y=120.0)
        stack = [RasterGrid(geom, rng.random((7, 4, 4)).astype(np.float32), names)
                 for _ in range(4)]
        base = landsat_water_index(stack).data.copy()
        bumped = [RasterGrid(geom, r.data.copy(), names) for r in stack]
        bumped[2].data[5] += 5.0  # swir1 above any visible value
        out = landsat_water_index(bumped).data
        assert (out <= base).all()


class TestOtsu:
    def test_bimodal_split(self):
        values = np.array([0.0] * 50 + [10.0] * 50)
        t = otsu_threshold(values)
        assert 0.0 < t < 10.0

    def test_matches_exhaustive_scan(self):
        # independent oracle: exact-rational scan of all candidate bins
        from fractions import Fraction

        rng = np.random.default_rng(9)
        values = np.concatenate([rng.normal(2, 0.5, 400), rng.normal(8, 1.0, 300)])
        counts, edges = np.histogram(values, bins=256,
                                     range=(values.min(), values.max()))
        total = int(counts.sum())
        best_var, best_t = Fraction(-1), None
        for t in range(255):
            w0 = int(counts[: t + 1].sum())
            w1 = total - w0
            if w0 == 0 or w1 == 0:
                continue
            mu0 = Fraction(int((counts[: t + 1] * np.arange(t + 1)).sum()), w0)
            mu1 = Fraction(int((counts[t + 1:] * np.arange(t + 1, 256)).sum()), w1)
            var = w0 * w1 * (mu0 - mu1) ** 2
            if var > best_var:
                best_var, best_t = var, t
        assert otsu_threshold(values) == pytest.approx(edges[best_t + 1])

    def test_affine_equivariance(self):
        rng = np.random.default_rng(10)
        values = np.concatenate([rng.normal(0, 1, 200), rng.normal(6, 1, 200)])
        t = otsu_threshold(values)
        t_scaled = otsu_threshold(values * 3.0 + 5.0)
        assert t_scaled == pytest.approx(t * 3.0 + 5.0, rel=1e-9)

    def test_constant_input(self):
        with pytest.raises(ComputeError):
            otsu_threshold(np.full(10, 4.2))

    def test_float32_image_is_not_widened(self):
        """A float32 image gives the threshold of its float64 copy, bit for
        bit, as the bin edges stay float64; and no float64 copy of it is
        made: the traced peak stays below 8 bytes a value."""
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(2, 0.5, 1 << 19),
                                 rng.normal(8, 1.0, 1 << 19)]).astype(np.float32)
        assert otsu_threshold(values) == otsu_threshold(values.astype(np.float64))
        tracemalloc.start()
        try:
            otsu_threshold(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * values.size
