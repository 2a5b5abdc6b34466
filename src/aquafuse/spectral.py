"""PCA pan-sharpening, probabilistic land-cover classification, and the
multi-date SWIR/visible water index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .raster import RasterGrid, resample_nearest

CLASS_ORDER = ("vegetation", "soil", "impervious", "water")

VISIBLE_BANDS = ("blue", "green", "red")
SWIR_BANDS = ("swir1", "swir2")
OTSU_BINS = 256  # histogram bins of otsu_threshold

COVARIANCE_EPSILON = 1e-4


class SpectralError(Exception):
    pass


# ---------------------------------------------------------------------------
# PCA

@dataclass
class PcaModel:
    mean: np.ndarray                # (d,)
    components: np.ndarray          # (d, d), rows are components
    explained_variance: np.ndarray  # (d,), non-increasing

    def transform(self, spectra):
        return (np.asarray(spectra, dtype=np.float64) - self.mean) @ self.components.T

    def inverse(self, scores):
        return np.asarray(scores, dtype=np.float64) @ self.components + self.mean


def pca_fit(raster: RasterGrid) -> PcaModel:
    """Fit a full PCA basis to the pixel spectra of a multi-band raster."""
    if raster.bands < 2:
        raise SpectralError("PCA needs at least 2 bands")
    spectra = raster.data.reshape(raster.bands, -1).T.astype(np.float64, order="C")
    if spectra.shape[0] < raster.bands:
        raise SpectralError(f"PCA needs at least {raster.bands} pixels, got {spectra.shape[0]}")
    mean = spectra.mean(axis=0)
    centered = spectra - mean
    cov = centered.T @ centered / (spectra.shape[0] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    components = evecs[:, order].T
    # deterministic sign: the largest-magnitude coefficient of each component is positive
    for comp in components:
        pivot = np.argmax(np.abs(comp))
        if comp[pivot] < 0:
            comp *= -1.0
    return PcaModel(mean, components, evals)


def pca_fuse(ms: RasterGrid, pan: RasterGrid) -> RasterGrid:
    """Component-substitution sharpening of the MS image with the PAN band.

    The MS image is duplicated onto the PAN grid, PCA-transformed, its first
    component replaced by the PAN band rescaled to the first component's mean
    and standard deviation, and transformed back.
    """
    if pan.bands != 1:
        raise SpectralError("PAN raster must have exactly 1 band")
    up = resample_nearest(ms, pan.geometry)
    model = pca_fit(up)
    h, w = pan.geometry.height, pan.geometry.width
    scores = model.transform(up.data.reshape(up.bands, -1).T)
    pc1 = scores[:, 0]
    pan_values = pan.data[0].ravel().astype(np.float64)
    pan_std = pan_values.std()
    if pan_std == 0:
        raise SpectralError("PAN image has zero variance; cannot rescale to PC1")
    scores[:, 0] = (pan_values - pan_values.mean()) * (pc1.std() / pan_std) + pc1.mean()
    fused = model.inverse(scores).T.reshape(up.bands, h, w)
    return RasterGrid(pan.geometry, fused.astype(np.float32), list(ms.band_names))


# ---------------------------------------------------------------------------
# Gaussian maximum-likelihood classifier

@dataclass
class ClassifierModel:
    """One Gaussian per CLASS_ORDER class, in that order, under a uniform
    prior over the classes."""

    means: np.ndarray   # (C, d)
    covs: np.ndarray    # (C, d, d), symmetric positive-definite


def fit_classifier(spectra, labels) -> ClassifierModel:
    """Per-class Gaussian fit (sample mean, regularized sample covariance) of
    every CLASS_ORDER class.  A label outside CLASS_ORDER, or a class with
    fewer than 2 samples, is an error."""
    spectra = np.asarray(spectra, dtype=np.float64)
    labels = np.asarray(labels)
    if spectra.ndim != 2 or spectra.shape[0] != labels.shape[0]:
        raise SpectralError("spectra must be (n, d) with one label per row")
    if not np.isfinite(spectra).all():
        raise SpectralError("training spectra must be finite")
    if not labels.size:
        raise SpectralError("no training samples")
    unknown = labels[~np.isin(labels, CLASS_ORDER)]
    if unknown.size:
        raise SpectralError(f"training label {str(unknown[0])!r} is not one of {CLASS_ORDER}")
    d = spectra.shape[1]
    means = np.zeros((len(CLASS_ORDER), d))
    covs = np.zeros((len(CLASS_ORDER), d, d))
    for i, cls in enumerate(CLASS_ORDER):
        rows = spectra[labels == cls]
        if rows.shape[0] < 2:
            raise SpectralError(f"class {cls!r} has {rows.shape[0]} samples, need >= 2")
        means[i] = rows.mean(axis=0)
        centered = rows - means[i]
        cov = centered.T @ centered / (rows.shape[0] - 1)
        scale = np.trace(cov) / d
        if scale <= 0:
            scale = 1.0  # zero scatter: fall back to a plain epsilon floor
        covs[i] = cov + COVARIANCE_EPSILON * scale * np.eye(d)
    return ClassifierModel(means, covs)


def _log_densities(model: ClassifierModel, spectra: np.ndarray) -> np.ndarray:
    n, d = spectra.shape
    out = np.empty((len(CLASS_ORDER), n))
    for i in range(len(CLASS_ORDER)):
        chol = np.linalg.cholesky(model.covs[i])
        z = np.linalg.solve(chol, (spectra - model.means[i]).T)
        maha = np.sum(z * z, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[i] = -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))
    return out


def classify_probabilities(model: ClassifierModel, raster: RasterGrid):
    """Per-pixel class posteriors under a uniform prior, and the argmax class map.

    Returns ``(probabilities, class_map)``: one probability band ``p_<class>``
    per CLASS_ORDER class (normalized to sum to 1), and a single-band raster
    of class indices into CLASS_ORDER.
    """
    if raster.bands != model.means.shape[1]:
        raise SpectralError(
            f"raster has {raster.bands} bands but the model expects {model.means.shape[1]}"
        )
    spectra = raster.data.reshape(raster.bands, -1).T.astype(np.float64)
    logpost = _log_densities(model, spectra)
    logpost -= logsumexp(logpost, axis=0, keepdims=True)
    probs = np.exp(logpost)
    h, w = raster.geometry.height, raster.geometry.width
    prob_raster = RasterGrid(
        raster.geometry,
        probs.reshape(len(CLASS_ORDER), h, w).astype(np.float32),
        [f"p_{c}" for c in CLASS_ORDER],
    )
    class_map = RasterGrid(
        raster.geometry,
        np.argmax(probs, axis=0).reshape(h, w).astype(np.float32)[np.newaxis],
        ["class_index"],
    )
    return prob_raster, class_map


# ---------------------------------------------------------------------------
# Landsat time-series water index

def landsat_water_index(stack) -> RasterGrid:
    """Fraction of dates on which max(visible) strictly exceeds max(SWIR).

    Per date the pixel scores 1 if the brightest of VISIBLE_BANDS is above the
    brightest of SWIR_BANDS, else 0; the output is the mean score over the stack,
    so values are k/M for a stack of M dates.
    """
    if not stack:
        raise SpectralError("empty Landsat stack")
    geometry = stack[0].geometry
    total = np.zeros((geometry.height, geometry.width), dtype=np.float64)
    for raster in stack:
        if raster.geometry != geometry:
            raise SpectralError("all rasters in the stack must share one grid")
        vis = np.max([raster.band(b) for b in VISIBLE_BANDS], axis=0)
        swir = np.max([raster.band(b) for b in SWIR_BANDS], axis=0)
        total += (vis > swir)
    total /= len(stack)
    return RasterGrid(geometry, total.astype(np.float32)[np.newaxis], ["p_water"])


# ---------------------------------------------------------------------------
# Otsu threshold

def otsu_threshold(values) -> float:
    """Histogram threshold maximizing between-class variance.

    Ties pick the smallest maximizing bin; the returned threshold is that
    bin's upper edge.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    values = values[np.isfinite(values)]
    if values.size < 2 or values.min() == values.max():
        raise SpectralError("otsu_threshold needs at least 2 distinct values")
    counts, edges = np.histogram(values, bins=OTSU_BINS, range=(values.min(), values.max()))
    # between-class variance over bin indices (same maximizer as over bin
    # centers, which are affine in the index), compared in exact integer
    # arithmetic so plateau ties deterministically resolve to the smallest bin
    counts = [int(c) for c in counts]
    total = sum(counts)
    s_total = sum(i * c for i, c in enumerate(counts))
    best = None
    best_num = best_den = 0
    w0 = s0 = 0
    for t in range(OTSU_BINS - 1):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        num = (s0 * w1 - (s_total - s0) * w0) ** 2
        den = w0 * w1
        if best is None or num * best_den > best_num * den:
            best, best_num, best_den = t, num, den
    return float(edges[best + 1])
