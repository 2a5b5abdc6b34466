"""PCA pan-sharpening, probabilistic land-cover classification, and the
multi-date SWIR/visible water index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import RasterError, RasterGrid, resample_nearest, row_blocks

CLASS_ORDER = ("vegetation", "soil", "impervious", "water")

VISIBLE_BANDS = ("blue", "green", "red")
SWIR_BANDS = ("swir1", "swir2")
OTSU_BINS = 256  # histogram bins of otsu_threshold

COVARIANCE_EPSILON = 1e-4
CLASSIFY_BLOCK = 1 << 14  # pixels per block of classify_probabilities
PCA_BLOCK = 1 << 14  # rows per block of the pca_fuse transforms


class ComputeError(Exception):
    """A method with no answer on valid inputs: a constant image to
    threshold or rescale, or a training set or sample plan it cannot use."""


# ---------------------------------------------------------------------------
# PCA

def pca_components(centred: np.ndarray) -> np.ndarray:
    """(d, d) principal axes, one per row, of the centred (n, d) float64
    spectra: the eigenvectors of their sample covariance by descending
    eigenvalue, each signed so that its largest-magnitude coefficient is
    positive."""
    evals, evecs = np.linalg.eigh(centred.T @ centred / (len(centred) - 1))
    components = evecs[:, np.argsort(evals)[::-1]].T
    pivots = np.argmax(np.abs(components), axis=1)
    components *= np.sign(components[np.arange(len(components)), pivots])[:, None]
    return components


def pca_fuse(ms: RasterGrid, pan: RasterGrid) -> RasterGrid:
    """Component-substitution sharpening of the MS image with the PAN band.

    The MS image is duplicated onto the PAN grid, PCA-transformed, its first
    component replaced by the PAN band rescaled to the first component's mean
    and standard deviation, and transformed back.  The spectra are copied to
    float64 and centred once; the fused spectra overwrite that copy, which
    is freed once the float32 output is made.  Both transforms run up to
    PCA_BLOCK rows at a time, so no (n, d) array of scores is held: the
    first keeps only the first component, whose mean and deviation are
    taken and which is freed before the PAN band is copied to float64.  So
    the peak is the float64 spectra and one float32 copy.  The blocks are
    ``row_blocks``, none of one row, so they give the bits of one product
    over all rows.
    """
    x = resample_nearest(ms.data, ms.geometry, pan.geometry).reshape(ms.bands, -1).T  # (n, d)
    n, d = x.shape
    if d < 2:
        raise RasterError("PCA needs at least 2 bands")
    if n < d:
        raise RasterError(f"PCA needs at least {d} pixels, got {n}")
    x = x.astype(np.float64, order="C")
    mean = x.mean(axis=0)
    x -= mean
    components = pca_components(x)
    blocks = row_blocks(n, PCA_BLOCK)
    pc1 = np.empty(n)
    for block in blocks:
        pc1[block] = (x[block] @ components.T)[:, 0]
    pc1_std, shift = pc1.std(), pc1.mean()
    del pc1  # freed before the float64 PAN copy is made
    pan_values = pan.data[0].ravel().astype(np.float64)
    pan_std = pan_values.std()
    if pan_std == 0:
        raise ComputeError("PAN image has zero variance; cannot rescale to PC1")
    pan_values -= pan_values.mean()
    scale = pc1_std / pan_std
    for block in blocks:
        scores = x[block] @ components.T
        scores[:, 0] = pan_values[block] * scale + shift
        np.matmul(scores, components, out=x[block])
    x += mean
    del scores, pan_values  # freed before the float32 copy is made
    fused = x.T.astype(np.float32, order="C").reshape(d, pan.geometry.height, pan.geometry.width)
    del x  # freed before RasterGrid checks the samples
    return RasterGrid(pan.geometry, fused, list(ms.band_names))


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
    every CLASS_ORDER class to finite (n, d) ``spectra``, one label a row.  A
    label outside CLASS_ORDER, or a class with fewer than 2 samples, is an error."""
    spectra = np.asarray(spectra, dtype=np.float64)
    labels = np.asarray(labels)
    unknown = labels[~np.isin(labels, CLASS_ORDER)]
    if unknown.size:
        raise ComputeError(f"training label {str(unknown[0])!r} is not one of {CLASS_ORDER}")
    d = spectra.shape[1]
    means = np.zeros((len(CLASS_ORDER), d))
    covs = np.zeros((len(CLASS_ORDER), d, d))
    for i, cls in enumerate(CLASS_ORDER):
        rows = spectra[labels == cls]
        if rows.shape[0] < 2:
            raise ComputeError(f"class {cls!r} has {rows.shape[0]} samples, need >= 2")
        means[i] = rows.mean(axis=0)
        centered = rows - means[i]
        cov = centered.T @ centered / (rows.shape[0] - 1)
        scale = np.trace(cov) / d
        if scale <= 0:
            scale = 1.0  # zero scatter: fall back to a plain epsilon floor
        covs[i] = cov + COVARIANCE_EPSILON * scale * np.eye(d)
    return ClassifierModel(means, covs)


def classify_probabilities(model: ClassifierModel, raster: RasterGrid):
    """Per-pixel class posteriors under a uniform prior, and the argmax class
    map, of a raster with the bands that ``model`` was fitted on.

    Returns ``(probabilities, class_map)``: one probability band ``p_<class>``
    per CLASS_ORDER class (normalized to sum to 1), and a single-band raster
    of class indices into CLASS_ORDER.

    Each class's Cholesky factor L is inverted once.  Then, up to
    CLASSIFY_BLOCK pixels at a time, the squared Mahalanobis distance is
    |L^-1 (x - mean)|^2, the log-posteriors are normalized by their
    logsumexp, and the float64 posteriors give the class (the first on a tie)
    before they are stored as float32, where more pixels tie.  Besides the
    float32 outputs, only one block's float64 work is held, about seven
    (classes, CLASSIFY_BLOCK) arrays.  The blocks are ``row_blocks``, so a
    pixel's values do not depend on the block it is in.
    """
    d = raster.bands
    spectra = raster.data.reshape(d, -1)
    n = spectra.shape[1]
    chols = np.linalg.cholesky(model.covs)
    inverses = np.linalg.inv(chols)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    probs = np.empty((len(CLASS_ORDER), n), dtype=np.float32)
    classes = np.empty(n, dtype=np.float32)
    for block in row_blocks(n, CLASSIFY_BLOCK):
        x = spectra[:, block].astype(np.float64)
        logpost = np.empty((len(CLASS_ORDER), x.shape[1]))
        for i in range(len(CLASS_ORDER)):
            z = inverses[i] @ (x - model.means[i][:, None])
            logpost[i] = -0.5 * (np.sum(z * z, axis=0) + logdets[i] + d * np.log(2.0 * np.pi))
        logpost -= _logsumexp(logpost)
        posterior = np.exp(logpost)
        probs[:, block] = posterior
        classes[block] = np.argmax(posterior, axis=0)
    h, w = raster.geometry.height, raster.geometry.width
    prob_raster = RasterGrid(raster.geometry, probs.reshape(len(CLASS_ORDER), h, w),
                             [f"p_{c}" for c in CLASS_ORDER])
    class_map = RasterGrid(raster.geometry, classes.reshape(1, h, w), ["class_index"])
    return prob_raster, class_map


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(a, axis=0, keepdims=True)`` for a finite
    float64 ``a``, bit for bit: scipy 1.17's steps for real input.  The
    entries equal to the column maximum ``top`` are taken out of the sum and
    counted in ``ties``; the rest are shifted by ``top``, exponentiated and
    summed (in the same layout, so in the same order), the sum ``s`` is
    divided by ``ties`` where it is nonzero, and the result is
    ``log1p(s) + log(ties) + top``, added in that order.  An infinite or NaN
    entry is not handled as scipy handles it."""
    top = np.max(a, axis=0, keepdims=True)
    tied = a == top
    ties = np.sum(tied, axis=0, keepdims=True, dtype=a.dtype)
    shifted = np.subtract(a, top)
    np.exp(shifted, out=shifted)
    np.copyto(shifted, 0.0, where=tied)
    s = np.sum(shifted, axis=0, keepdims=True)
    np.divide(s, ties, out=s, where=s != 0)
    return np.log1p(s) + np.log(ties) + top


# ---------------------------------------------------------------------------
# Landsat time-series water index

def landsat_water_index(stack) -> RasterGrid:
    """Fraction of dates on which max(visible) strictly exceeds max(SWIR).

    Per date the pixel scores 1 if the brightest of VISIBLE_BANDS is above the
    brightest of SWIR_BANDS, else 0; the output is the mean score over the stack,
    so values are k/M for a stack of M >= 1 dates, all on one grid.
    """
    total = np.zeros(stack[0].data.shape[1:], dtype=np.float64)
    for raster in stack:
        vis = np.max([raster.band(b) for b in VISIBLE_BANDS], axis=0)
        swir = np.max([raster.band(b) for b in SWIR_BANDS], axis=0)
        total += (vis > swir)
    total /= len(stack)
    return RasterGrid(stack[0].geometry, total.astype(np.float32)[np.newaxis], ["p_water"])


# ---------------------------------------------------------------------------
# Otsu threshold

def otsu_threshold(values) -> float:
    """Histogram threshold of finite ``values`` maximizing between-class variance.

    Ties pick the smallest maximizing bin; the returned threshold is that
    bin's upper edge.  The values are read in their own type, so a float32
    image is not copied to float64.  The bounds of the range are float64
    scalars, which under numpy 2's promotion rules (NEP 50) make the bin
    edges float64 for any input; Python floats would give a float32 image
    float32 edges.
    """
    values = np.ravel(values)
    if values.size < 2 or values.min() == values.max():
        raise ComputeError("otsu_threshold needs at least 2 distinct values")
    counts, edges = np.histogram(values, bins=OTSU_BINS,
                                 range=(np.float64(values.min()), np.float64(values.max())))
    # between-class variance over bin indices (same maximizer as over bin
    # centers, which are affine in the index), compared in exact integer
    # arithmetic so plateau ties deterministically resolve to the smallest bin;
    # the minimum is in the first bin and the maximum in the last, so both
    # classes hold a value at every cut
    counts = [int(c) for c in counts]
    total = sum(counts)
    s_total = sum(i * c for i, c in enumerate(counts))
    best, best_num, best_den = 0, -1, 1
    w0 = s0 = 0
    for t in range(OTSU_BINS - 1):
        w0 += counts[t]
        s0 += t * counts[t]
        w1 = total - w0
        num = (s0 * w1 - (s_total - s0) * w0) ** 2
        den = w0 * w1
        if num * best_den > best_num * den:
            best, best_num, best_den = t, num, den
    return float(edges[best + 1])
