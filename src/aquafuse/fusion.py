"""Two-stage graphical-model fusion of the per-segment PAN, MS and Landsat
water probabilities.

Stage one merges the PAN and MS beliefs into an intermediate node whose
conditional table shifts weight toward the MS result for large or
shadow-covered segments.  Stage two merges that with the Landsat belief,
which only participates for segments at least as large as the Landsat
detectability scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class FusionParams:
    """The fusion model's numbers: the size multipliers ``n1`` and ``n2``, the
    MS and Landsat pixel sizes ``r_ms`` and ``r_l`` (m), and the decision
    threshold on the fused probability."""

    n1: int
    n2: int
    r_ms: float
    r_l: float
    decision_threshold: float


def sigmoid(t):
    """Logistic function of a scalar or an array, without overflow."""
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))[()]


def _marginal(a, b, s):
    """P(child = water) for independent parents with water probabilities
    ``a`` and ``b``: the child copies agreeing parents and, when they
    disagree, follows the second parent with probability ``s``."""
    return s * (1.0 - a) * b + (1.0 - s) * a * (1.0 - b) + a * b


def fuse_pm(p_pan, p_ms, w, p_shadow, params: FusionParams):
    """Marginal water probability of the PAN+MS stage, treating the two
    sources as independent binary variables.  Where they disagree the
    intermediate node follows MS with probability
    ``sigmoid((w / (n1 * r_ms) + p_shadow) / 2)`` for a segment of size ``w``
    meters and shadow proportion ``p_shadow``."""
    s = sigmoid((w / (params.n1 * params.r_ms) + p_shadow) / 2.0)
    return _marginal(p_pan, p_ms, s)


def landsat_active(w, params: FusionParams):
    """Whether the Landsat branch speaks for a segment of size ``w`` meters:
    only at or above the Landsat detectability scale ``n2 * r_l``."""
    return np.asarray(w) >= params.n2 * params.r_l


def fuse_w(p_pm, p_lan, w, params: FusionParams):
    """Marginal water probability of the final stage.  Where the PAN+MS node
    and Landsat disagree the final node follows Landsat with probability
    ``sigmoid(w / (n2 * r_l))``, and never below that scale."""
    scale = params.n2 * params.r_l
    s = np.where(landsat_active(w, params), sigmoid(w / scale), 0.0)[()]
    return _marginal(p_pm, p_lan, s)


def decide(p_w, params: FusionParams):
    """Water iff the fused probability strictly exceeds the threshold."""
    return p_w > params.decision_threshold


def fuse_all_segments(segmap, params: FusionParams, p_shadow):
    """Fuse each segment's probabilities and shadow share ``p_shadow``: (p_w, water flags)."""
    t = segmap.records
    p_w = fuse_w(fuse_pm(t.p_pan, t.p_ms, t.w, p_shadow, params), t.p_lan, t.w, params)
    return p_w, decide(p_w, params)
