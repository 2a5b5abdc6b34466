"""Post-classification refinement: relabel shadow-dominated water segments."""

from __future__ import annotations

import numpy as np

from .segmentation import SegmentMap


def relabel_shadow_segments(water_flags, segmap: SegmentMap, threshold: float) -> np.ndarray:
    """Water segments whose shadow proportion strictly exceeds ``threshold``
    become non-water; everything else is untouched."""
    shadowed = segmap.records.p_shadow > threshold
    return np.asarray(water_flags, dtype=bool) & ~shadowed
