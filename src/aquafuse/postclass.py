"""Post-classification refinement: relabel shadow-dominated water segments."""

from __future__ import annotations

import numpy as np


def relabel_shadow_segments(water_flags, p_shadow, threshold: float) -> np.ndarray:
    """Water segments whose shadow proportion in ``p_shadow`` strictly
    exceeds ``threshold`` become non-water; everything else is untouched."""
    return np.asarray(water_flags, dtype=bool) & ~(np.asarray(p_shadow) > threshold)
