"""Post-classification refinement: relabel shadow-dominated water segments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmentation import SegmentMap


class PostClassError(Exception):
    pass


@dataclass
class PostClassParams:
    shadow_relabel_threshold: float = 0.85

    def __post_init__(self):
        if not (0.0 < self.shadow_relabel_threshold < 1.0):
            raise PostClassError(f"threshold {self.shadow_relabel_threshold} must be in (0, 1)")


def relabel_shadow_segments(water_flags, segmap: SegmentMap,
                            params: PostClassParams) -> np.ndarray:
    """Water segments whose shadow proportion strictly exceeds the threshold
    become non-water; everything else is untouched."""
    shadowed = segmap.records.p_shadow > params.shadow_relabel_threshold
    return np.asarray(water_flags, dtype=bool) & ~shadowed
