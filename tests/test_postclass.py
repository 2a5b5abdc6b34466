import numpy as np

from aquafuse.postclass import relabel_shadow_segments
from aquafuse.raster import GridGeometry
from aquafuse.segmentation import SegmentMap, segment_table


def segmap_of(p_shadows):
    n = len(p_shadows)
    geom = GridGeometry(n, 1, 1.0)
    recs = segment_table(n)
    recs.p_shadow = p_shadows
    return SegmentMap(np.arange(n, dtype=np.int32)[np.newaxis], recs, geom)


class TestShadowRelabel:
    def test_strictly_above_threshold_flips(self):
        segmap = segmap_of([0.0, 0.85, 0.86, 1.0])
        out = relabel_shadow_segments([True, True, True, True], segmap, 0.85)
        assert out.tolist() == [True, True, False, False]

    def test_non_water_untouched(self):
        segmap = segmap_of([1.0, 1.0])
        out = relabel_shadow_segments([False, False], segmap, 0.85)
        assert out.tolist() == [False, False]

    def test_custom_threshold(self):
        segmap = segmap_of([0.5, 0.6])
        assert relabel_shadow_segments([True, True], segmap, 0.55).tolist() == [True, False]

