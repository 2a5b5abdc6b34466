from aquafuse.postclass import relabel_shadow_segments


class TestShadowRelabel:
    def test_strictly_above_threshold_flips(self):
        out = relabel_shadow_segments([True, True, True, True], [0.0, 0.85, 0.86, 1.0], 0.85)
        assert out.tolist() == [True, True, False, False]

    def test_non_water_untouched(self):
        out = relabel_shadow_segments([False, False], [1.0, 1.0], 0.85)
        assert out.tolist() == [False, False]

    def test_custom_threshold(self):
        assert relabel_shadow_segments([True, True], [0.5, 0.6], 0.55).tolist() == [True, False]
