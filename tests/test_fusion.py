import itertools

import numpy as np
import pytest

from aquafuse.fusion import (
    FusionParams,
    decide,
    fuse_all_segments,
    fuse_pm,
    fuse_w,
    sigmoid,
)

# the model at n1 = 2, n2 = 1 on 3.2 m MS and 30 m Landsat pixels
PARAMS = FusionParams(n1=2, n2=1, r_ms=3.2, r_l=30.0, decision_threshold=0.5)

# The model's conditional tables written out state by state: the oracle that
# the closed-form marginals in aquafuse.fusion are checked against.
WATER = True
NON_WATER = False
STATES = (NON_WATER, WATER)


def cpd_pm(pm, pan, ms, w: float, p_shadow: float, params: FusionParams) -> float:
    """P(intermediate state | PAN state, MS state) for a segment of size
    ``w`` meters with shadow proportion ``p_shadow``."""
    if pan == ms:
        return 1.0 if pm == pan else 0.0
    s = sigmoid((w / (params.n1 * params.r_ms) + p_shadow) / 2.0)
    return s if pm == ms else 1.0 - s


def cpd_w(w_state, pm, lan, w: float, params: FusionParams) -> float:
    """P(final state | intermediate state, Landsat state); the Landsat branch
    is gated off for segments below the Landsat detectability scale."""
    if pm == lan:
        return 1.0 if w_state == pm else 0.0
    scale = params.n2 * params.r_l
    s = sigmoid(w / scale) if w >= scale else 0.0
    return s if w_state == lan else 1.0 - s


def joint_marginal(p_pan, p_ms, p_lan, w, p_shadow, params):
    """Independent oracle: materialize the full joint table over (pan, ms,
    intermediate, landsat, final) and sum out everything but the final node."""
    total = 0.0
    for pan, ms, pm, lan, final in itertools.product(STATES, repeat=5):
        p = (p_pan if pan else 1 - p_pan) * (p_ms if ms else 1 - p_ms) \
            * (p_lan if lan else 1 - p_lan)
        p *= cpd_pm(pm, pan, ms, w, p_shadow, params)
        p *= cpd_w(final, pm, lan, w, params)
        if final is WATER:
            total += p
    return total


class TestSigmoid:
    def test_reference_values(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(0.25) == pytest.approx(0.562176500886, abs=1e-12)
        assert sigmoid(2.0) == pytest.approx(0.880797077978, abs=1e-12)

    def test_symmetry_and_extremes(self):
        for t in (0.1, 1.0, 10.0, 100.0, 1000.0):
            assert sigmoid(t) + sigmoid(-t) == pytest.approx(1.0, abs=1e-15)
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0


class TestConditionalTables:
    def test_rows_normalize(self):
        params = PARAMS
        for pan in STATES:
            for ms in STATES:
                row = sum(cpd_pm(pm, pan, ms, 12.0, 0.3, params) for pm in STATES)
                assert row == pytest.approx(1.0)
        for pm in STATES:
            for lan in STATES:
                row = sum(cpd_w(s, pm, lan, 45.0, params) for s in STATES)
                assert row == pytest.approx(1.0)

    def test_agreement_is_deterministic(self):
        params = PARAMS
        assert cpd_pm(WATER, WATER, WATER, 5.0, 0.9, params) == 1.0
        assert cpd_pm(WATER, False, False, 5.0, 0.9, params) == 0.0
        assert cpd_w(WATER, WATER, WATER, 5.0, params) == 1.0
        assert cpd_w(False, WATER, WATER, 5.0, params) == 0.0

    def test_disagreement_favors_ms_with_size_and_shadow(self):
        params = PARAMS
        base = cpd_pm(WATER, False, WATER, 3.2, 0.0, params)
        bigger = cpd_pm(WATER, False, WATER, 32.0, 0.0, params)
        shadowed = cpd_pm(WATER, False, WATER, 3.2, 1.0, params)
        assert base == pytest.approx(sigmoid(0.25))
        assert bigger > base and shadowed > base
        assert base > 0.5  # the MS vote always carries at least half the weight

    def test_landsat_gated_below_scale(self):
        params = PARAMS
        assert cpd_w(WATER, False, WATER, 29.999, params) == 0.0
        assert cpd_w(WATER, False, WATER, 30.0, params) == pytest.approx(sigmoid(1.0))


class TestFuseMarginals:
    def test_reference_values(self):
        params = PARAMS
        assert fuse_pm(0.9, 0.1, 3.2, 0.0, params) == pytest.approx(
            0.450258799291, abs=1e-9)
        assert fuse_w(0.9, 0.1, 60.0, params) == pytest.approx(
            0.195362337618, abs=1e-9)

    def test_small_segment_ignores_landsat(self):
        params = PARAMS
        for p_pm in (0.0, 0.3, 0.9, 1.0):
            for p_lan in (0.0, 0.5, 1.0):
                assert fuse_w(p_pm, p_lan, 15.0, params) == pytest.approx(p_pm)

    def test_certain_agreement_passes_through(self):
        params = PARAMS
        assert fuse_pm(1.0, 1.0, 7.0, 0.2, params) == pytest.approx(1.0)
        assert fuse_pm(0.0, 0.0, 7.0, 0.2, params) == pytest.approx(0.0)
        assert fuse_w(1.0, 1.0, 100.0, params) == pytest.approx(1.0)
        assert fuse_w(0.0, 0.0, 100.0, params) == pytest.approx(0.0)

    def test_matches_full_joint_enumeration(self):
        params = PARAMS
        rng = np.random.default_rng(11)
        for _ in range(200):
            p_pan, p_ms, p_lan, p_shadow = rng.random(4)
            w = float(rng.random() * 120.0)
            pm = fuse_pm(p_pan, p_ms, w, p_shadow, params)
            got = fuse_w(pm, p_lan, w, params)
            want = joint_marginal(p_pan, p_ms, p_lan, w, p_shadow, params)
            assert got == pytest.approx(want, abs=1e-12)

    def test_results_are_probabilities(self):
        params = PARAMS
        rng = np.random.default_rng(12)
        for _ in range(100):
            p_pan, p_ms, p_lan, p_shadow = rng.random(4)
            w = float(rng.random() * 200.0)
            pw = fuse_w(fuse_pm(p_pan, p_ms, w, p_shadow, params), p_lan, w, params)
            assert 0.0 <= pw <= 1.0


class TestDecision:
    def test_strict_threshold(self):
        params = PARAMS
        assert not decide(0.5, params)
        assert decide(0.5 + 1e-12, params)
        assert not decide(0.2, params)

    def test_segment_sweep(self):
        from aquafuse.raster import GridGeometry
        from aquafuse.segmentation import SegmentMap, segment_table

        params = PARAMS
        recs = segment_table(3)
        recs.p_pan = [1.0, 0.0, 0.9]
        recs.p_ms = [1.0, 0.0, 0.1]
        recs.p_lan = [1.0, 0.0, 0.1]
        recs.w = [60.0, 60.0, 3.2]
        geom = GridGeometry(3, 1, 1.0)
        segmap = SegmentMap(np.arange(3, dtype=np.int32)[np.newaxis], recs, geom)
        p_w, flags = fuse_all_segments(segmap, params, np.array([0.0, 0.0, 0.5]))
        assert flags.tolist() == [True, False, False]
        assert p_w[0] == pytest.approx(1.0)
        assert p_w[2] == pytest.approx(fuse_pm(0.9, 0.1, 3.2, 0.5, params))

