import numpy as np
import pytest

from aquafuse.evaluate import (
    AccuracyReport,
    ConfusionMatrix,
    accuracy_metrics,
    confusion_matrix,
    format_report,
    stratified_sample,
)
from aquafuse.raster import RasterError
from aquafuse.spectral import ComputeError


class TestStratifiedSample:
    def _codes(self):
        # vegetation, soil and water codes; no impervious pixel
        rng = np.random.default_rng(0)
        return rng.choice([0, 1, 3], size=(30, 30))

    def test_counts_and_membership(self):
        codes = self._codes()
        samples = stratified_sample(codes, [0, 10, 0, 20], seed=1)
        assert samples.shape == (30,)
        assert np.bincount(codes.ravel()[samples], minlength=4).tolist() == [0, 10, 0, 20]

    def test_no_repeats_within_stratum(self):
        samples = stratified_sample(self._codes(), [0, 0, 0, 50], seed=2)
        assert np.unique(samples).size == 50

    def test_deterministic_and_seed_sensitive(self):
        codes = self._codes()
        counts = [5, 0, 0, 5]
        a = stratified_sample(codes, counts, seed=3)
        b = stratified_sample(codes, counts, seed=3)
        c = stratified_sample(codes, counts, seed=4)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_classes_emitted_in_fixed_order(self):
        codes = self._codes()
        samples = stratified_sample(codes, [3, 3, 0, 3], seed=0)
        assert codes.ravel()[samples].tolist() == [0] * 3 + [1] * 3 + [3] * 3

    def test_overdraw_rejected(self):
        with pytest.raises(ComputeError, match="'water' has 1 pixels"):
            stratified_sample(np.array([[3, 1]]), [0, 0, 0, 2], seed=0)

    def test_one_count_per_class(self):
        with pytest.raises(ComputeError, match="one sample count per class"):
            stratified_sample(self._codes(), [5, 5], seed=0)


class TestConfusionMatrix:
    def test_counts_layout(self):
        predicted = np.array([True, True, False, False])
        reference = np.array([True, False, True, False])
        m = confusion_matrix(predicted, reference)
        assert m.counts.tolist() == [[1, 1], [1, 1]]
        assert m.total == 4

    def test_length_mismatch(self):
        with pytest.raises(RasterError):
            confusion_matrix([True], [True, False])


class TestAccuracyMetrics:
    # frozen reference tables: ((nn, nw), (wn, ww)) -> (PA, UA, OA) at 1 decimal
    REFERENCE = [
        (((299, 2), (69, 230)), (99.1, 76.9, 88.2)),
        (((249, 0), (119, 232)), (100.0, 66.1, 80.2)),
        (((339, 12), (29, 220)), (94.8, 88.4, 93.2)),
        (((361, 33), (7, 199)), (85.8, 96.6, 93.3)),
        (((341, 8), (27, 224)), (96.6, 89.2, 94.2)),
        (((350, 7), (18, 225)), (97.0, 92.6, 95.8)),
    ]

    @pytest.mark.parametrize("counts,expected", REFERENCE)
    def test_reference_tables(self, counts, expected):
        m = ConfusionMatrix(np.array(counts, dtype=np.int64))
        assert accuracy_metrics(m).rounded() == expected

    def test_exact_fractions(self):
        m = ConfusionMatrix(np.array([[50, 10], [20, 40]], dtype=np.int64))
        rep = accuracy_metrics(m)
        assert rep.pa == pytest.approx(100.0 * 40 / 50)
        assert rep.ua == pytest.approx(100.0 * 40 / 60)
        assert rep.oa == pytest.approx(100.0 * 90 / 120)

    def test_half_up_rounding(self):
        assert AccuracyReport(87.25, 12.35, 99.95).rounded() == (87.3, 12.4, 100.0)
        assert AccuracyReport(87.24999, 0.05, 50.0).rounded() == (87.2, 0.1, 50.0)

    def test_zero_denominators(self):
        # no reference water: PA undefined; no predicted water: UA undefined
        assert accuracy_metrics(ConfusionMatrix(np.array([[5, 0], [3, 0]]))).rounded() \
            == (None, 0.0, 62.5)
        assert accuracy_metrics(ConfusionMatrix(np.array([[5, 3], [0, 0]]))).rounded() \
            == (0.0, None, 62.5)
        with pytest.raises(ComputeError):
            accuracy_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=np.int64)))


def test_format_report_undefined_accuracy():
    m = ConfusionMatrix(np.array([[299, 2], [0, 0]], dtype=np.int64))
    lines = format_report(m, title="dry").splitlines()
    assert lines[-2] == "PA(water) = 0.0%   UA(water) = n/a   OA = 99.3%"
    assert lines[-1] == "pa=0.0,ua=n/a,oa=99.3"


def test_format_report_machine_line():
    m = ConfusionMatrix(np.array([[299, 2], [69, 230]], dtype=np.int64))
    text = format_report(m, title="demo")
    assert "pa=99.1,ua=76.9,oa=88.2" in text.splitlines()[-1]
    assert "299" in text and "230" in text
