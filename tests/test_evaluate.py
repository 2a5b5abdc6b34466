import numpy as np
import pytest

from aquafuse.evaluate import accuracy_metrics, confusion_matrix, format_report, stratified_sample
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


class TestConfusionMatrix:
    def test_counts_layout(self):
        predicted = np.array([True, True, False, False])
        reference = np.array([True, False, True, False])
        counts = confusion_matrix(predicted, reference)
        assert counts.shape == (2, 2)
        assert counts.tolist() == [[1, 1], [1, 1]]

    def test_indexed_predicted_then_reference(self):
        # 3 missed water pixels, 1 false alarm, 2 hits, no correct non-water
        predicted = np.array([False, False, False, True, True, True])
        reference = np.array([True, True, True, False, True, True])
        assert confusion_matrix(predicted, reference).tolist() == [[0, 3], [1, 2]]


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
        assert accuracy_metrics(np.array(counts, dtype=np.int64)) == expected

    def test_exact_fractions(self):
        # PA 40/50 = 80, UA 40/60 = 66.66.., OA 90/120 = 75
        assert accuracy_metrics(np.array([[50, 10], [20, 40]], dtype=np.int64)) \
            == (80.0, 66.7, 75.0)

    @pytest.mark.parametrize("part,whole,expected", [
        (349, 400, 87.3),                  # 87.25 rounds up
        (247, 2000, 12.4),                 # 12.35 rounds up
        (1999, 2000, 100.0),               # 99.95 rounds up to 100.0
        (1, 2000, 0.1),                    # 0.05 rounds up
        (8724999, 10000000, 87.2),         # 87.24999 rounds down
    ])
    def test_half_up_rounding(self, part, whole, expected):
        """Each accuracy is rounded half up to one decimal.  Both matrices
        miss ``whole - part`` water pixels: the first gets the other pixels
        right as non-water (OA = part / whole), the second finds them as
        water (PA = part / whole)."""
        counts = np.array([[part, whole - part], [0, 0]], dtype=np.int64)
        assert accuracy_metrics(counts)[2] == expected
        counts = np.array([[0, whole - part], [0, part]], dtype=np.int64)
        assert accuracy_metrics(counts)[0] == expected

    def test_zero_denominators(self):
        # no reference water: PA undefined; no predicted water: UA undefined
        assert accuracy_metrics(np.array([[5, 0], [3, 0]])) == (None, 0.0, 62.5)
        assert accuracy_metrics(np.array([[5, 3], [0, 0]])) == (0.0, None, 62.5)
        with pytest.raises(ComputeError, match="no samples to score"):
            accuracy_metrics(np.zeros((2, 2), dtype=np.int64))


def test_format_report_undefined_accuracy():
    counts = np.array([[299, 2], [0, 0]], dtype=np.int64)
    lines = format_report(counts, title="dry").splitlines()
    assert lines[-2] == "PA(water) = 0.0%   UA(water) = n/a   OA = 99.3%"
    assert lines[-1] == "pa=0.0,ua=n/a,oa=99.3"


def test_format_report_machine_line():
    counts = np.array([[299, 2], [69, 230]], dtype=np.int64)
    text = format_report(counts, title="demo")
    assert "pa=99.1,ua=76.9,oa=88.2" in text.splitlines()[-1]
    assert "299" in text and "230" in text
