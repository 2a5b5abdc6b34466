import numpy as np
import pytest

from aquafuse.evaluate import (
    AccuracyReport,
    ConfusionMatrix,
    EvalError,
    accuracy_metrics,
    confusion_matrix,
    format_report,
    stratified_sample,
)


class TestStratifiedSample:
    def _labels(self):
        rng = np.random.default_rng(0)
        return rng.choice(["vegetation", "soil", "water"], size=(30, 30))

    def test_counts_and_membership(self):
        labels = self._labels()
        samples = stratified_sample(labels, {"water": 20, "soil": 10}, seed=1)
        assert len(samples) == 30
        per_class = {}
        for row, col, cls in samples:
            assert labels[row, col] == cls
            per_class[cls] = per_class.get(cls, 0) + 1
        assert per_class == {"water": 20, "soil": 10}

    def test_no_repeats_within_stratum(self):
        labels = self._labels()
        samples = stratified_sample(labels, {"water": 50}, seed=2)
        positions = [(r, c) for r, c, _ in samples]
        assert len(set(positions)) == 50

    def test_deterministic_and_seed_sensitive(self):
        labels = self._labels()
        counts = {"vegetation": 5, "water": 5}
        a = stratified_sample(labels, counts, seed=3)
        b = stratified_sample(labels, counts, seed=3)
        c = stratified_sample(labels, counts, seed=4)
        assert a == b
        assert a != c

    def test_classes_emitted_in_fixed_order(self):
        labels = self._labels()
        samples = stratified_sample(labels, {"water": 3, "vegetation": 3, "soil": 3},
                                    seed=0)
        assert [cls for _, _, cls in samples] == (
            ["vegetation"] * 3 + ["soil"] * 3 + ["water"] * 3)

    def test_overdraw_rejected(self):
        labels = np.array([["water", "soil"]])
        with pytest.raises(EvalError):
            stratified_sample(labels, {"water": 2}, seed=0)


class TestConfusionMatrix:
    def test_counts_layout(self):
        predicted = ["water", "water", "soil", "vegetation"]
        reference = ["water", "soil", "water", "impervious"]
        m = confusion_matrix(predicted, reference)
        assert m.counts.tolist() == [[1, 1], [1, 1]]
        assert m.total == 4

    def test_boolean_and_string_labels_mix(self):
        m = confusion_matrix([True, False, 1, 0], ["water", "soil", "water", "water"])
        assert m.counts.tolist() == [[1, 1], [0, 2]]

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
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
        with pytest.raises(EvalError):
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
