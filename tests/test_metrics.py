import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import unit_rows
from kcod.errors import AlignmentError, MetricUndefinedError, ParameterError
from kcod.metrics import (
    Labeling,
    align,
    ari,
    clustering_accuracy,
    compactness_ratio,
    confusion_matrix,
    contingency,
    evaluate,
    intra_inter_distances,
    nmi,
    pairwise_distances,
    silhouette,
    silhouette_gram,
    write_confusion_csv,
    write_report,
)


def brute_force_acc(pred, truth):
    """Exhaustive maximum over injective cluster-to-class mappings."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    p_vals = sorted(set(pred.tolist()))
    t_vals = sorted(set(truth.tolist()))
    slots = t_vals + [None] * max(0, len(p_vals) - len(t_vals))
    best = 0
    for assign_to in itertools.permutations(slots, len(p_vals)):
        matched = 0
        for p, t in zip(p_vals, assign_to):
            if t is None:
                continue
            matched += int(np.sum((pred == p) & (truth == t)))
        best = max(best, matched)
    return best / pred.size


def brute_force_silhouette(features, labels):
    """Independent per-point silhouette with explicit loops."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    scores = []
    for i in range(n):
        dist = np.array([np.sqrt(np.sum((features[j] - features[i]) ** 2)) for j in range(n)])
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            scores.append(0.0)
            continue
        a = np.mean(np.array([dist[j] for j in own]))
        b_vals = []
        for c in sorted(set(labels.tolist())):
            if c == labels[i]:
                continue
            member = [j for j in range(n) if labels[j] == c]
            b_vals.append(np.mean(np.array([dist[j] for j in member])))
        b = np.min(np.array(b_vals))
        top = b - a
        bottom = max(a, b)
        scores.append(0.0 if bottom == 0.0 else float(top / bottom))
    return float(np.mean(np.array(scores)))


class TestLabelingAndAlign:
    def test_labeling_validated(self):
        with pytest.raises(ParameterError):
            Labeling(ids=["a", "b"], labels=[0])
        with pytest.raises(ParameterError):
            Labeling(ids=["a"], labels=[-1])

    def test_align_reorders_by_truth_ids(self):
        pred = Labeling(ids=["c", "a", "b"], labels=[2, 0, 1])
        truth = Labeling(ids=["a", "b", "c"], labels=[5, 6, 7])
        p, t = align(pred, truth)
        assert p.tolist() == [0, 1, 2]
        assert t.tolist() == [5, 6, 7]

    def test_align_ignores_extra_predictions(self):
        pred = Labeling(ids=["a", "b", "zzz"], labels=[1, 0, 9])
        truth = Labeling(ids=["a", "b"], labels=[0, 1])
        p, t = align(pred, truth)
        assert p.tolist() == [1, 0]

    def test_missing_id_raises(self):
        pred = Labeling(ids=["a"], labels=[0])
        truth = Labeling(ids=["a", "b"], labels=[0, 1])
        with pytest.raises(AlignmentError) as err:
            align(pred, truth)
        assert "b" in str(err.value)


class TestAccuracy:
    def test_identity_and_relabeling(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert clustering_accuracy(truth, truth) == 1.0
        relabeled = np.array([4, 4, 0, 0, 7, 7])
        assert clustering_accuracy(relabeled, truth) == 1.0

    def test_hand_case(self):
        truth = np.array([0, 0, 1, 1, 2])
        pred = np.array([2, 2, 0, 0, 0])
        assert clustering_accuracy(pred, truth) == pytest.approx(0.8)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            clustering_accuracy(np.array([0, 1]), np.array([0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        pred = rng.integers(0, rng.integers(2, 6), size=n)
        truth = rng.integers(0, rng.integers(2, 6), size=n)
        assert clustering_accuracy(pred, truth) == pytest.approx(brute_force_acc(pred, truth))

    def test_more_predicted_than_true_clusters(self):
        truth = np.array([0, 0, 0, 1, 1, 1])
        pred = np.array([0, 1, 2, 3, 4, 5])
        assert clustering_accuracy(pred, truth) == pytest.approx(brute_force_acc(pred, truth))


class TestAri:
    def test_identical_and_relabeled(self):
        truth = np.array([0, 0, 1, 1, 2])
        assert ari(truth, truth) == 1.0
        assert ari(np.array([5, 5, 3, 3, 9]), truth) == 1.0

    def test_hand_negative_value(self):
        assert ari(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == pytest.approx(-0.5)

    def test_too_few_points(self):
        with pytest.raises(MetricUndefinedError):
            ari(np.array([0]), np.array([0]))

    def test_single_cluster_both_sides(self):
        assert ari(np.zeros(5, dtype=int), np.zeros(5, dtype=int)) == 1.0


class TestNmi:
    def test_identical_partitions(self):
        truth = np.array([0, 0, 1, 1, 2])
        assert nmi(truth, truth) == pytest.approx(1.0)

    def test_zero_information_hand_case(self):
        assert nmi(np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])) == pytest.approx(0.0)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 5, size=10_000)
        truth = rng.integers(0, 7, size=10_000)
        assert nmi(pred, truth) < 0.05

    def test_single_cluster_conventions(self):
        ones = np.zeros(6, dtype=int)
        varied = np.array([0, 1, 2, 0, 1, 2])
        assert nmi(ones, ones) == 1.0
        assert nmi(ones, varied) == 0.0
        assert nmi(varied, ones) == 0.0

    def test_arithmetic_variant_and_validation(self):
        pred = np.array([0, 0, 1, 2])
        truth = np.array([0, 1, 1, 2])
        g = nmi(pred, truth, average="geometric")
        a = nmi(pred, truth, average="arithmetic")
        assert 0.0 <= a <= g <= 1.0
        with pytest.raises(ParameterError):
            nmi(pred, truth, average="max")

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        assert 0.0 <= nmi(pred, truth) <= 1.0


class TestPermutationInvariance:
    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_relabeling_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        perm = rng.permutation(4)
        shuffled = perm[pred]
        assert clustering_accuracy(shuffled, truth) == pytest.approx(clustering_accuracy(pred, truth))
        assert ari(shuffled, truth) == pytest.approx(ari(pred, truth))
        assert nmi(shuffled, truth) == pytest.approx(nmi(pred, truth))


class TestSilhouette:
    def test_two_rectangle_clusters_hand_value(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        m = (10.0 + math.sqrt(101.0)) / 2.0
        expected = (m - 1.0) / m
        sc = silhouette(pts, labels)
        assert abs(sc - expected) < 1e-12
        assert abs(sc - 0.90025) < 1e-4

    def test_all_points_coincident(self):
        pts = np.zeros((4, 3))
        labels = np.array([0, 0, 1, 1])
        assert silhouette(pts, labels) == 0.0

    def test_singleton_cluster_scores_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
        labels = np.array([0, 0, 1])
        sc = silhouette(pts, labels)
        assert sc == pytest.approx(brute_force_silhouette(pts, labels))

    def test_single_cluster_undefined(self):
        with pytest.raises(MetricUndefinedError):
            silhouette(np.ones((4, 2)), np.zeros(4, dtype=int))

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(100, 5))
        labels = rng.integers(0, 4, size=100)
        assert silhouette(pts, labels) == brute_force_silhouette(pts, labels)

    def test_bounded(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            pts = np.random.default_rng(seed).normal(size=(30, 3))
            labels = rng.integers(0, 3, size=30)
            if len(set(labels.tolist())) < 2:
                continue
            assert -1.0 <= silhouette(pts, labels) <= 1.0

    def test_pairwise_distance_helper(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distances(pts)
        assert d[0, 1] == 5.0 and d[1, 0] == 5.0 and d[0, 0] == 0.0


class TestSilhouetteMemory:
    """Both scores work in tiles, so memory grows with N, not N^2."""

    @pytest.mark.parametrize("score", [silhouette, silhouette_gram])
    def test_peak_far_below_the_distance_matrix(self, score):
        n = 4000
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(n, 16))
        labels = rng.integers(0, 5, size=n)
        tracemalloc.start()
        try:
            score(pts, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 16  # 8 MB, against 128 MB for the full matrix


class TestIntraInter:
    def test_samples_on_centroid_direction(self):
        # every sample is a positive multiple of its class centroid: intra 0
        centers = np.eye(3)
        feats = np.vstack([centers[c] * s for c in range(3) for s in (1.0, 2.0)])
        labels = np.repeat(np.arange(3), 2)
        intra, inter = intra_inter_distances(feats, labels)
        assert abs(intra) < 1e-12
        assert abs(inter - 1.0) < 1e-12  # orthogonal centers

    def test_three_nearest_rule_kicks_in_at_five_classes(self):
        # 4 orthogonal centers plus one aligned close to center 0
        centers = np.vstack([np.eye(4), np.array([[0.999, 0.04468, 0.0, 0.0]])])
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        feats = np.repeat(centers, 2, axis=0)
        labels = np.repeat(np.arange(5), 2)
        _, inter = intra_inter_distances(feats, labels)
        # each center averages over its 3 nearest, not all 4 others
        full_mean_bound = 1.0  # orthogonal-only average
        assert inter < full_mean_bound

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError):
            intra_inter_distances(np.ones((3, 2)), np.zeros(3, dtype=int))


class TestCompactness:
    def test_collapsed_class_gives_infinity(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        labels = np.array([0, 0, 1, 1])
        assert compactness_ratio(feats, labels, 0) == math.inf

    def test_symmetric_classes_equal_ratio(self):
        theta = 0.3
        rows = []
        labels = []
        for c in range(3):
            center = np.eye(3)[c]
            perp = np.eye(3)[(c + 1) % 3]
            rows.append(math.cos(theta) * center + math.sin(theta) * perp)
            rows.append(math.cos(theta) * center - math.sin(theta) * perp)
            labels += [c, c]
        feats = np.array(rows)
        labels = np.array(labels)
        ratios = [compactness_ratio(feats, labels, c) for c in range(3)]
        assert ratios[0] == pytest.approx(ratios[1])
        assert ratios[1] == pytest.approx(ratios[2])

    def test_unknown_class_rejected(self):
        feats = unit_rows(np.random.default_rng(0), 4, 3)
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(ParameterError):
            compactness_ratio(feats, labels, 7)


class TestConfusion:
    def test_identity_prediction(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        result = confusion_matrix(truth, truth)
        assert np.allclose(np.diag(result.percent), 100.0)
        assert np.allclose(result.percent.sum(axis=1), 100.0, atol=1e-9)

    def test_row_sums_and_acc_consistency(self):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 4, size=60)
        pred = rng.integers(0, 5, size=60)
        result = confusion_matrix(pred, truth)
        assert np.allclose(result.percent.sum(axis=1), 100.0, atol=1e-9)
        diag = sum(
            result.counts[i, i] for i in range(min(result.counts.shape))
        )
        assert diag / 60.0 == pytest.approx(clustering_accuracy(pred, truth))

    def test_extra_cluster_column_labeled(self):
        truth = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 2, 3])
        result = confusion_matrix(pred, truth)
        assert any(str(c).startswith("extra_") for c in result.col_labels)


class TestContingency:
    def test_counts(self):
        pred = np.array([0, 0, 1, 1, 1])
        truth = np.array([0, 1, 1, 1, 0])
        w, p_vals, t_vals = contingency(pred, truth)
        assert w.sum() == 5
        assert w[0, 0] == 1 and w[0, 1] == 1 and w[1, 1] == 2 and w[1, 0] == 1


class TestEvaluateAndReports:
    def build(self):
        rng = np.random.default_rng(5)
        feats = np.vstack(
            [rng.normal(size=(10, 4)) + 6 * np.eye(4)[c] for c in range(3)]
        )
        truth = np.repeat(np.arange(3), 10)
        pred = truth.copy()
        pred[0] = 2
        return feats, pred, truth

    def test_report_fields_and_bounds(self):
        feats, pred, truth = self.build()
        report = evaluate(feats, pred, truth)
        assert 0.0 <= report.acc <= 1.0
        assert -1.0 <= report.ari <= 1.0
        assert 0.0 <= report.nmi <= 1.0
        assert -1.0 <= report.sc <= 1.0
        assert report.intra_dist >= 0.0
        assert report.inter_dist >= 0.0
        assert set(report.per_class_compactness) == {0, 1, 2}
        assert set(report.to_dict()["per_class_compactness"]) == {"0", "1", "2"}

    def test_degenerate_prediction_gives_nan_sc(self):
        feats, _, truth = self.build()
        report = evaluate(feats, np.zeros_like(truth), truth)
        assert math.isnan(report.sc)

    def test_write_report_round_trips(self, tmp_path):
        feats, pred, truth = self.build()
        report = evaluate(feats, pred, truth)
        path = str(tmp_path / "report.json")
        write_report(report, path)
        doc = json.load(open(path))
        assert doc["acc"] == report.acc
        assert doc["nmi"] == report.nmi
        assert "confusion" in doc

    def test_write_confusion_csv(self, tmp_path):
        feats, pred, truth = self.build()
        result = confusion_matrix(pred, truth)
        path = str(tmp_path / "confusion.csv")
        write_confusion_csv(result, path)
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 1 + len(result.row_classes)
        header = lines[0].split(",")
        assert header[0] == "true_class"
