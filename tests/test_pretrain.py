import csv
import math

import numpy as np
import pytest

from conftest import random_kcl_setup, unit_rows
from oracles import knn_same_class
from kcod.data import gen_blobs
from kcod.encoder import EncoderModel, forward_batch
from kcod.errors import DataError, EmptyObjectiveError, ParameterError
from kcod.numerics import finite_diff_grad_nd, relative_error
from kcod.pretrain import (
    ContrastQueue,
    KclConfig,
    ce_loss_batch,
    kcl_loss,
    pretrain,
    refresh_queue,
    write_pretrain_log,
)


def scl_reference(f, labels, queue, tau):
    """Plain-loop supervised-contrastive oracle over the full same-class set."""
    total = 0.0
    for i in range(f.shape[0]):
        same = [j for j in range(len(queue)) if queue.labels[j] == labels[i]]
        negs = [j for j in range(len(queue)) if queue.labels[j] != labels[i]]
        if not same:
            continue
        for j in same:
            s_pos = float(queue.features[j] @ f[i]) / tau
            s_all = [s_pos] + [float(queue.features[k] @ f[i]) / tau for k in negs]
            m = max(s_all)
            denom = sum(math.exp(s - m) for s in s_all)
            total += -(1.0 / len(same)) * (s_pos - m - math.log(denom))
    return total


class TestQueue:
    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            ContrastQueue(capacity=0, dim=4)

    def test_push_validates_shapes(self):
        q = ContrastQueue(capacity=8, dim=4)
        with pytest.raises(ParameterError):
            q.push(np.ones((2, 3)), np.zeros(2, dtype=np.int64))
        with pytest.raises(ParameterError):
            q.push(np.ones((2, 4)), np.zeros(3, dtype=np.int64))

    def test_fifo_eviction(self):
        q = ContrastQueue(capacity=4, dim=2)
        q.push(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]))
        q.push(np.arange(10.0, 14.0).reshape(2, 2), np.array([3, 4]))
        assert len(q) == 4
        assert q.labels.tolist() == [1, 2, 3, 4]
        assert q.features[0].tolist() == [2.0, 3.0]


class TestRefreshQueue:
    def make(self, seed=0):
        model = EncoderModel.init(input_dim=4, cluster_count=2, ind_class_count=3, seed=seed)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30).astype(np.int64)
        return model, x, y

    def test_batch_of_four_fills_forty(self):
        model, x, y = self.make()
        q = ContrastQueue(capacity=400, dim=model.instance_dim)
        refresh_queue(q, model, y[:4], x, y, np.random.default_rng(0))
        assert len(q) == 40

    def test_capacity_respected_and_oldest_evicted(self):
        model, x, y = self.make()
        q = ContrastQueue(capacity=40, dim=model.instance_dim)
        refresh_queue(q, model, y[:4], x, y, np.random.default_rng(0))
        first = q.features.copy()
        refresh_queue(q, model, y[4:8], x, y, np.random.default_rng(1))
        assert len(q) == 40
        assert not np.array_equal(q.features, first)

    def test_deterministic_under_seed(self):
        model, x, y = self.make()
        qa = ContrastQueue(capacity=400, dim=model.instance_dim)
        qb = ContrastQueue(capacity=400, dim=model.instance_dim)
        refresh_queue(qa, model, y[:6], x, y, np.random.default_rng(7))
        refresh_queue(qb, model, y[:6], x, y, np.random.default_rng(7))
        assert np.array_equal(qa.features, qb.features)
        assert np.array_equal(qa.labels, qb.labels)

    def test_entries_are_unit_features_of_current_model(self):
        model, x, y = self.make()
        q = ContrastQueue(capacity=400, dim=model.instance_dim)
        refresh_queue(q, model, y[:5], x, y, np.random.default_rng(3))
        assert np.allclose(np.linalg.norm(q.features, axis=1), 1.0, atol=1e-9)
        assert set(q.labels.tolist()) <= set(y[:5].tolist())

    def test_missing_class_is_a_data_error(self):
        model, x, y = self.make()
        q = ContrastQueue(capacity=400, dim=model.instance_dim)
        with pytest.raises(DataError):
            refresh_queue(q, model, np.array([99]), x, y, np.random.default_rng(0))


class TestKnnSameClass:
    def build_queue(self, features, labels):
        q = ContrastQueue(capacity=len(labels), dim=features.shape[1])
        q.push(features, np.asarray(labels, dtype=np.int64))
        return q

    def test_direct_ordering(self):
        # same-class sims 0.9, 0.5, -0.2 plus one entry of another class
        anchor = np.array([1.0, 0.0])
        rows = np.array(
            [
                [0.9, math.sqrt(1 - 0.81)],
                [0.5, math.sqrt(0.75)],
                [-0.2, math.sqrt(0.96)],
                [0.0, 1.0],
            ]
        )
        q = self.build_queue(rows, [0, 0, 0, 1])
        picked = knn_same_class(anchor, q, 0, 2)
        assert picked.tolist() == [0, 1]

    def test_saturation_returns_all(self):
        rng = np.random.default_rng(0)
        q = self.build_queue(unit_rows(rng, 6, 3), [0, 0, 1, 0, 1, 1])
        picked = knn_same_class(np.array([1.0, 0.0, 0.0]), q, 0, 10)
        assert sorted(picked.tolist()) == [0, 1, 3]

    def test_no_same_class_is_skip_signal(self):
        rng = np.random.default_rng(1)
        q = self.build_queue(unit_rows(rng, 4, 3), [1, 1, 2, 2])
        assert knn_same_class(np.array([1.0, 0.0, 0.0]), q, 0, 3).size == 0

    def test_matches_brute_force_on_fifty(self):
        rng = np.random.default_rng(2)
        feats = unit_rows(rng, 50, 5)
        labels = rng.integers(0, 3, size=50)
        q = self.build_queue(feats, labels)
        anchor = unit_rows(rng, 1, 5)[0]
        picked = knn_same_class(anchor, q, 1, 5)

        same = [j for j in range(50) if labels[j] == 1]
        sims = [(float(feats[j] @ anchor), -j) for j in same]
        expected = [-j for _, j in sorted(sims, reverse=True)[:5]]
        assert picked.tolist() == expected

    def test_k_validated(self):
        q = self.build_queue(np.eye(2), [0, 0])
        with pytest.raises(ParameterError):
            knn_same_class(np.array([1.0, 0.0]), q, 0, 0)


class TestKclLoss:
    def queue_of(self, features, labels):
        q = ContrastQueue(capacity=len(labels), dim=np.asarray(features).shape[1])
        q.push(np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64))
        return q

    def test_one_positive_no_negatives_is_zero(self):
        q = self.queue_of([[1.0, 0.0]], [0])
        loss, d_f = kcl_loss(np.array([[1.0, 0.0]]), np.array([0]), q, KclConfig(k=1, tau=1.0))
        assert loss == 0.0
        assert np.allclose(d_f, 0.0)

    def test_hand_value_one_pos_one_neg(self):
        q = self.queue_of([[1.0, 0.0], [-1.0, 0.0]], [0, 1])
        loss, _ = kcl_loss(np.array([[1.0, 0.0]]), np.array([0]), q, KclConfig(k=1, tau=1.0))
        assert abs(loss - math.log(1.0 + math.exp(-2.0))) < 1e-12
        assert abs(loss - 0.126928) < 1e-6

    def test_saturated_k_equals_scl(self):
        rng = np.random.default_rng(3)
        f = unit_rows(rng, 5, 4)
        labels = np.array([0, 1, 0, 2, 1])
        q = self.queue_of(unit_rows(rng, 20, 4), rng.integers(0, 3, size=20))
        config = KclConfig(k=20, tau=0.5)
        loss, _ = kcl_loss(f, labels, q, config)
        assert abs(loss - scl_reference(f, labels, q, 0.5)) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_gradients_match_finite_diff(self, seed):
        f, labels, queue = random_kcl_setup(seed)
        config = KclConfig(k=3, tau=0.5)
        _, d_f = kcl_loss(f, labels, queue, config)

        def loss_of(m):
            return kcl_loss(m, labels, queue, config)[0]

        numeric = finite_diff_grad_nd(loss_of, f)
        assert relative_error(d_f, numeric) < 1e-4

    def test_loss_nonnegative(self):
        for seed in range(8):
            f, labels, queue = random_kcl_setup(seed + 50)
            loss, _ = kcl_loss(f, labels, queue, KclConfig(k=2, tau=0.7))
            assert loss >= 0.0

    def test_empty_queue_rejected(self):
        q = ContrastQueue(capacity=4, dim=2)
        with pytest.raises(EmptyObjectiveError):
            kcl_loss(np.array([[1.0, 0.0]]), np.array([0]), q, KclConfig())

    def test_no_contributing_anchor_rejected(self):
        q = self.queue_of([[1.0, 0.0]], [5])
        with pytest.raises(EmptyObjectiveError):
            kcl_loss(np.array([[1.0, 0.0]]), np.array([0]), q, KclConfig())

    def test_anchor_without_same_class_is_skipped(self):
        q = self.queue_of([[1.0, 0.0], [0.0, 1.0]], [0, 2])
        f = np.array([[0.6, 0.8], [0.8, 0.6]])
        both, d_both = kcl_loss(f, np.array([0, 1]), q, KclConfig(k=1, tau=0.5))
        solo, d_solo = kcl_loss(f[:1], np.array([0]), q, KclConfig(k=1, tau=0.5))
        assert abs(both - solo) < 1e-15
        assert np.allclose(d_both[0], d_solo[0])
        assert np.allclose(d_both[1], 0.0)

    def test_config_validated(self):
        with pytest.raises(ParameterError):
            KclConfig(k=0)
        with pytest.raises(ParameterError):
            KclConfig(tau=0.0)


def ce_one(logits, label):
    """ce_loss_batch on a single row: (loss, gradient row)."""
    loss, grad = ce_loss_batch(np.asarray(logits, dtype=np.float64)[None, :], np.array([label]))
    return loss, grad[0]


class TestCeLoss:
    def test_saturated_correct_prediction(self):
        logits = np.array([50.0, 0.0, 0.0])
        loss, _ = ce_one(logits, 0)
        assert loss < 1e-9

    def test_uniform_logits(self):
        loss, _ = ce_one(np.zeros(7), 3)
        assert abs(loss - math.log(7)) < 1e-12

    def test_two_logit_hand_value(self):
        loss, _ = ce_one(np.array([1.0, 0.0]), 0)
        assert abs(loss - math.log(1.0 + math.exp(-1.0))) < 1e-12
        assert abs(loss - 0.313262) < 1e-6

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([0.3, -1.0, 2.0])
        _, grad = ce_one(logits, 2)
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        expected = p.copy()
        expected[2] -= 1.0
        assert np.allclose(grad, expected, atol=1e-12)

        numeric = finite_diff_grad_nd(lambda v: ce_one(v, 2)[0], logits)
        assert relative_error(grad, numeric) < 1e-6

    def test_label_range_checked(self):
        with pytest.raises(ParameterError):
            ce_one(np.zeros(3), 3)
        with pytest.raises(ParameterError):
            ce_one(np.zeros(3), -1)

    def test_batch_sums_singles(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        total, grads = ce_loss_batch(logits, labels)
        singles = [ce_one(logits[i], int(labels[i])) for i in range(5)]
        assert abs(total - sum(s[0] for s in singles)) < 1e-12
        for i in range(5):
            assert np.allclose(grads[i], singles[i][1], atol=1e-12)


class TestPretrainLoop:
    def two_blob_setup(self, seed=0):
        ds = gen_blobs(classes=2, per_class=25, dim=4, center_scale=6.0, noise_sigma=0.5, seed=seed)
        model = EncoderModel.init(
            input_dim=4,
            cluster_count=2,
            ind_class_count=2,
            hidden_dim=16,
            feature_dim=8,
            instance_dim=6,
            seed=seed,
        )
        return model, ds

    def test_zero_epochs_leaves_model_unchanged(self):
        model, ds = self.two_blob_setup()
        before = {k: v.copy() for k, v in model.params.items()}
        trained, log = pretrain(model, ds, epochs=0, batch_size=8, config=KclConfig(), seed=0)
        assert log == []
        for k in before:
            assert np.array_equal(trained.params[k], before[k])

    def test_deterministic_under_seed(self):
        m1, ds = self.two_blob_setup()
        m2 = m1.copy()
        _, log1 = pretrain(m1, ds, epochs=3, batch_size=8, config=KclConfig(), seed=11)
        _, log2 = pretrain(m2, ds, epochs=3, batch_size=8, config=KclConfig(), seed=11)
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])
        assert log1 == log2

    def test_separable_classes_are_fit(self):
        model, ds = self.two_blob_setup(seed=1)
        _, log = pretrain(model, ds, epochs=50, batch_size=16, config=KclConfig(), seed=1)
        assert log[-1].ce_loss < 0.05

    def test_loss_log_totals(self):
        model, ds = self.two_blob_setup(seed=2)
        config = KclConfig(ce_weight=0.5)
        _, log = pretrain(model, ds, epochs=2, batch_size=16, config=config, seed=2)
        assert len(log) == 2
        for rec in log:
            assert abs(rec.total_loss - (0.5 * rec.ce_loss + rec.kcl_loss)) < 1e-12

    def test_validations(self):
        model, ds = self.two_blob_setup()
        with pytest.raises(ParameterError):
            pretrain(model, ds, epochs=-1, batch_size=8, config=KclConfig(), seed=0)
        with pytest.raises(ParameterError):
            pretrain(model, ds, epochs=1, batch_size=0, config=KclConfig(), seed=0)
        solo = ds.subset(np.where(ds.labels == 0)[0])
        with pytest.raises(DataError):
            pretrain(model, solo, epochs=1, batch_size=8, config=KclConfig(), seed=0)
        wide = EncoderModel.init(input_dim=4, cluster_count=2, ind_class_count=5)
        with pytest.raises(ParameterError):
            pretrain(wide, ds, epochs=1, batch_size=8, config=KclConfig(), seed=0)

    def test_log_csv_round_trip(self, tmp_path):
        model, ds = self.two_blob_setup(seed=3)
        _, log = pretrain(model, ds, epochs=2, batch_size=16, config=KclConfig(), seed=3)
        path = str(tmp_path / "log.csv")
        write_pretrain_log(log, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["epoch", "ce_loss", "kcl_loss", "total_loss"]
        assert len(rows) == 3
        for rec, row in zip(log, rows[1:]):
            assert int(row[0]) == rec.epoch
            assert float(row[1]) == rec.ce_loss
            assert float(row[3]) == rec.total_loss
