import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prob_rows, random_cluster_state, random_kcc_state, unit_rows
from oracles import build_hard_negative_set, filter_false_negatives, knn_hard_negatives
from kcod.cluster import (
    CLUSTER_MODES,
    ClusterBatchState,
    KccConfig,
    assign_batch,
    cluster_level_loss,
    cluster_train,
    entropy_regularizer,
    estimate_k,
    instance_level_loss,
    kcc_loss,
    kmeans,
    survivor_count,
    write_cluster_log,
)
from kcod.data import gen_blobs
from kcod.encoder import EncoderModel, forward_batch
from kcod.errors import DegenerateInputError, ParameterError
from kcod.numerics import finite_diff_grad_nd, relative_error


def one_hot_state(n=2, c=2, dim=4):
    """Both views identical; row i predicted into cluster i mod c; orthogonal f."""
    g = np.zeros((n, c))
    for i in range(n):
        g[i, i % c] = 1.0
    f_half = np.eye(max(n, dim))[:n]
    # view i and its partner share a feature vector
    f_views = np.vstack([f_half, f_half])
    return ClusterBatchState(f_views=f_views, g_a=g.copy(), g_b=g.copy())


class TestBatchState:
    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            ClusterBatchState(f_views=np.ones((3, 4)), g_a=np.ones((2, 2)) / 2, g_b=np.ones((2, 2)) / 2)
        with pytest.raises(ParameterError):
            ClusterBatchState(f_views=np.ones((4, 4)), g_a=np.ones((2, 2)) / 2, g_b=np.ones((2, 3)) / 3)

    def test_partner_wraps(self):
        state = random_cluster_state(0, n=3)
        assert state.partner(0) == 3
        assert state.partner(3) == 0
        assert state.partner(5) == 2

    def test_columns_layout(self):
        state = random_cluster_state(1, n=4, c=3)
        cols = state.columns()
        assert cols.shape == (6, 4)
        assert np.array_equal(cols[0], state.g_a[:, 0])
        assert np.array_equal(cols[3], state.g_b[:, 0])
        assert np.array_equal(cols[5], state.g_b[:, 2])


class TestClusterLevelLoss:
    def test_orthogonal_columns_hand_value(self):
        # two one-hot columns per view, identical views: positive sim 1,
        # two zero negatives per anchor under tau 1
        state = one_hot_state(n=2, c=2)
        loss, d_a, d_b = cluster_level_loss(state, tau_clu=1.0)
        expected = math.log(1.0 + 2.0 / math.e)
        assert abs(loss - expected) < 1e-12
        assert abs(loss - 0.5514447139320511) < 1e-12
        assert d_a.shape == state.g_a.shape and d_b.shape == state.g_b.shape

    def test_identical_columns_uniform_denominator(self):
        c, n = 3, 4
        g = np.full((n, c), 1.0 / c)
        state = ClusterBatchState(
            f_views=unit_rows(np.random.default_rng(0), 2 * n, 5),
            g_a=g.copy(),
            g_b=g.copy(),
        )
        loss, _, _ = cluster_level_loss(state, tau_clu=1.0)
        assert abs(loss - math.log(2 * c - 1)) < 1e-12

    def test_needs_two_clusters(self):
        state = random_cluster_state(2, n=3, c=1)
        with pytest.raises(ParameterError):
            cluster_level_loss(state, tau_clu=1.0)

    def test_zero_column_rejected(self):
        g = np.zeros((2, 2))
        g[:, 0] = 1.0
        state = ClusterBatchState(
            f_views=unit_rows(np.random.default_rng(1), 4, 3), g_a=g.copy(), g_b=g.copy()
        )
        with pytest.raises(DegenerateInputError):
            cluster_level_loss(state, tau_clu=1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_diff(self, seed):
        state = random_cluster_state(seed, n=4, c=3)
        loss, d_a, d_b = cluster_level_loss(state, tau_clu=1.0)
        assert loss >= 0.0

        def of_a(g):
            trial = ClusterBatchState(f_views=state.f_views, g_a=g, g_b=state.g_b)
            return cluster_level_loss(trial, tau_clu=1.0)[0]

        def of_b(g):
            trial = ClusterBatchState(f_views=state.f_views, g_a=state.g_a, g_b=g)
            return cluster_level_loss(trial, tau_clu=1.0)[0]

        assert relative_error(d_a, finite_diff_grad_nd(of_a, state.g_a)) < 1e-4
        assert relative_error(d_b, finite_diff_grad_nd(of_b, state.g_b)) < 1e-4


class TestInstanceLevelLoss:
    def test_orthogonal_pairs_hand_value(self):
        state = one_hot_state(n=2, c=2)
        loss, d_f = instance_level_loss(state, tau=1.0)
        assert abs(loss - math.log(1.0 + 2.0 / math.e)) < 1e-12
        assert d_f.shape == state.f_views.shape

    def test_identical_views_uniform_denominator(self):
        n = 3
        f = np.tile(np.array([1.0, 0.0, 0.0]), (2 * n, 1))
        state = ClusterBatchState(f_views=f, g_a=prob_rows(np.random.default_rng(0), n, 2), g_b=prob_rows(np.random.default_rng(1), n, 2))
        loss, _ = instance_level_loss(state, tau=1.0)
        assert abs(loss - math.log(2 * n - 1)) < 1e-12

    def test_needs_two_samples(self):
        state = random_cluster_state(3, n=1, c=2)
        with pytest.raises(ParameterError):
            instance_level_loss(state, tau=0.5)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradient_matches_finite_diff(self, seed):
        state = random_cluster_state(seed + 10, n=4, c=3)
        loss, d_f = instance_level_loss(state, tau=0.5)
        assert loss >= 0.0

        def of_f(f):
            trial = ClusterBatchState(f_views=f, g_a=state.g_a, g_b=state.g_b)
            return instance_level_loss(trial, tau=0.5)[0]

        assert relative_error(d_f, finite_diff_grad_nd(of_f, state.f_views)) < 1e-4


class TestFalseNegativeFilter:
    def test_direct_rule(self):
        g_all = np.array([[1.0, 0.0], [0.9, 0.1], [0.65, 0.35], [0.3, 0.7]])
        assert filter_false_negatives(0, g_all, 0.7).tolist() == [2, 3]

    def test_vacuous_threshold_keeps_all_others(self):
        g_all = prob_rows(np.random.default_rng(0), 6, 3)
        candidates = filter_false_negatives(2, g_all, 0.999)
        assert candidates.tolist() == [0, 1, 3, 4, 5]

    def test_one_hot_keeps_other_clusters_only(self):
        g_all = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        for t in (0.1, 0.5, 0.9):
            assert filter_false_negatives(0, g_all, t).tolist() == [2, 4]

    def test_self_never_a_candidate(self):
        # a flat probability row has self-similarity below the threshold
        g_all = np.full((4, 5), 0.2)
        candidates = filter_false_negatives(1, g_all, 0.7)
        assert 1 not in candidates.tolist()
        assert candidates.tolist() == [0, 2, 3]


class TestHardNegativeKnn:
    def test_hand_ordering(self):
        anchor = np.array([1.0, 0.0])
        feats = np.array(
            [
                [0.0, 1.0],
                [0.8, 0.6],
                [0.1, math.sqrt(0.99)],
                [-0.5, math.sqrt(0.75)],
            ]
        )
        picked = knn_hard_negatives(anchor, feats, np.array([1, 2, 3]), 1)
        assert picked.tolist() == [1]

    def test_saturation(self):
        rng = np.random.default_rng(0)
        feats = unit_rows(rng, 6, 4)
        picked = knn_hard_negatives(feats[0], feats, np.array([2, 4, 5]), 99)
        assert sorted(picked.tolist()) == [2, 4, 5]

    def test_matches_brute_force_on_hundred(self):
        rng = np.random.default_rng(1)
        feats = unit_rows(rng, 101, 6)
        anchor = feats[0]
        candidates = np.arange(1, 101)
        picked = knn_hard_negatives(anchor, feats, candidates, 10)
        sims = [(float(feats[j] @ anchor), -j) for j in candidates]
        expected = [-j for _, j in sorted(sims, reverse=True)[:10]]
        assert picked.tolist() == expected

    def test_empty_candidates(self):
        feats = unit_rows(np.random.default_rng(2), 4, 3)
        assert knn_hard_negatives(feats[0], feats, np.array([], dtype=np.int64), 5).size == 0


class TestHardNegativeSet:
    def test_members_and_invariants(self):
        config = KccConfig(threshold=0.7, k_neg=2, tau=0.5)
        state = one_hot_state(n=3, c=2)
        hs = build_hard_negative_set(state, 0, config)
        assert hs.anchor == 0
        assert hs.positive == 3
        assert hs.anchor not in hs.negatives
        assert hs.positive not in hs.negatives
        assert len(hs.negatives) <= config.k_neg
        assert set(hs.members()) == set(hs.negatives.tolist()) | {hs.positive}

    def test_validation(self):
        with pytest.raises(ParameterError):
            KccConfig(threshold=1.0)
        with pytest.raises(ParameterError):
            KccConfig(threshold=0.0)
        with pytest.raises(ParameterError):
            KccConfig(k_neg=0)
        with pytest.raises(ParameterError):
            KccConfig(tau=0.0)


class TestKccLoss:
    def test_all_filtered_is_zero(self):
        # every view predicted into the same cluster: no candidate survives
        n, c = 3, 2
        g = np.zeros((n, c))
        g[:, 0] = 1.0
        state = ClusterBatchState(
            f_views=unit_rows(np.random.default_rng(0), 2 * n, 4), g_a=g.copy(), g_b=g.copy()
        )
        loss, d_f = kcc_loss(state, KccConfig(threshold=0.7, k_neg=5, tau=1.0))
        assert loss == 0.0
        assert np.allclose(d_f, 0.0)

    def test_single_negative_hand_value(self):
        # orthogonal features, distinct one-hot clusters, one mined negative each
        state = one_hot_state(n=2, c=2)
        loss, _ = kcc_loss(state, KccConfig(threshold=0.7, k_neg=1, tau=1.0))
        assert abs(loss - math.log(1.0 + math.exp(-1.0))) < 1e-12
        assert abs(loss - 0.313262) < 1e-6

    def test_degrades_to_instance_loss_when_filter_is_vacuous(self):
        state = random_cluster_state(4, n=5, c=3)
        g_all = state.g_all()
        dots = g_all @ g_all.T
        np.fill_diagonal(dots, 0.0)
        assert dots.max() < 0.999  # construction sanity: the filter passes everything
        config = KccConfig(threshold=0.999, k_neg=2 * 5 - 2, tau=0.5)
        kcc_val, kcc_grad = kcc_loss(state, config)
        ins_val, ins_grad = instance_level_loss(state, tau=0.5)
        assert abs(kcc_val - ins_val) < 1e-12
        assert np.allclose(kcc_grad, ins_grad, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_diff(self, seed):
        config = KccConfig(threshold=0.7, k_neg=4, tau=0.5)
        state = random_kcc_state(seed, config, n=5, dim=6, c=3)
        loss, d_f = kcc_loss(state, config)
        assert loss >= 0.0

        def of_f(f):
            trial = ClusterBatchState(f_views=f, g_a=state.g_a, g_b=state.g_b)
            return kcc_loss(trial, config)[0]

        assert relative_error(d_f, finite_diff_grad_nd(of_f, state.f_views)) < 1e-4


class TestEntropyRegularizer:
    def test_balanced_is_zero(self):
        g = np.eye(4)[np.array([0, 1, 2, 3, 0, 1, 2, 3])]
        penalty, _ = entropy_regularizer(g)
        assert abs(penalty) < 1e-12

    def test_collapsed_is_log_c(self):
        g = np.zeros((6, 4))
        g[:, 2] = 1.0
        penalty, _ = entropy_regularizer(g)
        assert abs(penalty - math.log(4)) < 1e-12
        assert abs(penalty - 1.386294) < 1e-6

    def test_penalty_bounds(self):
        for seed in range(5):
            g = prob_rows(np.random.default_rng(seed), 7, 3)
            penalty, _ = entropy_regularizer(g)
            assert -1e-12 <= penalty <= math.log(3) + 1e-12

    def test_gradient_matches_finite_diff(self):
        g = prob_rows(np.random.default_rng(9), 6, 4)
        penalty, d_g = entropy_regularizer(g)
        numeric = finite_diff_grad_nd(lambda m: entropy_regularizer(m)[0], g)
        assert relative_error(d_g, numeric) < 1e-4


class TestAssign:
    def make_model(self):
        return EncoderModel.init(input_dim=5, cluster_count=4, ind_class_count=3, seed=2)

    def test_matches_forward_argmax(self):
        model = self.make_model()
        x = np.random.default_rng(3).normal(size=(6, 5))
        out = forward_batch(model, x)
        batch = assign_batch(model, x)
        assert batch.tolist() == np.argmax(out.g, axis=1).tolist()
        for i in range(6):
            assert assign_batch(model, x[i : i + 1]).tolist() == [batch[i]]

    def test_deterministic_and_in_range(self):
        model = self.make_model()
        x = np.random.default_rng(4).normal(size=(1, 5))
        first = assign_batch(model, x)
        assert first.dtype == np.int64 and first.shape == (1,)
        assert np.array_equal(assign_batch(model, x), first)
        assert 0 <= first[0] < model.cluster_count


class TestKMeans:
    def test_k_equals_n_zero_inertia(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        result = kmeans(pts, 6, seed=1)
        assert result.inertia < 1e-18
        assert len(set(result.assignments.tolist())) == 6

    def test_two_far_pairs(self):
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
        result = kmeans(pts, 2, seed=0)
        a = result.assignments
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        got = sorted(result.centroids.tolist())
        assert np.allclose(got, [[0.1, 0.0], [10.1, 10.0]])

    def test_beats_random_assignment_baselines(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 4))
        best = kmeans(pts, 4, seed=0).inertia
        for trial in range(50):
            labels = rng.integers(0, 4, size=200)
            inertia = 0.0
            for c in range(4):
                member = pts[labels == c]
                if member.shape[0] == 0:
                    continue
                inertia += float(np.sum((member - member.mean(axis=0)) ** 2))
            assert best <= inertia

    def test_history_non_increasing(self):
        pts = np.random.default_rng(6).normal(size=(80, 3))
        result = kmeans(pts, 5, seed=2)
        hist = result.history
        assert len(hist) >= 1
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_deterministic(self):
        pts = np.random.default_rng(7).normal(size=(50, 3))
        a = kmeans(pts, 3, seed=9)
        b = kmeans(pts, 3, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            kmeans(np.ones((3, 2)), 4, seed=0)

    def test_reseed_never_empties_a_checked_cluster(self):
        # the farthest point from its centroid is a cluster's only member; taking
        # it for a later empty cluster used to leave a NaN centroid and inertia
        pts = np.array([[0.0], [1.0], [1.0], [1.0]])
        result = kmeans(pts, 3, seed=0)
        assert result.inertia == 0.0
        assert sorted(np.bincount(result.assignments, minlength=3).tolist()) == [1, 1, 2]
        assert sorted(result.centroids.ravel().tolist()) == [0.0, 1.0, 1.0]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**16),
    )
    def test_tie_heavy_inputs_stay_finite(self, n, dim, k, levels, data_seed, seed):
        pts = np.random.default_rng(data_seed).integers(0, levels, size=(n, dim)).astype(float)
        k = min(k, n)
        result = kmeans(pts, k, seed=seed, restarts=3)
        assert np.isfinite(result.inertia)
        assert np.all(np.isfinite(result.history))
        assert np.all(np.isfinite(result.centroids))
        assert np.bincount(result.assignments, minlength=k).min() >= 1

    def test_separated_blobs_recovered(self):
        ds = gen_blobs(4, 25, 5, center_scale=12.0, noise_sigma=1.0, seed=8)
        result = kmeans(ds.features, 4, seed=0)
        # each true class lands in exactly one cluster
        for c in range(4):
            ids = set(result.assignments[ds.labels == c].tolist())
            assert len(ids) == 1


class TestEstimateK:
    def test_survivor_hand_case(self):
        sizes = np.array([30, 25, 20, 15, 4, 3, 2, 1, 0, 0])
        assert survivor_count(sizes, 10.0) == 4

    def test_balanced_keeps_all(self):
        sizes = np.full(6, 10)
        assert survivor_count(sizes, 10.0) == 6

    def test_well_separated_blobs(self):
        ds = gen_blobs(5, 20, 6, center_scale=12.0, noise_sigma=0.8, seed=3)
        assert estimate_k(ds.features, 10, seed=0) == 5

    def test_bounds(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(40, 3))
        for k_prime in (2, 5, 8):
            est = estimate_k(pts, k_prime, seed=1)
            assert 1 <= est <= k_prime

    def test_propagates_kmeans_errors(self):
        with pytest.raises(ParameterError):
            estimate_k(np.ones((3, 2)), 5, seed=0)


class TestClusterTrain:
    def blob_setup(self, seed=0, classes=3):
        ds = gen_blobs(classes, 12, 5, center_scale=6.0, noise_sigma=0.8, seed=seed)
        model = EncoderModel.init(
            input_dim=5,
            cluster_count=classes,
            ind_class_count=2,
            hidden_dim=12,
            feature_dim=8,
            instance_dim=6,
            seed=seed,
        )
        return model, ds

    def test_zero_epochs_unchanged(self):
        model, ds = self.blob_setup()
        before = {k: v.copy() for k, v in model.params.items()}
        trained, log = cluster_train(model, ds, epochs=0, batch_size=8, config=KccConfig(), seed=0)
        assert log == []
        for k in before:
            assert np.array_equal(trained.params[k], before[k])

    def test_deterministic(self):
        m1, ds = self.blob_setup(seed=1)
        m2 = m1.copy()
        t1, log1 = cluster_train(m1, ds, epochs=2, batch_size=9, config=KccConfig(), seed=5)
        t2, log2 = cluster_train(m2, ds, epochs=2, batch_size=9, config=KccConfig(), seed=5)
        for k in t1.params:
            assert np.array_equal(t1.params[k], t2.params[k])
        assert [r.sc for r in log1] == [r.sc for r in log2]

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_one_forward_and_one_backward_per_batch(self, mode, monkeypatch):
        # 36 samples in batches of 7: five batches and one stray sample, skipped
        import kcod.cluster
        import kcod.encoder

        forward_rows, backward_rows = [], []
        real_forward, real_backward = kcod.encoder.forward_batch, kcod.encoder.backward

        def spy_forward(model, x, keep=None):
            forward_rows.append(len(x))
            return real_forward(model, x, keep)

        def spy_backward(model, out, **grads):
            backward_rows.append(len(out.f))
            return real_backward(model, out, **grads)

        monkeypatch.setattr(kcod.encoder, "forward_batch", spy_forward)
        monkeypatch.setattr(kcod.cluster, "forward_batch", spy_forward)
        monkeypatch.setattr(kcod.cluster, "backward", spy_backward)
        model, ds = self.blob_setup(seed=6)
        cluster_train(model, ds, epochs=2, batch_size=7, config=KccConfig(k_neg=8), seed=2, mode=mode)
        # per epoch: one 2N-row pass per batch, then one pass over all 36 for selection
        assert forward_rows == ([14] * 5 + [36]) * 2
        assert backward_rows == [14] * 10

    def test_mode_validated(self):
        model, ds = self.blob_setup()
        with pytest.raises(ParameterError):
            cluster_train(model, ds, epochs=1, batch_size=8, config=KccConfig(), seed=0, mode="bogus")

    @pytest.mark.parametrize("mode", CLUSTER_MODES)
    def test_every_mode_runs_and_logs(self, mode):
        model, ds = self.blob_setup(seed=2)
        trained, log = cluster_train(
            model, ds, epochs=2, batch_size=9, config=KccConfig(k_neg=8), seed=3, mode=mode
        )
        assert len(log) == 2
        for rec in log:
            assert np.isfinite(rec.clu_loss) or mode == "instance_only"
            assert np.isfinite(rec.sc) or np.isnan(rec.sc)

    def test_best_sc_checkpoint_retained(self):
        model, ds = self.blob_setup(seed=4)
        trained, log = cluster_train(model, ds, epochs=4, batch_size=9, config=KccConfig(k_neg=8), seed=7)
        best = max(r.sc for r in log if not np.isnan(r.sc))
        out = forward_batch(trained, ds.features)
        from kcod.metrics import silhouette

        sc = silhouette(out.f, np.argmax(out.g, axis=1))
        assert abs(sc - best) < 1e-12

    def test_log_csv_column_tracks_mode(self, tmp_path):
        model, ds = self.blob_setup(seed=5)
        _, log = cluster_train(model, ds, epochs=1, batch_size=9, config=KccConfig(k_neg=8), seed=1)
        p1 = str(tmp_path / "kcod.csv")
        write_cluster_log(log, p1, mode="kcod")
        rows = list(csv.reader(open(p1)))
        assert rows[0] == ["epoch", "clu_loss", "kcc_loss", "reg", "sc"]

        _, log2 = cluster_train(
            model.copy(), ds, epochs=1, batch_size=9, config=KccConfig(k_neg=8), seed=1, mode="kcod_wo_kcc"
        )
        p2 = str(tmp_path / "wo.csv")
        write_cluster_log(log2, p2, mode="kcod_wo_kcc")
        rows2 = list(csv.reader(open(p2)))
        assert rows2[0] == ["epoch", "clu_loss", "ins_loss", "reg", "sc"]
