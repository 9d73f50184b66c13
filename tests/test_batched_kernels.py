"""Batched losses, queue refresh and silhouette against their loop oracles.

The oracles in ``oracles.py`` are the per-anchor and per-point loops the
batched code replaced. Losses and gradients must agree to 1e-12 (relative to
the larger of 1 and the oracle's magnitude), the queue refresh must draw the
same indices and leave the generator in the same state, and the exact
silhouette must agree bit for bit. "Palette" geometries draw every row from
a few signed axis vectors, so similarities are exact and ties are real.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import prob_rows, unit_rows
from oracles import (
    kcc_loss_loop,
    kcl_loss_loop,
    pair_contrast_loop,
    refresh_queue_loop,
    silhouette_loop,
    stable_top_k,
)
from kcod.cluster import ClusterBatchState, KccConfig, _pair_contrast, cluster_train, kcc_loss
from kcod.contrast import (
    contrastive_terms,
    cosine_rows,
    masked_info_nce,
    stable_top_k_mask,
)
from kcod.data import gen_blobs
from kcod.encoder import EncoderModel
from kcod.errors import DataError, EmptyObjectiveError, ParameterError
from kcod.metrics import pairwise_distances, silhouette, silhouette_gram
from kcod.pretrain import ContrastQueue, KclConfig, class_index, kcl_loss, refresh_queue

TOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None)


def close(got, want) -> bool:
    want = np.asarray(want, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(np.asarray(got) - want), initial=0.0)) <= TOL * scale


def palette_rows(rng, n, dim):
    """Rows drawn from the signed axis vectors: exact cosines, many ties."""
    axis = rng.integers(0, dim, size=n)
    rows = np.zeros((n, dim))
    rows[np.arange(n), axis] = rng.choice([-1.0, 1.0], size=n)
    return rows


def one_hot_rows(rng, n, c):
    g = np.zeros((n, c))
    g[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    return g


class TestStableTopKMask:
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 12), st.integers(0, 14))
    @SETTINGS
    def test_rows_match_stable_top_k_with_ties(self, seed, n, m, k):
        rng = np.random.default_rng(seed)
        scores = rng.integers(-2, 3, size=(n, m)).astype(np.float64)  # forced ties
        candidates = rng.random((n, m)) < 0.6
        mask = stable_top_k_mask(scores, candidates, k)
        for i in range(n):
            cols = np.flatnonzero(candidates[i])
            expected = np.sort(cols[stable_top_k(scores[i, cols], k)])
            assert np.flatnonzero(mask[i]).tolist() == expected.tolist()

    def test_ties_go_to_lower_index(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.9, 0.5]])
        mask = stable_top_k_mask(scores, np.ones_like(scores, dtype=bool), 3)
        assert np.flatnonzero(mask[0]).tolist() == [0, 1, 3]

    def test_never_selects_a_non_candidate(self):
        scores = np.array([[9.0, 1.0, 8.0]])
        mask = stable_top_k_mask(scores, np.array([[False, True, True]]), 2)
        assert mask.tolist() == [[False, True, True]]


class TestMaskedInfoNce:
    def test_single_row_matches_contrastive_terms(self):
        sims = np.array([[0.3, 0.9, -0.2, 0.5]])
        pos = np.array([[False, True, False, False]])
        neg = np.array([[False, False, True, True]])
        loss, d = masked_info_nce(sims, pos, neg, 0.5, 1.0)
        ref_loss, d_pos, d_neg = contrastive_terms(0.9, np.array([-0.2, 0.5]), 0.5)
        assert close(loss, ref_loss)
        assert close(d[0], [0.0, d_pos, d_neg[0], d_neg[1]])

    def test_rows_without_positives_or_negatives_add_nothing(self):
        sims = np.array([[0.0, 0.7, 0.1], [0.7, 0.0, 0.4]])
        pos = np.array([[False, True, False], [False, False, False]])
        neg = np.zeros_like(pos)
        loss, d = masked_info_nce(sims, pos, neg, 0.5, 1.0)
        assert loss == 0.0
        assert not d.any()

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            masked_info_nce(np.zeros((1, 2)), np.ones((1, 2), bool), np.zeros((1, 2), bool), 0.0, 1.0)


class TestKclAgainstLoop:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(2, 6),
        st.integers(1, 4),
        st.integers(1, 12),
        st.sampled_from([0.2, 0.5, 1.0, 2.0]),
        st.booleans(),
    )
    @SETTINGS
    def test_loss_and_gradient(self, seed, n, queue_len, dim, classes, k, tau, palette):
        rng = np.random.default_rng(seed)
        rows = palette_rows if palette else unit_rows
        f = rows(rng, n, dim)
        labels = rng.integers(0, classes, size=n)
        queue = ContrastQueue(capacity=queue_len, dim=dim)
        queue.push(rows(rng, queue_len, dim), rng.integers(0, classes, size=queue_len))
        config = KclConfig(k=k, tau=tau)
        try:
            want = kcl_loss_loop(f, labels, queue, config)
        except EmptyObjectiveError:
            with pytest.raises(EmptyObjectiveError):
                kcl_loss(f, labels, queue, config)
            return
        loss, d_f = kcl_loss(f, labels, queue, config)
        assert close(loss, want[0])
        assert close(d_f, want[1])


class TestPairContrastAgainstLoop:
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(2, 6),
           st.sampled_from([0.3, 0.5, 1.0, 2.0]), st.booleans())
    @SETTINGS
    def test_loss_and_gradient(self, seed, half, dim, tau, palette):
        rng = np.random.default_rng(seed)
        rows = palette_rows if palette else unit_rows
        sims, _ = cosine_rows(rows(rng, 2 * half, dim))
        loss, d = _pair_contrast(sims, half, tau)
        want_loss, want_d = pair_contrast_loop(sims, half, tau)
        assert close(loss, want_loss)
        assert close(d, want_d)
        assert not np.diag(d).any()


class TestKccAgainstLoop:
    @given(
        st.integers(0, 10_000),
        st.integers(1, 6),
        st.integers(2, 6),
        st.integers(2, 4),
        st.integers(1, 12),
        st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        st.booleans(),
        st.booleans(),
    )
    @SETTINGS
    def test_loss_and_gradient(self, seed, n, dim, c, k_neg, threshold, palette, one_hot):
        rng = np.random.default_rng(seed)
        rows = palette_rows if palette else unit_rows
        probs = one_hot_rows if one_hot else prob_rows
        state = ClusterBatchState(f_views=rows(rng, 2 * n, dim), g_a=probs(rng, n, c), g_b=probs(rng, n, c))
        config = KccConfig(threshold=threshold, k_neg=k_neg, tau=0.5)
        loss, d_f = kcc_loss(state, config)
        want_loss, want_d = kcc_loss_loop(state, config)
        assert close(loss, want_loss)
        assert close(d_f, want_d)

    def test_one_sample_batch_has_no_negatives(self):
        rng = np.random.default_rng(0)
        state = ClusterBatchState(f_views=unit_rows(rng, 2, 3), g_a=prob_rows(rng, 1, 2), g_b=prob_rows(rng, 1, 2))
        loss, d_f = kcc_loss(state, KccConfig())
        assert loss == 0.0
        assert not d_f.any()


class TestRefreshQueueAgainstLoop:
    @given(st.integers(0, 10_000), st.integers(1, 70), st.integers(1, 6))
    @SETTINGS
    def test_same_picks_and_generator_state(self, seed, batch, classes):
        rng = np.random.default_rng(seed)
        model = EncoderModel.init(input_dim=3, cluster_count=2, ind_class_count=2, seed=seed)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, classes, size=40) * 3  # non-contiguous labels
        batch_labels = rng.choice(y, size=batch)
        by_class = class_index(y)
        got_q = ContrastQueue(capacity=10 * batch, dim=model.instance_dim)
        want_q = ContrastQueue(capacity=10 * batch, dim=model.instance_dim)
        got_rng = np.random.default_rng(seed + 1)
        want_rng = np.random.default_rng(seed + 1)
        refresh_queue(got_q, model, batch_labels, x, y, got_rng, by_class)
        refresh_queue_loop(want_q, model, batch_labels, x, y, want_rng, by_class)
        assert np.array_equal(got_q.features, want_q.features)
        assert np.array_equal(got_q.labels, want_q.labels)
        assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)
        assert got_rng.random() == want_rng.random()

    def test_missing_class_raises_like_the_loop(self):
        model = EncoderModel.init(input_dim=2, cluster_count=2, ind_class_count=2, seed=0)
        x = np.ones((3, 2))
        y = np.array([0, 1, 1])
        for fn in (refresh_queue, refresh_queue_loop):
            q = ContrastQueue(capacity=30, dim=model.instance_dim)
            with pytest.raises(DataError, match="class 5"):
                fn(q, model, np.array([1, 5]), x, y, np.random.default_rng(0))


class TestSilhouetteAgainstLoop:
    @given(st.integers(0, 10_000), st.integers(2, 300), st.integers(1, 5), st.integers(2, 6),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_exact_equality(self, seed, n, dim, k, rounded):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        if rounded:
            x = np.round(x)  # coincident points and tied distances
        y = rng.integers(0, k, size=n)
        y[rng.integers(0, n)] = k  # at least one singleton-prone label
        if np.unique(y).size < 2:
            return
        assert silhouette(x, y) == silhouette_loop(x, y)

    def test_exact_equality_across_row_blocks(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(700, 4))
        y = rng.integers(0, 4, size=700)
        y[0] = 9  # a singleton
        assert silhouette(x, y) == silhouette_loop(x, y)


    def test_distance_rows_match_the_full_matrix(self):
        x = np.random.default_rng(6).normal(size=(9, 3))
        full = pairwise_distances(x)
        out = np.full((4, 9), np.nan)
        assert pairwise_distances(x, 3, 7, out=out) is out
        assert np.array_equal(out, full[3:7])
        assert np.array_equal(pairwise_distances(x, 8), full[8:])


class TestSelectionScore:
    @pytest.mark.parametrize("seed", range(4))
    def test_gram_score_within_tolerance_of_exact(self, seed):
        rng = np.random.default_rng(seed)
        f = unit_rows(rng, 400, 8)
        y = rng.integers(0, 3 + seed, size=400)
        assert abs(silhouette_gram(f, y) - silhouette(f, y)) <= TOL

    def test_gram_score_handles_singletons_and_coincident_points(self):
        f = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        y = np.array([0, 0, 1, 2])
        assert abs(silhouette_gram(f, y) - silhouette(f, y)) <= 1e-7

    def test_training_picks_the_exactly_best_epoch(self, monkeypatch):
        """Every epoch's selection score tracks the exact silhouette, and so does the pick."""
        import kcod.cluster

        seen = []

        def spy(features, assignments):
            score = silhouette_gram(features, assignments)
            seen.append((score, silhouette(features, assignments)))
            return score

        monkeypatch.setattr(kcod.cluster, "silhouette_gram", spy)
        ds = gen_blobs(4, 40, 6, center_scale=3.0, noise_sigma=1.0, seed=2)
        for mode in ("kcod", "kcod_wo_kcc", "instance_only"):
            seen.clear()
            model = EncoderModel.init(input_dim=6, cluster_count=4, ind_class_count=2, seed=3)
            cluster_train(model, ds, epochs=12, batch_size=32, config=KccConfig(), seed=4, mode=mode)
            gram, exact = np.array(seen).T
            assert np.max(np.abs(gram - exact)) <= TOL
            assert int(np.argmax(gram)) == int(np.argmax(exact))
