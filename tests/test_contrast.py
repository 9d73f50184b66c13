import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_grad, unit_rows
from oracles import stable_top_k
from kcod.contrast import contrastive_terms, cosine_rows, cosine_rows_backward
from kcod.errors import DegenerateInputError, ParameterError
from kcod.numerics import finite_diff_grad


def closed_form(s_pos, s_neg, tau):
    """Independent softmax-form oracle for the single-positive loss."""
    scores = np.concatenate(([s_pos], np.asarray(s_neg, dtype=np.float64))) / tau
    shift = scores.max()
    p = np.exp(scores - shift)
    p /= p.sum()
    loss = -math.log(p[0])
    d_pos = (p[0] - 1.0) / tau
    d_neg = p[1:] / tau
    return loss, d_pos, d_neg


class TestContrastiveTerms:
    def test_single_negative_hand_value(self):
        loss, d_pos, d_neg = contrastive_terms(0.9, np.array([0.5]), 0.5)
        scale = 2.0 * math.e / (math.e + math.exp(1.8))
        assert abs(d_neg[0] - scale) < 1e-6
        assert abs(d_pos + scale) < 1e-6
        assert abs(loss - math.log(1.0 + math.exp(-0.8))) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        s_pos = float(rng.uniform(-1, 1))
        s_neg = rng.uniform(-1, 1, size=rng.integers(1, 8))
        tau = float(rng.uniform(0.2, 2.0))
        loss, d_pos, d_neg = contrastive_terms(s_pos, s_neg, tau)
        o_loss, o_pos, o_neg = closed_form(s_pos, s_neg, tau)
        assert abs(loss - o_loss) < 1e-12
        assert abs(d_pos - o_pos) < 1e-12
        assert np.allclose(d_neg, o_neg, atol=1e-12)

    def test_gradients_match_finite_diff(self):
        rng = np.random.default_rng(7)
        s_neg = rng.uniform(-1, 1, size=5)
        tau = 0.5

        def through_pos(v):
            return contrastive_terms(float(v[0]), s_neg, tau)[0]

        loss, d_pos, d_neg = contrastive_terms(0.3, s_neg, tau)
        num_pos = finite_diff_grad(through_pos, np.array([0.3]))
        assert abs(d_pos - num_pos[0]) < 1e-6

        def through_neg(v):
            return contrastive_terms(0.3, v, tau)[0]

        num_neg = finite_diff_grad(through_neg, s_neg)
        assert np.allclose(d_neg, num_neg, atol=1e-6)

    def test_gradient_sum_is_zero(self):
        _, d_pos, d_neg = contrastive_terms(0.2, np.array([0.9, -0.4, 0.1]), 0.7)
        assert abs(d_pos + d_neg.sum()) < 1e-12

    def test_removing_negative_strengthens_rest(self):
        s_neg = np.array([0.8, 0.1, -0.3])
        _, d_pos_full, d_neg_full = contrastive_terms(0.5, s_neg, 0.5)
        _, d_pos_cut, d_neg_cut = contrastive_terms(0.5, s_neg[1:], 0.5)
        assert np.all(d_neg_cut > d_neg_full[1:])
        assert d_pos_cut > d_pos_full

    def test_large_scores_stay_finite(self):
        loss, d_pos, d_neg = contrastive_terms(900.0, np.array([880.0, -500.0]), 1.0)
        assert np.isfinite(loss) and np.isfinite(d_pos) and np.all(np.isfinite(d_neg))

    def test_rejects_bad_temperature(self):
        with pytest.raises(ParameterError):
            contrastive_terms(0.1, np.array([0.2]), 0.0)

    def test_no_negatives_means_zero_loss(self):
        loss, d_pos, d_neg = contrastive_terms(0.4, np.array([]), 0.5)
        assert loss == 0.0
        assert d_pos == 0.0
        assert d_neg.size == 0


class TestCosineRows:
    def test_values_match_pairwise_cosine(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        sims, cache = cosine_rows(x)
        assert np.allclose(np.diag(sims), 1.0)
        for i in range(5):
            for j in range(5):
                cosine = x[i] @ x[j] / (np.linalg.norm(x[i]) * np.linalg.norm(x[j]))
                assert abs(sims[i, j] - cosine) < 1e-12

    def test_zero_row_rejected(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(DegenerateInputError):
            cosine_rows(x)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_diff(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(4, 3)) * rng.uniform(0.5, 2.0, size=(4, 1))
        w = rng.normal(size=(4, 4))
        np.fill_diagonal(w, 0.0)

        def weighted(m):
            s, _ = cosine_rows(m)
            return float(np.sum(w * s))

        _, cache = cosine_rows(x)
        check_grad(weighted, x, cosine_rows_backward(cache, w), tol=1e-5)

    def test_backward_ignores_radial_direction(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 4))
        np.fill_diagonal(w, 0.0)
        _, cache = cosine_rows(x)
        grad = cosine_rows_backward(cache, w)
        for i in range(4):
            assert abs(grad[i] @ x[i]) < 1e-10


class TestStableTopK:
    def test_ties_prefer_lower_index(self):
        picked = stable_top_k(np.array([0.5, 0.9, 0.5, 0.9]), 3)
        assert picked.tolist() == [1, 3, 0]

    def test_k_clamps_to_length(self):
        picked = stable_top_k(np.array([0.1, 0.3]), 10)
        assert picked.tolist() == [1, 0]

    def test_nonpositive_k_yields_empty(self):
        assert stable_top_k(np.array([1.0]), 0).size == 0

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_selects_maximal_scores(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=9)
        k = int(rng.integers(1, 9))
        picked = stable_top_k(scores, k)
        rest = np.setdiff1d(np.arange(9), picked)
        if rest.size:
            assert scores[picked].min() >= scores[rest].max()
