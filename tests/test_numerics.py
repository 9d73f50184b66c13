import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kcod.contrast import cosine_rows
from kcod.errors import DegenerateInputError, OracleError, ParameterError
from kcod.numerics import (
    as_mat64,
    as_vec64,
    finite_diff_grad,
    finite_diff_grad_nd,
    relative_error,
    softmax_rows,
)


class TestConversions:
    def test_vec_from_list(self):
        v = as_vec64([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_vec_rejects_matrix(self):
        with pytest.raises(ParameterError):
            as_vec64([[1.0, 2.0], [3.0, 4.0]])

    def test_mat_reshapes_flat_input(self):
        m = as_mat64([1, 2, 3, 4, 5, 6], 2, 3)
        assert m.shape == (2, 3)
        assert m[1, 0] == 4.0

    def test_mat_rejects_bad_count(self):
        with pytest.raises(ParameterError):
            as_mat64([1, 2, 3], 2, 2)


def unit_row(v):
    """One vector normalized by ``cosine_rows``, the package's row normalizer."""
    return cosine_rows(np.asarray(v, dtype=np.float64)[None, :])[1].unit[0]


def cosine_pair(a, b):
    """Cosine of two vectors: the off-diagonal entry of their 2 x 2 cosine matrix."""
    return cosine_rows(np.vstack([a, b]))[0][0, 1]


def softmax_one(logits, temperature):
    """``softmax_rows`` on a single row."""
    return softmax_rows(np.asarray(logits, dtype=np.float64)[None, :], temperature)[0]


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(unit_row([3.0, 4.0]), [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            unit_row(np.zeros(4))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_unit_norm(self, values):
        v = np.asarray(values, dtype=np.float64)
        if np.linalg.norm(v) < 1e-6:
            return
        assert np.isclose(np.linalg.norm(unit_row(v)), 1.0)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_parallel_and_opposite(self):
        v = np.array([2.0, -1.0, 0.5])
        assert np.isclose(cosine_pair(v, 3.0 * v), 1.0)
        assert np.isclose(cosine_pair(v, -v), -1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_pair(np.zeros(3), np.ones(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert cosine_pair(a, b) == cosine_pair(b, a)


class TestSoftmax:
    def test_uniform_on_equal_scores(self):
        assert np.allclose(softmax_one(np.zeros(4), 1.0), 0.25)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.0])
        assert np.allclose(softmax_one(z, 0.7), softmax_one(z + 100.0, 0.7))

    def test_temperature_sharpens(self):
        z = np.array([1.0, 0.0])
        assert softmax_one(z, 0.1)[0] > softmax_one(z, 1.0)[0]

    def test_nonpositive_temperature(self):
        with pytest.raises(ParameterError):
            softmax_one(np.ones(3), 0.0)

    def test_rows_match_single(self):
        z = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
        rows = softmax_rows(z, 0.5)
        for i in range(2):
            assert np.allclose(rows[i], softmax_one(z[i], 0.5))
        assert np.allclose(rows.sum(axis=1), 1.0)

    def test_extreme_scores_stay_finite(self):
        p = softmax_one(np.array([1e4, 0.0, -1e4]), 1.0)
        assert np.all(np.isfinite(p))
        assert np.isclose(p.sum(), 1.0)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda v: float(np.sum(v**2)), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(grad, [2.0, 4.0, 6.0], atol=1e-5)

    def test_matrix_version(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        grad = finite_diff_grad_nd(lambda m: float(np.sum(m**3)), x)
        assert np.allclose(grad, 3.0 * x**2, atol=1e-4)

    def test_nonfinite_objective_rejected(self):
        def bad(v):
            return float("nan")

        with pytest.raises(OracleError):
            finite_diff_grad(bad, np.ones(2))


class TestRelativeError:
    def test_zero_for_identical(self):
        a = np.array([1.0, -2.0, 3.0])
        assert relative_error(a, a.copy()) == 0.0

    def test_scale_free(self):
        a = np.array([1.0, 2.0])
        assert relative_error(a, a * 1.001) < 2e-3

    def test_orders_mismatch(self):
        assert relative_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) > 0.5
