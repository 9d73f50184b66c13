"""The package's own assignment solver and k-means distances, with scipy as the oracle.

``metrics._optimal_assignment`` must give ``scipy.optimize.linear_sum_assignment``'s
mapping, ties included, because the mapping orders the confusion columns of
``report.json``. ``cluster._sq_distances`` must equal ``cdist(..., "sqeuclidean")``
exactly, because k-means assignments and inertia follow from it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
from scipy.optimize import linear_sum_assignment  # noqa: E402
from scipy.spatial.distance import cdist  # noqa: E402

from kcod.cluster import _sq_distances  # noqa: E402
from kcod.metrics import _min_cost_assignment, _optimal_assignment  # noqa: E402


def scipy_mapping(w):
    """Slot per predicted cluster, from scipy on the zero-padded square of w."""
    side = max(w.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: w.shape[0], : w.shape[1]] = w
    rows, cols = linear_sum_assignment(padded, maximize=True)
    mapping = np.empty(side, dtype=np.int64)
    mapping[rows] = cols
    return mapping[: w.shape[0]]


@st.composite
def tables(draw, max_side=12, max_count=4):
    """Contingency tables of any shape, small counts so that ties are common."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.integers(0, max_count + 1, size=(rows, cols))
    if draw(st.booleans()):
        w[rng.integers(rows)] = 0
        w[:, rng.integers(cols)] = 0
    return w


class TestAssignmentAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_padded_tables(self, w):
        assert _optimal_assignment(w).tolist() == scipy_mapping(w).tolist()

    @settings(max_examples=100, deadline=None)
    @given(tables(max_side=40, max_count=200))
    def test_large_tables_with_wide_counts(self, w):
        assert _optimal_assignment(w).tolist() == scipy_mapping(w).tolist()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 4), (3, 7), (7, 3)])
    def test_all_zero_tables(self, shape):
        w = np.zeros(shape, dtype=np.int64)
        assert _optimal_assignment(w).tolist() == scipy_mapping(w).tolist()

    @pytest.mark.parametrize("value", [0, 1, 5])
    @pytest.mark.parametrize("shape", [(4, 4), (2, 6), (6, 2)])
    def test_constant_tables(self, shape, value):
        w = np.full(shape, value, dtype=np.int64)
        assert _optimal_assignment(w).tolist() == scipy_mapping(w).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=15))
    def test_one_row_tables(self, counts):
        w = np.asarray([counts], dtype=np.int64)
        assert _optimal_assignment(w).tolist() == scipy_mapping(w).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.integers(0, 10), st.integers(0, 2**32 - 1))
    def test_real_valued_wide_matrices(self, rows, extra, seed):
        cost = np.random.default_rng(seed).normal(size=(rows, rows + extra))
        _, cols = linear_sum_assignment(cost)
        assert _min_cost_assignment(cost).tolist() == cols.tolist()


class TestSquaredDistancesAgainstCdist:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 400),
        st.integers(1, 12),
        st.integers(1, 70),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["normal", "grid", "wide"]),
    )
    def test_equal_to_cdist(self, n, k, dim, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            pts = rng.normal(size=(n, dim))
        elif kind == "grid":
            pts = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            pts = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-6, 7, size=dim)
        centroids = pts[rng.integers(0, n, size=k)] + rng.normal(size=(k, dim)) * 1e-3
        out = np.empty((k, n))
        got = _sq_distances(np.ascontiguousarray(pts.T), centroids, out, np.empty((k, n)))
        assert np.array_equal(got.T, cdist(pts, centroids, "sqeuclidean"))
