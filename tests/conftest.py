"""Shared test helpers: random geometry builders and gradient-check plumbing.

Losses with data-dependent selection (nearest-neighbor positives, mined hard
negatives) are only piecewise smooth; the builders below resample until every
selection boundary has a comfortable margin so central differences stay valid.
"""

import numpy as np

from kcod.numerics import finite_diff_grad_nd, relative_error


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    m = rng.normal(size=(n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def prob_rows(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    z = rng.normal(size=(n, c))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_grad(fn, x, analytic, tol=1e-4, h=1e-6):
    """Assert the analytic gradient of fn at x matches central differences."""
    numeric = finite_diff_grad_nd(fn, x, h=h)
    err = relative_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: relative error {err:.3e}"
    return err


def random_kcl_setup(seed: int, n_anchors=4, queue_len=14, dim=6, n_classes=3, k=3):
    """Anchors, labels, and a filled queue with margin-safe positive selection."""
    from kcod.pretrain import ContrastQueue

    for attempt in range(500):
        rng = np.random.default_rng(100_000 * seed + attempt)
        f = unit_rows(rng, n_anchors, dim)
        labels = rng.integers(0, n_classes, size=n_anchors).astype(np.int64)
        qf = unit_rows(rng, queue_len, dim)
        ql = rng.integers(0, n_classes, size=queue_len).astype(np.int64)
        ok = True
        for i in range(n_anchors):
            same = np.where(ql == labels[i])[0]
            if same.size == 0 or np.count_nonzero(ql != labels[i]) == 0:
                ok = False
                break
            sims = np.sort(qf[same] @ f[i])[::-1]
            if same.size > k and sims[k - 1] - sims[k] < 1e-3:
                ok = False
                break
        if ok:
            queue = ContrastQueue(capacity=queue_len, dim=dim)
            queue.push(qf, ql)
            return f, labels, queue
    raise AssertionError("no margin-safe KCL configuration found")


def random_cluster_state(seed: int, n=5, dim=6, c=3):
    """A well-formed two-view batch state with random features and probabilities."""
    from kcod.cluster import ClusterBatchState

    rng = np.random.default_rng(seed)
    return ClusterBatchState(
        f_views=unit_rows(rng, 2 * n, dim),
        g_a=prob_rows(rng, n, c),
        g_b=prob_rows(rng, n, c),
    )


def random_kcc_state(seed: int, config, n=5, dim=6, c=3):
    """Batch state whose hard-negative selection has margin-safe boundaries."""
    from kcod.cluster import ClusterBatchState
    from oracles import filter_false_negatives

    for attempt in range(500):
        rng = np.random.default_rng(100_000 * seed + attempt)
        state = ClusterBatchState(
            f_views=unit_rows(rng, 2 * n, dim),
            g_a=prob_rows(rng, n, c),
            g_b=prob_rows(rng, n, c),
        )
        g_all = state.g_all()
        ok = True
        for i in range(2 * n):
            j = state.partner(i)
            cand = filter_false_negatives(i, g_all, config.threshold)
            cand = cand[cand != j]
            if cand.size > config.k_neg:
                sims = np.sort(state.f_views[cand] @ state.f_views[i])[::-1]
                if sims[config.k_neg - 1] - sims[config.k_neg] < 1e-3:
                    ok = False
                    break
        if ok:
            return state
    raise AssertionError("no margin-safe KCC configuration found")
