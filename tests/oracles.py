"""Loop forms of the batched losses, queue refresh, distances, silhouette and Adam.

Each function here is the plain loop the package's batched code replaced,
kept as the reference that the batched code is property-tested against.
The per-anchor selection helpers (``knn_same_class``,
``filter_false_negatives``, ``knn_hard_negatives``,
``build_hard_negative_set``) follow the documented selection rules one
anchor at a time, ranking with ``stable_top_k``; the loop losses build on
them and on ``contrastive_terms``.
"""

from dataclasses import dataclass, field

import numpy as np

from kcod.cluster import ClusterBatchState, KccConfig
from kcod.contrast import contrastive_terms, cosine_rows, cosine_rows_backward
from kcod.encoder import EncoderModel, forward_batch
from kcod.errors import DataError, EmptyObjectiveError, ParameterError
from kcod.numerics import as_mat64
from kcod.pretrain import SAMPLES_PER_ANCHOR, ContrastQueue, KclConfig, class_index


def stable_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties broken by lower index."""
    if k <= 0 or scores.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    return order[: min(k, scores.size)]


def knn_same_class(anchor_f: np.ndarray, queue: ContrastQueue, anchor_label: int, k: int) -> np.ndarray:
    """Queue indices of the k same-class entries most cosine-similar to the anchor.

    Fewer than k same-class entries returns them all; none at all returns an
    empty set, the skip-anchor signal.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    same = np.where(queue.labels == int(anchor_label))[0]
    if same.size == 0:
        return same
    a = np.asarray(anchor_f, dtype=np.float64)
    rows = queue.features[same]
    sims = rows @ a / (np.linalg.norm(rows, axis=1) * np.linalg.norm(a))
    return same[stable_top_k(sims, k)]


def filter_false_negatives(i: int, g_all: np.ndarray, threshold: float) -> np.ndarray:
    """Views whose cluster-probability dot product with view i stays below threshold.

    A high dot product means the two views are probably the same cluster, so
    such views are dropped from i's negative pool rather than pushed away.
    Returns ascending indices; i itself is never a candidate.
    """
    g_all = as_mat64(g_all)
    sims = g_all @ g_all[int(i)]
    keep = sims < threshold
    keep[int(i)] = False
    return np.where(keep)[0]


def knn_hard_negatives(
    anchor_f: np.ndarray, features: np.ndarray, candidates: np.ndarray, k_neg: int
) -> np.ndarray:
    """The k_neg candidates most cosine-similar to the anchor, ties by lower index."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return candidates
    a = np.asarray(anchor_f, dtype=np.float64)
    rows = as_mat64(features)[candidates]
    sims = rows @ a / (np.linalg.norm(rows, axis=1) * np.linalg.norm(a))
    return candidates[stable_top_k(sims, k_neg)]


@dataclass
class HardNegativeSet:
    """Anchor's contrast set: selected hard negatives plus its augmented positive."""

    anchor: int
    positive: int
    negatives: np.ndarray

    def __post_init__(self):
        self.negatives = np.asarray(self.negatives, dtype=np.int64)
        if self.anchor in self.negatives or self.positive in self.negatives:
            raise ParameterError("anchor and positive may not appear as negatives")

    def members(self) -> np.ndarray:
        return np.concatenate([[self.positive], self.negatives])


def build_hard_negative_set(state: ClusterBatchState, i: int, config: KccConfig) -> HardNegativeSet:
    """Threshold-filter the other views, then keep the k_neg nearest in f-space."""
    j = state.partner(i)
    candidates = filter_false_negatives(i, state.g_all(), config.threshold)
    candidates = candidates[candidates != j]
    selected = knn_hard_negatives(state.f_views[i], state.f_views, candidates, config.k_neg)
    return HardNegativeSet(anchor=i, positive=j, negatives=selected)


def kcl_loss_loop(f, labels, queue: ContrastQueue, config: KclConfig):
    """KNN-contrastive loss, one anchor and one positive at a time."""
    f = np.asarray(f, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if len(queue) == 0:
        raise EmptyObjectiveError("queue is empty")
    total = 0.0
    d_f = np.zeros_like(f)
    contributed = False
    for i in range(f.shape[0]):
        pos_idx = knn_same_class(f[i], queue, int(labels[i]), config.k)
        if pos_idx.size == 0:
            continue
        contributed = True
        neg_idx = np.where(queue.labels != int(labels[i]))[0]
        s_pos = queue.features[pos_idx] @ f[i]
        s_neg = queue.features[neg_idx] @ f[i]
        inv_p = 1.0 / pos_idx.size
        w_neg = np.zeros(neg_idx.size)
        for j in range(pos_idx.size):
            loss_j, d_pos, d_neg = contrastive_terms(float(s_pos[j]), s_neg, config.tau)
            total += inv_p * loss_j
            d_f[i] += inv_p * d_pos * queue.features[pos_idx[j]]
            w_neg += inv_p * d_neg
        if neg_idx.size:
            d_f[i] += w_neg @ queue.features[neg_idx]
    if not contributed:
        raise EmptyObjectiveError("no anchor had a same-class queue entry")
    return total, d_f


def pair_contrast_loop(sims, half: int, tau: float):
    """Partner-positive contrast over a 2*half similarity matrix, row by row."""
    m = 2 * half
    loss = 0.0
    d_sims = np.zeros_like(sims)
    for i in range(m):
        j = (i + half) % m
        negs = np.asarray([k for k in range(m) if k != i and k != j], dtype=np.int64)
        li, d_pos, d_neg = contrastive_terms(float(sims[i, j]), sims[i, negs], tau)
        loss += li / m
        d_sims[i, j] += d_pos / m
        d_sims[i, negs] += d_neg / m
    return loss, d_sims


def kcc_loss_loop(state: ClusterBatchState, config: KccConfig):
    """KCC loss with each anchor's hard-negative set built on its own."""
    m = 2 * state.n
    sims, cache = cosine_rows(state.f_views)
    loss = 0.0
    d_sims = np.zeros_like(sims)
    for i in range(m):
        hard = build_hard_negative_set(state, i, config)
        j = hard.positive
        li, d_pos, d_neg = contrastive_terms(float(sims[i, j]), sims[i, hard.negatives], config.tau)
        loss += li / m
        d_sims[i, j] += d_pos / m
        d_sims[i, hard.negatives] += d_neg / m
    return loss, cosine_rows_backward(cache, d_sims)


def refresh_queue_loop(queue, model: EncoderModel, batch_labels, train_features, train_labels, rng, by_class=None):
    """Queue refresh drawing each batch element's picks with its own rng.choice."""
    if by_class is None:
        by_class = class_index(train_labels)
    picks = []
    pick_labels = []
    for label in np.asarray(batch_labels).ravel():
        pool = by_class.get(int(label))
        if pool is None or pool.size == 0:
            raise DataError(f"no training example for class {int(label)}")
        picks.append(rng.choice(pool, size=SAMPLES_PER_ANCHOR, replace=True))
        pick_labels.extend([int(label)] * SAMPLES_PER_ANCHOR)
    out = forward_batch(model, train_features[np.concatenate(picks)])
    queue.push(out.f, np.asarray(pick_labels, dtype=np.int64))
    return queue


def pairwise_distances_loop(features, start=0, stop=None) -> np.ndarray:
    """Distance rows start..stop-1, one row per iteration: sqrt(sum((f - f[i])**2, axis=1))."""
    f = np.asarray(features, dtype=np.float64)
    n = f.shape[0]
    stop = n if stop is None else stop
    d = np.empty((stop - start, n))
    diff = np.empty_like(f)
    for r, i in enumerate(range(start, stop)):
        np.subtract(f, f[i], out=diff)
        np.square(diff, out=diff)
        np.sum(diff, axis=1, out=d[r])
        np.sqrt(d[r], out=d[r])
    return d


def silhouette_loop(features, assignments) -> float:
    """Silhouette from the full distance matrix, one point per iteration."""
    f = np.asarray(features, dtype=np.float64)
    y = np.asarray(assignments, dtype=np.int64).ravel()
    values, inv = np.unique(y, return_inverse=True)
    n = y.size
    d = np.empty((n, n))
    for i in range(n):
        d[i] = np.sqrt(((f - f[i]) ** 2).sum(axis=1))
    masks = [inv == c for c in range(values.size)]
    sizes = np.asarray([int(m.sum()) for m in masks])
    scores = np.zeros(n)
    for i in range(n):
        c = inv[i]
        if sizes[c] == 1:
            continue
        own = masks[c].copy()
        own[i] = False
        a = np.mean(d[i][own])
        b = np.min(np.asarray([np.mean(d[i][m]) for o, m in enumerate(masks) if o != c]))
        top = max(a, b)
        scores[i] = 0.0 if top == 0.0 else (b - a) / top
    return float(np.mean(scores))


@dataclass
class AdamLoopState:
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step_loop(state: AdamLoopState, params: dict, grads: dict) -> None:
    """Per-tensor Adam over a dict of parameters, updated in place."""
    state.step += 1
    t = state.step
    lr = state.learning_rate
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = state.m[name] / (1.0 - state.beta1**t)
        v_hat = state.v[name] / (1.0 - state.beta2**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
