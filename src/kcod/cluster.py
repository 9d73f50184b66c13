"""Unlabeled clustering stage over two dropout views of each batch.

Three trainable objectives on the encoder's two heads:
  - cluster-level contrast between probability-matrix columns (each column of
    the N x C assignment matrix acts as one cluster's representation),
  - plain instance-level contrast over the 2N views (ablation baseline),
  - KNN-guided instance contrast (KCC) whose negatives are first purged of
    probable same-cluster views (probability dot product below a threshold
    survives) and then cut to the nearest K in instance-feature space,
plus a batch-entropy regularizer against the all-one-cluster solution.
Inference is a plain argmax over cluster probabilities, no k-means.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .contrast import (
    cosine_rows,
    cosine_rows_backward,
    masked_info_nce,
    stable_top_k_mask,
)
from .data import Dataset
from .encoder import (
    BatchForward,
    EncoderModel,
    backward,
    forward_batch,
    train_epochs,
    two_views_batch,
)
from .errors import MetricUndefinedError, ParameterError
from .metrics import silhouette_gram
from .numerics import as_mat64

CLUSTER_MODES = ("kcod", "kcod_wo_kcc", "instance_only", "cluster_only")


@dataclass
class KccConfig:
    threshold: float = 0.7
    k_neg: int = 400  # effective value is min(k_neg, candidates available)
    tau: float = 0.5
    tau_clu: float = 1.0
    reg_weight: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ParameterError(f"threshold must be in (0,1), got {self.threshold}")
        if self.k_neg < 1:
            raise ParameterError(f"k_neg must be >= 1, got {self.k_neg}")
        if not (0 < self.tau < np.inf and 0 < self.tau_clu < np.inf):
            raise ParameterError("temperatures must be finite and > 0")
        if not np.isfinite(self.reg_weight):
            raise ParameterError(f"reg_weight must be finite, got {self.reg_weight}")


@dataclass
class ClusterBatchState:
    """Two views of one batch: stacked instance features and both probability matrices.

    f_views rows 0..N-1 are the original view, N..2N-1 the augmented one, so
    view i and view (i + N) mod 2N describe the same sample.
    """

    f_views: np.ndarray  # (2N, F) unit rows
    g_a: np.ndarray  # (N, C) rows sum to 1
    g_b: np.ndarray  # (N, C)

    def __post_init__(self):
        self.f_views = as_mat64(self.f_views)
        self.g_a = as_mat64(self.g_a)
        self.g_b = as_mat64(self.g_b)
        n = self.g_a.shape[0]
        if self.g_b.shape != self.g_a.shape:
            raise ParameterError("the two probability matrices must share a shape")
        if self.f_views.shape[0] != 2 * n:
            raise ParameterError(
                f"expected {2 * n} feature views, got {self.f_views.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.g_a.shape[0]

    @property
    def c(self) -> int:
        return self.g_a.shape[1]

    def g_all(self) -> np.ndarray:
        """(2N, C) probabilities in the same view order as f_views."""
        return np.vstack([self.g_a, self.g_b])

    def columns(self) -> np.ndarray:
        """(2C, N) cluster representations: columns of both probability matrices."""
        return np.vstack([self.g_a.T, self.g_b.T])

    def partner(self, i: int) -> int:
        return (i + self.n) % (2 * self.n)


def _partner_masks(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Partner (row i -> (i + m/2) mod m) and other off-diagonal masks of an m x m matrix."""
    rows = np.arange(m)
    pos = np.zeros((m, m), dtype=bool)
    pos[rows, (rows + m // 2) % m] = True
    neg = ~pos
    neg[rows, rows] = False
    return pos, neg


def _pair_contrast(sims: np.ndarray, half: int, tau: float) -> tuple[float, np.ndarray]:
    """Mean contrastive loss over all rows of a 2*half similarity matrix.

    Row i's positive is row (i + half) mod 2*half; every other off-diagonal
    entry is a negative. Returns the loss and d(loss)/d(sims) with zero
    diagonal.
    """
    pos, neg = _partner_masks(2 * half)
    return masked_info_nce(sims, pos, neg, tau, 1.0 / (2 * half))


def cluster_level_loss(state: ClusterBatchState, tau_clu: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Contrast the 2C cluster columns; a column's positive is its other-view twin.

    Cosine similarity, denominator over the 2C-1 other columns, mean over the
    2C anchors. Returns gradients for both probability matrices.
    """
    if state.c < 2:
        raise ParameterError(f"need at least 2 clusters, got {state.c}")
    cols = state.columns()
    sims, cache = cosine_rows(cols)
    loss, d_sims = _pair_contrast(sims, state.c, tau_clu)
    d_cols = cosine_rows_backward(cache, d_sims)
    return loss, d_cols[: state.c].T, d_cols[state.c :].T


def instance_level_loss(state: ClusterBatchState, tau: float) -> tuple[float, np.ndarray]:
    """Plain 2N-view contrast: positive = own other view, negatives = everyone else."""
    if state.n < 2:
        raise ParameterError(f"need at least 2 samples, got {state.n}")
    sims, cache = cosine_rows(state.f_views)
    loss, d_sims = _pair_contrast(sims, state.n, tau)
    return loss, cosine_rows_backward(cache, d_sims)


def kcc_loss(state: ClusterBatchState, config: KccConfig) -> tuple[float, np.ndarray]:
    """Instance contrast against the filtered-and-mined hard negative sets.

    Row i's candidates are the views whose probability dot product with it
    stays below the threshold, minus itself and its partner; the k_neg most
    cosine-similar of them (ties to the lower index) are its negatives.
    Anchors whose negative set comes out empty contribute 0. The negative
    selection acts as a constant: gradients flow only through the cosine
    similarities that remain in play, and only to the instance features.
    """
    m = 2 * state.n
    sims, cache = cosine_rows(state.f_views)
    g_all = state.g_all()
    pos, off = _partner_masks(m)
    candidates = (g_all @ g_all.T) < config.threshold
    candidates &= off
    negatives = stable_top_k_mask(sims, candidates, config.k_neg)
    loss, d_sims = masked_info_nce(sims, pos, negatives, config.tau, 1.0 / m)
    return loss, cosine_rows_backward(cache, d_sims)


def entropy_regularizer(g_matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Penalty log C + sum_c p_c log p_c on the column-mean assignment distribution.

    Zero when every cluster receives equal mass, log C when one cluster
    absorbs everything (0 log 0 taken as 0).
    """
    g = as_mat64(g_matrix)
    m, c = g.shape
    p_bar = g.mean(axis=0)
    nz = p_bar > 0
    penalty = float(np.log(c) + np.sum(p_bar[nz] * np.log(p_bar[nz])))
    d_bar = np.zeros(c)
    d_bar[nz] = np.log(p_bar[nz]) + 1.0
    return penalty, np.tile(d_bar / m, (m, 1))


@dataclass
class ClusterEpoch:
    epoch: int
    clu_loss: float
    instance_loss: float  # KCC in mode kcod, plain instance contrast otherwise
    reg: float
    sc: float  # NaN when the epoch's assignment collapsed to one cluster


def assign_batch(model: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Cluster ids by argmax over cluster probabilities; ties to the lowest id."""
    out = forward_batch(model, as_mat64(x))
    return np.argmax(out.g, axis=1).astype(np.int64)


def predict_clusters(out: BatchForward, mode: str, seed: int) -> np.ndarray:
    """Cluster ids from one forward pass: argmax of g, or k-means on f in instance_only.

    instance_only never trains the cluster head, so its argmax means nothing;
    seeded k-means on the instance features stands in.
    """
    if mode == "instance_only":
        return kmeans(out.f, out.g.shape[1], seed=seed).assignments
    return np.argmax(out.g, axis=1).astype(np.int64)


def cluster_train(
    model: EncoderModel,
    ood_dataset: Dataset,
    epochs: int,
    batch_size: int,
    config: KccConfig,
    seed: int,
    mode: str = "kcod",
    learning_rate: float = 3e-3,
) -> tuple[EncoderModel, list[ClusterEpoch]]:
    """Train on unlabeled data and keep the epoch checkpoint with the best silhouette.

    Modes: kcod = column contrast + KCC + regularizer; kcod_wo_kcc swaps KCC
    for the plain instance contrast; instance_only and cluster_only drop one
    head entirely. Deterministic under seed. Labels in the dataset are never
    read here. Epochs are ranked by ``silhouette_gram``, the score the log's
    ``sc`` holds.
    """
    if mode not in CLUSTER_MODES:
        raise ParameterError(f"mode must be one of {CLUSTER_MODES}, got '{mode}'")
    if batch_size < 2:
        raise ParameterError("batch_size must be >= 2")
    if model.cluster_count < 2:
        raise ParameterError("model needs a cluster head with >= 2 clusters")

    x = ood_dataset.features
    rng = np.random.default_rng(seed)
    log: list[ClusterEpoch] = []
    best_sc = -np.inf
    best_model = model
    use_cluster_route = mode in ("kcod", "kcod_wo_kcc", "cluster_only")
    use_instance_route = mode in ("kcod", "kcod_wo_kcc", "instance_only")

    def step(batch):
        if batch.size < 2:
            return None  # a stray single sample cannot form a contrast pair
        view_seed = int(rng.integers(0, 2**63 - 1))
        views = two_views_batch(model, x[batch], view_seed)
        nb = batch.size
        state = ClusterBatchState(f_views=views.f, g_a=views.g[:nb], g_b=views.g[nb:])
        d_f = d_g = None
        clu_val = ins_val = reg_val = 0.0
        if use_cluster_route:
            clu_val, d_g_a, d_g_b = cluster_level_loss(state, config.tau_clu)
            reg_val, d_reg = entropy_regularizer(views.g)
            d_g = np.vstack([d_g_a, d_g_b]) + config.reg_weight * d_reg
        if use_instance_route:
            if mode == "kcod":
                ins_val, d_f = kcc_loss(state, config)
            else:
                ins_val, d_f = instance_level_loss(state, config.tau)
        return (clu_val, ins_val, reg_val), backward(model, views, d_f=d_f, d_g=d_g)

    def end_epoch(epoch, sums, batches):
        nonlocal best_sc, best_model
        means = sums / batches if batches else np.zeros(3)
        eval_seed = int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])
        out = forward_batch(model, x)
        pred = predict_clusters(out, mode, eval_seed)
        try:
            sc = silhouette_gram(out.f, pred)
        except MetricUndefinedError:
            sc = float("nan")
        log.append(ClusterEpoch(epoch, *(float(v) for v in means), sc))
        if sc == sc and sc > best_sc:
            best_sc = sc
            best_model = model.copy()

    train_epochs(model, len(ood_dataset), epochs, batch_size, rng, learning_rate, step, end_epoch)
    return best_model, log


def write_cluster_log(log: list[ClusterEpoch], path: str, mode: str = "kcod") -> None:
    column = "kcc_loss" if mode == "kcod" else "ins_loss"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "clu_loss", column, "reg", "sc"])
        for rec in log:
            writer.writerow(
                [rec.epoch]
                + [repr(float(v)) for v in (rec.clu_loss, rec.instance_loss, rec.reg, rec.sc)]
            )


@dataclass
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    history: list[float] = field(default_factory=list)  # per-iteration inertia, winner


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ spreading: sample proportional to squared distance from chosen set."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:  # remaining points coincide with chosen centroids
            idx = int(rng.integers(n))
        centroids[c] = points[idx]
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return centroids


def _sq_distances(points_t: np.ndarray, centroids: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(k, n) squared Euclidean distances from centroids to the columns of points_t.

    The squared differences add up dimension by dimension in index order, the
    summation of scipy's cdist "sqeuclidean", so the two agree exactly.
    """
    np.subtract(points_t[0], centroids[:, :1], out=out)
    np.square(out, out=out)
    for j in range(1, points_t.shape[0]):
        np.subtract(points_t[j], centroids[:, j : j + 1], out=tmp)
        np.square(tmp, out=tmp)
        out += tmp
    return out


def kmeans(points, k: int, seed: int = 0, max_iter: int = 100, restarts: int = 8) -> KMeansResult:
    """Lloyd iterations from k-means++ starts; best inertia over restarts wins.

    An empty cluster is re-seeded at the point farthest from its centroid
    among the clusters that keep another member, so no cluster is ever left
    empty. Assignment ties go to the lowest cluster index. Deterministic
    under seed.
    """
    pts = as_mat64(points)
    n = pts.shape[0]
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > n:
        raise ParameterError(f"k={k} exceeds {n} points")
    if restarts < 1 or max_iter < 1:
        raise ParameterError("restarts and max_iter must be >= 1")
    pts_t = np.ascontiguousarray(pts.T)
    d2 = np.empty((k, n))
    tmp = np.empty((k, n))
    best: KMeansResult | None = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centroids = _seed_centroids(pts, k, rng)
        labels = None
        history: list[float] = []
        for _ in range(max_iter):
            _sq_distances(pts_t, centroids, d2, tmp)
            new_labels = np.argmin(d2, axis=0)
            row_cost = d2.min(axis=0)
            counts = np.bincount(new_labels, minlength=k)
            for c in np.flatnonzero(counts == 0):
                far = int(np.argmax(np.where(counts[new_labels] > 1, row_cost, -1.0)))
                counts[new_labels[far]] -= 1
                counts[c] = 1
                centroids[c] = pts[far]
                new_labels[far] = c
                row_cost[far] = 0.0
            history.append(float(row_cost.sum()))
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                # a sum over rows in index order, then a divide: the arithmetic of .mean(axis=0)
                np.add.reduce(pts.compress(labels == c, axis=0), axis=0, out=centroids[c])
            centroids /= counts[:, None]
        result = KMeansResult(labels, centroids.copy(), history[-1], history)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def survivor_count(sizes, threshold: float) -> int:
    """How many clusters hold at least the expected mean share of points."""
    sizes = np.asarray(sizes, dtype=np.int64).ravel()
    return int(np.sum(sizes >= threshold))


def estimate_k(features, k_prime: int, seed: int = 0, max_iter: int = 100, restarts: int = 8) -> int:
    """Cluster-count estimate: over-cluster with k_prime, count clusters that
    reach the expected mean size N / k_prime, drop the rest."""
    f = as_mat64(features)
    result = kmeans(f, k_prime, seed=seed, max_iter=max_iter, restarts=restarts)
    sizes = np.bincount(result.assignments, minlength=k_prime)
    return survivor_count(sizes, f.shape[0] / k_prime)
