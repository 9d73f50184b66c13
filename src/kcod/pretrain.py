"""In-domain pre-training: cross-entropy plus the KNN-contrastive objective.

Positives for an anchor are its K most similar same-class entries in a
dynamic queue; negatives are every queue entry of a different class. The
queue is refreshed each iteration by encoding 10 randomly drawn
same-class training samples per batch element (no gradient flows into
queue entries), and holds at most 10 x batch_size entries FIFO.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .contrast import masked_info_nce, stable_top_k_mask
from .data import Dataset
from .encoder import AdamState, EncoderModel, adam_step, backward, forward_batch
from .errors import DataError, EmptyObjectiveError, ParameterError

SAMPLES_PER_ANCHOR = 10
QUEUE_FACTOR = 10  # capacity = QUEUE_FACTOR * batch_size


@dataclass
class KclConfig:
    k: int = 3
    tau: float = 0.5
    ce_weight: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")


@dataclass
class ContrastQueue:
    """Fixed-capacity FIFO of (feature, label) pairs; index 0 is the oldest entry."""

    capacity: int
    dim: int
    features: np.ndarray = field(default=None)
    labels: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.capacity < 1:
            raise ParameterError(f"capacity must be positive, got {self.capacity}")
        if self.features is None:
            self.features = np.zeros((0, self.dim))
        if self.labels is None:
            self.labels = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.features.shape[0]

    def push(self, features: np.ndarray, labels: np.ndarray) -> None:
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2 or features.shape[1] != self.dim:
            raise ParameterError(f"expected (n, {self.dim}) features, got {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ParameterError("labels must align with features")
        self.features = np.concatenate([self.features, features])[-self.capacity :]
        self.labels = np.concatenate([self.labels, labels])[-self.capacity :]


def class_index(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Label value -> array of sample indices."""
    return {int(c): np.where(labels == c)[0] for c in np.unique(labels)}


def refresh_queue(
    queue: ContrastQueue,
    model: EncoderModel,
    batch_labels: np.ndarray,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    rng: np.random.Generator,
    by_class: dict[int, np.ndarray] | None = None,
) -> ContrastQueue:
    """Enqueue 10 freshly encoded same-class training samples per batch element.

    All picks come from one ``rng.integers`` call over a class-sorted pool;
    it draws the same indices, and leaves the generator in the same state,
    as one ``rng.choice(pool, 10)`` per batch element in turn.
    """
    if by_class is None:
        by_class = class_index(train_labels)
    labels = np.asarray(batch_labels, dtype=np.int64).ravel()
    present, slot = np.unique(labels, return_inverse=True)
    pools = []
    for label in present:
        pool = by_class.get(int(label))
        if pool is None or pool.size == 0:
            raise DataError(f"no training example for class {int(label)}")
        pools.append(pool)
    sizes = np.asarray([pool.size for pool in pools], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    draws = rng.integers(0, np.repeat(sizes[slot], SAMPLES_PER_ANCHOR))
    idx = np.concatenate(pools)[np.repeat(starts[slot], SAMPLES_PER_ANCHOR) + draws]
    out = forward_batch(model, train_features[idx])  # no mask, no gradient
    queue.push(out.f, np.repeat(labels, SAMPLES_PER_ANCHOR))
    return queue


def kcl_loss(
    f: np.ndarray, labels: np.ndarray, queue: ContrastQueue, config: KclConfig
) -> tuple[float, np.ndarray]:
    """KNN-contrastive loss over a batch; gradients flow to anchors only.

    Per anchor i with positive set K_i (k nearest same-class queue entries):

        -(1/|K_i|) sum_{j in K_i} log exp(f_i.f_j/tau) /
                                      (exp(f_i.f_j/tau) + sum_neg exp(f_i.f_k/tau))

    summed over anchors. Anchors with no same-class entry are skipped; each
    per-positive denominator holds that positive plus every different-class
    queue entry. Positives are picked by cosine, ties to the lower queue
    index.
    """
    f = np.asarray(f, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if len(queue) == 0:
        raise EmptyObjectiveError("queue is empty")
    q = queue.features
    sims = f @ q.T
    cosine = sims / (np.linalg.norm(f, axis=1)[:, None] * np.linalg.norm(q, axis=1)[None, :])
    same = labels[:, None] == queue.labels[None, :]
    pos = stable_top_k_mask(cosine, same, config.k)
    if not pos.any():
        raise EmptyObjectiveError("no anchor had a same-class queue entry")
    total, d_sims = masked_info_nce(sims, pos, ~same, config.tau, 1.0)
    return total, d_sims @ q


def ce_loss_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed cross-entropy over a batch, with per-row gradients."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if labels.min(initial=0) < 0 or labels.max(initial=-1) >= logits.shape[1]:
        raise ParameterError("label out of range")
    z = logits - np.max(logits, axis=1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=1)
    p = e / denom[:, None]
    rows = np.arange(logits.shape[0])
    loss = float(np.sum(np.log(denom) - z[rows, labels]))
    grad = p.copy()
    grad[rows, labels] -= 1.0
    return loss, grad


@dataclass
class PretrainEpoch:
    epoch: int
    ce_loss: float
    kcl_loss: float
    total_loss: float


def pretrain(
    model: EncoderModel,
    ind_dataset: Dataset,
    epochs: int,
    batch_size: int,
    config: KclConfig,
    seed: int,
    learning_rate: float = 5e-3,
) -> tuple[EncoderModel, list[PretrainEpoch]]:
    """Joint CE + KCL training on the in-domain set. Deterministic under seed.

    Losses are logged as per-sample epoch means; class labels are remapped to
    a contiguous 0..C-1 range internally.
    """
    if epochs < 0:
        raise ParameterError("epochs must be >= 0")
    if batch_size < 1:
        raise ParameterError("batch_size must be >= 1")
    classes = ind_dataset.class_labels()
    if classes.size < 2:
        raise DataError(f"pre-training needs >= 2 classes, got {classes.size}")
    if model.ind_class_count != classes.size:
        raise ParameterError(
            f"model has {model.ind_class_count} IND classes, dataset has {classes.size}"
        )
    remap = {int(c): i for i, c in enumerate(classes)}
    y = np.asarray([remap[int(l)] for l in ind_dataset.labels], dtype=np.int64)
    x = ind_dataset.features
    by_class = class_index(y)

    rng = np.random.default_rng(seed)
    queue = ContrastQueue(capacity=QUEUE_FACTOR * batch_size, dim=model.instance_dim)
    adam = AdamState(learning_rate=learning_rate)
    log: list[PretrainEpoch] = []
    n = len(ind_dataset)

    for epoch in range(epochs):
        order = rng.permutation(n)
        ce_sum = 0.0
        kcl_sum = 0.0
        for lo in range(0, n, batch_size):
            batch = order[lo : lo + batch_size]
            xb, yb = x[batch], y[batch]
            refresh_queue(queue, model, yb, x, y, rng, by_class)
            out = forward_batch(model, xb)
            ce_total, d_logits = ce_loss_batch(out.logits_ind, yb)
            kcl_total, d_f = kcl_loss(out.f, yb, queue, config)
            grads = backward(model, out, d_f=d_f, d_logits_ind=config.ce_weight * d_logits)
            adam_step(adam, model, grads)
            ce_sum += ce_total
            kcl_sum += kcl_total
        ce_mean = ce_sum / n
        kcl_mean = kcl_sum / n
        log.append(
            PretrainEpoch(
                epoch=epoch,
                ce_loss=ce_mean,
                kcl_loss=kcl_mean,
                total_loss=config.ce_weight * ce_mean + kcl_mean,
            )
        )
    return model, log


def write_pretrain_log(log: list[PretrainEpoch], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "ce_loss", "kcl_loss", "total_loss"])
        for rec in log:
            writer.writerow(
                [rec.epoch] + [repr(float(v)) for v in (rec.ce_loss, rec.kcl_loss, rec.total_loss)]
            )
