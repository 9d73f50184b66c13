#!/usr/bin/env python3
"""Tour of the training objectives on a tiny hand-built batch.

Every loss in the package returns (value, gradients). This script evaluates
each one on small random inputs and confirms the analytic gradients against
central finite differences, printing the relative error.
"""

import numpy as np

from kcod.cluster import (
    ClusterBatchState,
    KccConfig,
    cluster_level_loss,
    entropy_regularizer,
    instance_level_loss,
    kcc_loss,
)
from kcod.contrast import contrastive_terms
from kcod.numerics import finite_diff_grad_nd, relative_error, softmax_rows
from kcod.pretrain import ContrastQueue, KclConfig, ce_loss_batch, kcl_loss

rng = np.random.default_rng(0)


def unit(n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


print("== single positive vs a pool of negatives ==")
loss, d_pos, d_neg = contrastive_terms(0.9, np.array([0.5, 0.1, -0.3]), 0.5)
print(f"loss {loss:.6f}  d_pos {d_pos:.6f}  d_neg {np.round(d_neg, 6)}")
print(f"gradients sum to {d_pos + d_neg.sum():+.2e} (softmax identity)")

print("\n== knn-contrastive pretraining loss ==")
f = unit(4, 6)
labels = np.array([0, 1, 0, 1])
queue = ContrastQueue(capacity=16, dim=6)
queue.push(unit(16, 6), rng.integers(0, 2, size=16).astype(np.int64))
config = KclConfig(k=3, tau=0.5)
value, d_f = kcl_loss(f, labels, queue, config)
err = relative_error(finite_diff_grad_nd(lambda m: kcl_loss(m, labels, queue, config)[0], f), d_f)
print(f"loss {value:.6f}  grad check rel err {err:.2e}")

print("\n== two-view batch: cluster level, instance level, mined negatives ==")
n, c, dim = 5, 3, 6
state = ClusterBatchState(
    f_views=unit(2 * n, dim),
    g_a=softmax_rows(rng.normal(size=(n, c)), 1.0),
    g_b=softmax_rows(rng.normal(size=(n, c)), 1.0),
)
clu, d_ga, d_gb = cluster_level_loss(state, 1.0)
ins, d_fv = instance_level_loss(state, 0.5)
kcfg = KccConfig(threshold=0.7, k_neg=3, tau=0.5)
mined, d_fm = kcc_loss(state, kcfg)
print(f"cluster-level {clu:.6f}  instance-level {ins:.6f}  mined-negative {mined:.6f}")

err_g = relative_error(
    finite_diff_grad_nd(
        lambda g: cluster_level_loss(
            ClusterBatchState(f_views=state.f_views, g_a=g, g_b=state.g_b), 1.0
        )[0],
        state.g_a,
    ),
    d_ga,
)
err_f = relative_error(
    finite_diff_grad_nd(
        lambda fv: instance_level_loss(
            ClusterBatchState(f_views=fv, g_a=state.g_a, g_b=state.g_b), 0.5
        )[0],
        state.f_views,
    ),
    d_fv,
)
print(f"grad checks: cluster-level {err_g:.2e}  instance-level {err_f:.2e}")

print("\n== cross entropy and the balance penalty ==")
logits = rng.normal(size=(4, 3))
y = np.array([0, 2, 1, 1])
ce, d_logits = ce_loss_batch(logits, y)
g = softmax_rows(rng.normal(size=(6, 4)), 1.0)
pen, d_pen = entropy_regularizer(g)
print(f"ce {ce:.6f}  balance penalty {pen:.6f}")
err_ce = relative_error(finite_diff_grad_nd(lambda z: ce_loss_batch(z, y)[0], logits), d_logits)
err_pen = relative_error(finite_diff_grad_nd(lambda m: entropy_regularizer(m)[0], g), d_pen)
print(f"grad checks: ce {err_ce:.2e}  penalty {err_pen:.2e}")
