"""Shared contrastive-loss primitives.

Every loss in this package reduces, per anchor, to one positive
similarity against a set of negative similarities:

    loss = -log( exp(s_pos/tau) / (exp(s_pos/tau) + sum_k exp(s_neg_k/tau)) )

with gradients

    d loss / d s_neg_k = (1/tau) * exp(s_neg_k/tau) / denominator
    d loss / d s_pos   = (1/tau) * (exp(s_pos/tau) / denominator - 1)

so dropping a negative from the set shrinks the denominator and strictly
increases the gradient on every remaining negative. ``contrastive_terms``
computes both sides for one anchor; ``masked_info_nce`` does the same for a
whole similarity matrix at once, with boolean masks naming each row's
positives and negatives, so every loss in the package is a mask builder
around it. Both shift the exponentials by a maximum for stability.

Also here: the pairwise cosine-similarity matrix of a row set and its
backward pass, used by the instance-, cluster- and KCC-level losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError

_NORM_FLOOR = 1e-300


def contrastive_terms(
    s_pos: float, s_neg: np.ndarray, tau: float
) -> tuple[float, float, np.ndarray]:
    """Loss and gradients w.r.t. the positive and each negative similarity."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    s_neg = np.asarray(s_neg, dtype=np.float64).ravel()
    a = float(s_pos) / tau
    b = s_neg / tau
    m = a if b.size == 0 else max(a, float(np.max(b)))
    ea = np.exp(a - m)
    eb = np.exp(b - m)
    denom = ea + float(np.sum(eb))
    loss = float(np.log(denom) + m - a)
    d_pos = (ea / denom - 1.0) / tau
    d_neg = (eb / denom) / tau
    return loss, float(d_pos), d_neg


@dataclass
class CosineCache:
    rows: np.ndarray
    norms: np.ndarray    # (n, 1)
    unit: np.ndarray     # rows / norms


def cosine_rows(rows: np.ndarray) -> tuple[np.ndarray, CosineCache]:
    """Pairwise cosine-similarity matrix of the rows of a matrix."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise DegenerateInputError("cosine similarity of a zero-norm row")
    norms = np.maximum(norms, _NORM_FLOOR)
    unit = rows / norms
    sims = unit @ unit.T
    return sims, CosineCache(rows=rows, norms=norms, unit=unit)


def cosine_rows_backward(cache: CosineCache, d_sims: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the raw rows given gradients on the similarity matrix.

    Entries of ``d_sims`` are treated independently; its diagonal must be
    zero (self-similarity is never part of a loss).
    """
    d_unit = (d_sims + d_sims.T) @ cache.unit
    radial = np.sum(d_unit * cache.unit, axis=1, keepdims=True)
    return (d_unit - radial * cache.unit) / cache.norms


def stable_top_k_mask(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k candidates with the largest scores, ties to the lower index.

    ``candidates`` is a boolean matrix of the same shape as ``scores``; a row
    with at most k candidates keeps them all. Row by row, this is the first k
    of a stable descending argsort of that row's candidate scores.
    """
    if k < 1:
        return np.zeros_like(candidates)
    count = np.count_nonzero(candidates, axis=1)
    if k >= count.max(initial=0):
        return candidates.copy()
    masked = np.where(candidates, scores, -np.inf)
    selected = np.zeros_like(candidates)
    rows = np.arange(scores.shape[0])
    for t in range(k):
        col = np.argmax(masked, axis=1)  # first maximum = lowest index
        live = t < count
        selected[rows[live], col[live]] = True
        masked[rows, col] = -np.inf
    return selected


def masked_info_nce(
    sims: np.ndarray, pos_mask: np.ndarray, neg_mask: np.ndarray, tau: float, row_scale: float
) -> tuple[float, np.ndarray]:
    """``contrastive_terms`` for every (row, positive) pair of a similarity matrix.

    Row i with P_i positives (``pos_mask``) and negative set N_i
    (``neg_mask``, disjoint from the positives) adds, for each positive j,

        row_scale_i / P_i * -log( e_ij / (e_ij + sum_{k in N_i} e_ik) ),

    with e = exp(sims / tau): row_scale is 1 for a summed loss and 1/m for a
    mean over m rows. A row without positives adds nothing, and a row whose
    negative set is empty adds 0. Returns the summed loss and d(loss)/d(sims),
    zero outside the masks.
    """
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    z = np.divide(sims, tau)
    live = pos_mask | neg_mask
    shift = np.max(z, axis=1, keepdims=True, where=live, initial=-np.inf)
    shift[np.isinf(shift)] = 0.0
    z -= shift
    e = np.exp(z, out=np.zeros_like(z), where=live)
    neg_sum = np.sum(e, axis=1, where=neg_mask)
    rows, cols = np.nonzero(pos_mask)
    n_pos = np.bincount(rows, minlength=z.shape[0])
    weight = row_scale / np.maximum(n_pos, 1)
    e_pos = e[rows, cols]
    denom = e_pos + neg_sum[rows]
    w_pos = weight[rows]
    loss = float(np.sum(w_pos * (np.log(denom) - z[rows, cols])))
    inv_denom = np.bincount(rows, weights=w_pos / denom, minlength=z.shape[0])
    d_sims = np.multiply(e, (inv_denom / tau)[:, None], out=z)
    d_sims *= neg_mask
    d_sims[rows, cols] = w_pos * (e_pos / denom - 1.0) / tau
    return loss, d_sims
