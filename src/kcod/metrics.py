"""Evaluation metrics for cluster discovery.

Partition-agreement scores (accuracy under optimal cluster-to-class mapping,
adjusted Rand index, normalized mutual information), the silhouette
coefficient, cosine-based intra/inter-class distances, per-class compactness
ratios, and a mapped confusion matrix. All functions are pure.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, MetricUndefinedError, ParameterError
from .numerics import as_mat64, unique_values


@dataclass
class Labeling:
    """Ids paired with integer labels; labels need not be contiguous."""

    ids: list
    labels: np.ndarray

    def __post_init__(self):
        self.ids = list(self.ids)
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if len(self.ids) != self.labels.size:
            raise ParameterError(
                f"{len(self.ids)} ids vs {self.labels.size} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise ParameterError("labels must be non-negative")


def align(pred: Labeling, truth: Labeling) -> tuple[np.ndarray, np.ndarray]:
    """Order prediction labels by the truth's ids. Extra predicted ids are ignored."""
    lookup = {i: int(l) for i, l in zip(pred.ids, pred.labels)}
    out = np.empty(len(truth.ids), dtype=np.int64)
    for pos, sample_id in enumerate(truth.ids):
        if sample_id not in lookup:
            raise AlignmentError(f"id '{sample_id}' missing from prediction")
        out[pos] = lookup[sample_id]
    return out, truth.labels.copy()


def _as_labels(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64).ravel()
    if arr.size == 0:
        raise ParameterError("empty labeling")
    return arr


def _check_pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = _as_labels(pred)
    truth = _as_labels(truth)
    if pred.size != truth.size:
        raise ParameterError(f"length mismatch: {pred.size} vs {truth.size}")
    return pred, truth


def contingency(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count matrix over (predicted cluster, true class), plus the label values."""
    pred, truth = _check_pair(pred, truth)
    pred_values, pi = np.unique(pred, return_inverse=True)
    truth_values, ti = np.unique(truth, return_inverse=True)
    w = np.zeros((pred_values.size, truth_values.size), dtype=np.int64)
    np.add.at(w, (pi, ti), 1)
    return w, pred_values, truth_values


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of a rows <= columns matrix.

    Crouse's shortest augmenting path (IEEE TAES 2016) with the tie rules of
    ``scipy.optimize.linear_sum_assignment``, so both give the same mapping:
    each search scans the columns from the highest index down, a column it
    settles is swapped out of the scan by the last one, and among columns of
    equal reduced cost an unassigned one wins. Plain Python floats do the
    same IEEE arithmetic in the same order, and beat numpy calls at the
    sizes of a contingency table.
    """
    n_rows, n_cols = cost.shape
    c = cost.tolist()
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur in range(n_rows):
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen = []
        cols_seen = []
        min_val = 0.0
        i = cur
        while True:  # grow the shortest-path tree from row cur to a free column
            rows_seen.append(i)
            row, u_i = c[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                reduced = min_val + row[j] - u_i - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] < 0):
                    index, lowest = it, shortest[j]
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for r in rows_seen[1:]:
            u[r] += min_val - shortest[col4row[r]]
        for k in cols_seen:
            v[k] -= min_val - shortest[k]
        while True:  # augment along the path back from column j to row cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.asarray(col4row, dtype=np.int64)


def _optimal_assignment(w: np.ndarray) -> np.ndarray:
    """Maximum-weight one-to-one map on the zero-padded square of w.

    Returns, for each predicted cluster (row of w), its assigned column slot in
    the padded square; slots >= w.shape[1] are phantom classes.
    """
    side = max(w.shape)
    padded = np.zeros((side, side))
    padded[: w.shape[0], : w.shape[1]] = w
    return _min_cost_assignment(-padded)[: w.shape[0]]


def clustering_accuracy(pred, truth) -> float:
    """Fraction correct after the optimal one-to-one cluster-to-class mapping."""
    pred, truth = _check_pair(pred, truth)
    w, _, _ = contingency(pred, truth)
    mapping = _optimal_assignment(w)
    matched = sum(
        int(w[p, mapping[p]]) for p in range(w.shape[0]) if mapping[p] < w.shape[1]
    )
    return matched / pred.size


def _comb2(x: np.ndarray) -> float:
    x = x.astype(np.float64)
    return float(np.sum(x * (x - 1.0) / 2.0))


def ari(pred, truth) -> float:
    """Adjusted Rand index: (Index - Expected) / (Max - Expected) over pair counts."""
    pred, truth = _check_pair(pred, truth)
    if pred.size < 2:
        raise MetricUndefinedError("ARI needs at least 2 points")
    w, _, _ = contingency(pred, truth)
    index = _comb2(w.ravel())
    sum_a = _comb2(w.sum(axis=1))
    sum_b = _comb2(w.sum(axis=0))
    total = _comb2(np.asarray([pred.size]))
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:  # both partitions degenerate in the same way
        return 1.0
    return (index - expected) / (maximum - expected)


def nmi(pred, truth, average: str = "geometric") -> float:
    """Normalized mutual information on natural-log entropies.

    Both entropies zero -> 1.0; exactly one zero -> 0.0. The normalizer is the
    geometric mean of the entropies by default, arithmetic behind the flag.
    """
    if average not in ("geometric", "arithmetic"):
        raise ParameterError(f"unknown average '{average}'")
    pred, truth = _check_pair(pred, truth)
    w, _, _ = contingency(pred, truth)
    n = pred.size
    p_joint = w / n
    p_pred = p_joint.sum(axis=1)
    p_truth = p_joint.sum(axis=0)
    nz = p_joint > 0
    outer = np.outer(p_pred, p_truth)
    info = float(np.sum(p_joint[nz] * np.log(p_joint[nz] / outer[nz])))
    h_pred = -float(np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0])))
    h_truth = -float(np.sum(p_truth[p_truth > 0] * np.log(p_truth[p_truth > 0])))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    if average == "geometric":
        denom = math.sqrt(h_pred * h_truth)
    else:
        denom = (h_pred + h_truth) / 2.0
    return min(max(info / denom, 0.0), 1.0)


TILE_ELEMENTS = 1 << 18  # float64 scratch a silhouette tile may hold, all buffers together
DISTANCE_BUFFERS = 10  # a distance tile's eight lanes, one term and its output rows


def _tile_rows(n: int, buffers: int) -> int:
    """Rows per tile so that ``buffers`` arrays of (rows, n) fit TILE_ELEMENTS."""
    return max(1, min(n, TILE_ELEMENTS // (buffers * max(n, 1))))


def _lane_sum(term, lo: int, hi: int, out: np.ndarray, lanes: np.ndarray) -> None:
    """out = term(lo) + ... + term(hi - 1), added in the order of numpy's pairwise sum.

    ``term(j, buf)`` writes the j-th addend into buf. Below 8 terms the sum is a
    left fold; up to 128 it is eight strided accumulators combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; above that it splits at
    half, rounded down to a multiple of 8. ``lanes`` is (9, *out.shape) scratch,
    or (1, ...) when there are fewer than 8 terms.
    """
    count = hi - lo
    tmp = lanes[-1]
    if count == 0:
        out.fill(0.0)
    elif count < 8:
        term(lo, out)
        for j in range(lo + 1, hi):
            out += term(j, tmp)
    elif count <= 128:
        r = lanes[:8]
        for j in range(8):
            term(lo + j, r[j])
        body = lo + count - count % 8
        for base in range(lo + 8, body, 8):
            for j in range(8):
                r[j] += term(base + j, tmp)
        r[0] += r[1]
        r[2] += r[3]
        r[4] += r[5]
        r[6] += r[7]
        r[0] += r[2]
        r[4] += r[6]
        np.add(r[0], r[4], out=out)
        for j in range(body, hi):
            out += term(j, tmp)
    else:
        half = count // 2
        half -= half % 8
        right = np.empty_like(out)
        _lane_sum(term, lo, lo + half, out, lanes)
        _lane_sum(term, lo + half, hi, right, lanes)
        out += right


def _distance_tile(f: np.ndarray, ft: np.ndarray, lo: int, hi: int, out: np.ndarray,
                   lanes: np.ndarray) -> None:
    """Rows lo..hi-1 of the distance matrix into out, from f and its transpose ft.

    Each squared difference is one (rows, n) term per feature, and the terms
    are lane-summed exactly as ``np.sum`` adds a row of F squares, so every
    distance equals the per-row loop's bit for bit.
    """
    rows = f[lo:hi, :, None]

    def term(j, buf):
        np.subtract(ft[j], rows[:, j], out=buf)
        return np.square(buf, out=buf)

    _lane_sum(term, 0, f.shape[1], out, lanes)
    np.sqrt(out, out=out)


def _distance_lanes(n: int, dim: int) -> np.ndarray:
    """Scratch for one distance tile: (9, rows, n), or (1, rows, n) below 8 features."""
    return np.empty((9 if dim >= 8 else 1, _tile_rows(n, DISTANCE_BUFFERS), n))


def pairwise_distances(
    features: np.ndarray, start: int = 0, stop: int | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Euclidean distances of rows start..stop-1 to every row.

    With the default range this is the full distance matrix. ``out``, when
    given, is a (stop - start, n) buffer the rows are written into. The rows
    are computed in cache-sized tiles, and each equals ``sqrt(sum((f - f[i])**2,
    axis=1))`` exactly.
    """
    f = as_mat64(features)
    n = f.shape[0]
    stop = n if stop is None else stop
    d = np.empty((stop - start, n)) if out is None else out
    ft = np.ascontiguousarray(f.T)
    lanes = _distance_lanes(n, f.shape[1])
    step = lanes.shape[1]
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        _distance_tile(f, ft, lo, hi, d[lo - start : hi - start], lanes[:, : hi - lo])
    return d


def _silhouette_labels(features, assignments) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated features, dense cluster index per row, and cluster sizes."""
    f = as_mat64(features)
    y = _as_labels(assignments)
    if y.size != f.shape[0]:
        raise ParameterError("one assignment per feature row required")
    values, inv = np.unique(y, return_inverse=True)
    if values.size < 2:
        raise MetricUndefinedError("silhouette needs at least 2 clusters")
    return f, inv, np.bincount(inv)


def _silhouette_values(a: np.ndarray, b: np.ndarray, alone: np.ndarray) -> np.ndarray:
    """Per-point (b - a) / max(a, b); 0 for singletons and for a = b = 0."""
    top = np.maximum(a, b)
    scores = np.zeros(a.size)
    np.divide(b - a, top, out=scores, where=(top != 0.0) & ~alone)
    return scores


def silhouette(features, assignments) -> float:
    """Mean silhouette score: s_i = (b_i - a_i) / max(a_i, b_i).

    a_i is the mean Euclidean distance to the rest of the point's own cluster,
    b_i the smallest per-other-cluster mean distance. Singleton clusters score
    0, as do points with a_i = b_i = 0.

    Exact, ``==`` to the plain per-point loop. The rows are stable-sorted by
    cluster once, so each cluster's distances are one contiguous slice of a
    row, summed in index order; the own-cluster mean drops the self column
    with a mask. Distances are lane-summed in tiles of rows (see
    ``pairwise_distances``), and the per-point scores are put back in input
    order before the final mean. Memory is bounded by TILE_ELEMENTS, so it
    grows with N, not N^2.
    """
    f, inv, sizes = _silhouette_labels(features, assignments)
    n, k = inv.size, sizes.size
    order = np.argsort(inv, kind="stable")
    f = f[order]
    ft = np.ascontiguousarray(f.T)
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    own = inv[order]
    lanes = _distance_lanes(n, f.shape[1])
    step = lanes.shape[1]
    buf = np.empty((step, n))
    means = np.empty((step, k))
    a = np.zeros(n)
    b = np.empty(n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = buf[: hi - lo]
        _distance_tile(f, ft, lo, hi, d, lanes[:, : hi - lo])
        block = means[: hi - lo]
        for c in range(k):
            s, e = bounds[c], bounds[c + 1]
            np.mean(d[:, s:e], axis=1, out=block[:, c])
            rs, re = max(lo, s), min(hi, e)
            if rs < re and e - s > 1:
                # each of the cluster's rows drops its own column from the slice
                keep = np.ones((re - rs, e - s), dtype=bool)
                keep[np.arange(re - rs), np.arange(rs - s, re - s)] = False
                a[rs:re] = d[rs - lo : re - lo, s:e][keep].reshape(re - rs, -1).mean(axis=1)
        block[np.arange(hi - lo), own[lo:hi]] = np.inf
        b[lo:hi] = block.min(axis=1)
    scores = np.empty(n)
    scores[order] = _silhouette_values(a, b, sizes[own] == 1)
    return float(np.mean(scores))


def silhouette_gram(features, assignments) -> float:
    """``silhouette`` from Gram-matrix distances, for ranking training epochs.

    Each tile of rows gets its squared distances |x|^2 + |y|^2 - 2 x.y from one
    matmul of augmented rows, [-2x, |x|^2, 1] against [y, 1, |y|^2], then
    sqrt(max(., 0)), and its per-cluster sums from one matmul against the
    one-hot assignment matrix. Tiles are sized by TILE_ELEMENTS, so memory
    grows with N, not N^2. It equals the exact score up to round-off, which
    grows for nearly coincident points, so it serves model selection and
    reports use ``silhouette``.
    """
    f, inv, sizes = _silhouette_labels(features, assignments)
    n, k = inv.size, sizes.size
    rows = np.arange(n)
    onehot = np.zeros((n, k))
    onehot[rows, inv] = 1.0
    sq = np.einsum("ij,ij->i", f, f)[:, None]
    ones = np.ones((n, 1))
    left = np.hstack([-2.0 * f, sq, ones])
    right = np.hstack([f, ones, sq])
    step = _tile_rows(n, 1)
    buf = np.empty((step, n))
    sums = np.empty((n, k))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        d = np.matmul(left[lo:hi], right.T, out=buf[: hi - lo])
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[rows[: hi - lo], rows[lo:hi]] = 0.0
        np.matmul(d, onehot, out=sums[lo:hi])
    a = sums[rows, inv] / np.maximum(sizes[inv] - 1, 1)
    sums /= sizes[None, :]
    sums[rows, inv] = np.inf
    return float(np.mean(_silhouette_values(a, sums.min(axis=1), sizes[inv] == 1)))


def _unit_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms < 1e-300):
        raise ParameterError(f"zero-norm {what} has no cosine direction")
    return rows / norms[:, None]


def _class_centroids(f: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    values, inv = np.unique(y, return_inverse=True)
    centroids = np.empty((values.size, f.shape[1]))
    for c in range(values.size):
        centroids[c] = f[inv == c].mean(axis=0)
    return centroids, values, inv


def intra_inter_distances(features, labels) -> tuple[float, float]:
    """Cosine spread within classes and between class centers.

    intra: mean over samples of 1 - cos(sample, its class centroid).
    inter: mean over centers of the mean 1 - cos to its 3 nearest other
    centers (all others when there are fewer than 4 classes).
    """
    f = as_mat64(features)
    y = _as_labels(labels)
    if y.size != f.shape[0]:
        raise ParameterError("one label per feature row required")
    centroids, values, inv = _class_centroids(f, y)
    if values.size < 2:
        raise ParameterError("need at least 2 classes")
    fu = _unit_rows(f, "sample")
    cu = _unit_rows(centroids, "class centroid")
    intra = float(np.mean(1.0 - np.sum(fu * cu[inv], axis=1)))
    sims = np.clip(cu @ cu.T, -1.0, 1.0)
    take = 3 if values.size >= 4 else values.size - 1
    per_center = np.empty(values.size)
    for c in range(values.size):
        others = np.delete(sims[c], c)
        nearest = np.sort(others)[::-1][:take]  # highest cosine = nearest
        per_center[c] = np.mean(1.0 - nearest)
    return intra, float(np.mean(per_center))


def compactness_ratio(features, labels, cls: int) -> float:
    """Separation-to-spread ratio for one class.

    (mean 1-cos from the class center to the other centers) divided by
    (mean 1-cos of the class members to their center). A collapsed class with
    separated neighbors yields the +infinity sentinel.
    """
    f = as_mat64(features)
    y = _as_labels(labels)
    if y.size != f.shape[0]:
        raise ParameterError("one label per feature row required")
    centroids, values, inv = _class_centroids(f, y)
    if values.size < 2:
        raise ParameterError("need at least 2 classes")
    where = np.where(values == int(cls))[0]
    if where.size == 0:
        raise ParameterError(f"class {cls} not present")
    c = int(where[0])
    cu = _unit_rows(centroids, "class centroid")
    members = _unit_rows(f[inv == c], "sample")
    inter_c = float(np.mean(1.0 - np.clip(np.delete(cu @ cu[c], c), -1.0, 1.0)))
    intra_c = float(np.mean(1.0 - np.clip(members @ cu[c], -1.0, 1.0)))
    if intra_c == 0.0:
        return math.inf if inter_c > 0.0 else math.nan
    return inter_c / intra_c


@dataclass
class ConfusionResult:
    """Counts and row percentages after the optimal cluster-to-class mapping.

    Rows are true classes; columns are mapped slots. The first columns mirror
    the true classes; any extra predicted clusters land in trailing
    "extra_<k>" columns.
    """

    counts: np.ndarray
    percent: np.ndarray
    row_classes: list
    col_labels: list


def confusion_matrix(pred, truth) -> ConfusionResult:
    pred, truth = _check_pair(pred, truth)
    w, _, truth_values = contingency(pred, truth)
    n_pred, n_truth = w.shape
    mapping = _optimal_assignment(w)
    side = max(n_pred, n_truth)
    counts = np.zeros((n_truth, side), dtype=np.int64)
    for p in range(n_pred):
        counts[:, mapping[p]] += w[p]
    percent = 100.0 * counts / counts.sum(axis=1, keepdims=True)
    col_labels = [int(truth_values[s]) if s < n_truth else f"extra_{s - n_truth}" for s in range(side)]
    return ConfusionResult(
        counts=counts,
        percent=percent,
        row_classes=[int(v) for v in truth_values],
        col_labels=col_labels,
    )


@dataclass
class EvalReport:
    acc: float
    ari: float
    nmi: float
    sc: float
    intra_dist: float
    inter_dist: float
    per_class_compactness: dict
    confusion: ConfusionResult

    def to_dict(self) -> dict:
        return {
            "acc": self.acc,
            "ari": self.ari,
            "nmi": self.nmi,
            "sc": self.sc,
            "intra_dist": self.intra_dist,
            "inter_dist": self.inter_dist,
            "per_class_compactness": {str(k): v for k, v in self.per_class_compactness.items()},
            "confusion": {
                "row_classes": self.confusion.row_classes,
                "col_labels": [str(c) for c in self.confusion.col_labels],
                "counts": self.confusion.counts.tolist(),
                "percent": self.confusion.percent.tolist(),
            },
        }


def evaluate(features, pred, truth) -> EvalReport:
    """Full report: agreement scores on predictions, geometry on true classes.

    The silhouette is computed on the predicted partition and reported as NaN
    when that partition is degenerate (a single cluster).
    """
    pred, truth = _check_pair(pred, truth)
    try:
        sc = silhouette(features, pred)
    except MetricUndefinedError:
        sc = math.nan
    intra, inter = intra_inter_distances(features, truth)
    compact = {
        int(c): compactness_ratio(features, truth, int(c)) for c in unique_values(truth)
    }
    return EvalReport(
        acc=clustering_accuracy(pred, truth),
        ari=ari(pred, truth),
        nmi=nmi(pred, truth),
        sc=sc,
        intra_dist=intra,
        inter_dist=inter,
        per_class_compactness=compact,
        confusion=confusion_matrix(pred, truth),
    )


def write_report(report: EvalReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_confusion_csv(result: ConfusionResult, path: str) -> None:
    """Row-percentage matrix as CSV, one row per true class."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_class"] + [str(c) for c in result.col_labels])
        for r, cls in enumerate(result.row_classes):
            writer.writerow([cls] + [repr(float(v)) for v in result.percent[r]])
