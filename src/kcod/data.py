"""Synthetic dataset generation, IND/OOD class splits, and JSONL round-trip I/O.

Datasets are column-oriented: ids, a float64 feature matrix, integer
labels, and an IND/OOD role tag per sample. One JSONL record per sample:

    {"id": "s00000", "label": 3, "role": "ind", "features": [0.1, ...]}

Features are written with 17 significant digits so the 64-bit values
round-trip exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ParseError
from .numerics import unique_values

ROLE_IND = "ind"
ROLE_OOD = "ood"


@dataclass
class Dataset:
    ids: list[str]
    features: np.ndarray  # (N, dim)
    labels: np.ndarray    # (N,) int
    roles: list[str]

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.features.shape[1]) if self.features.ndim == 2 else 0

    def class_labels(self) -> np.ndarray:
        return unique_values(self.labels)

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            ids=[self.ids[i] for i in idx],
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            roles=[self.roles[i] for i in idx],
        )


@dataclass
class SplitSpec:
    total_classes: int
    ood_ratio: float
    seed: int


def empty_dataset(dim: int = 0) -> Dataset:
    return Dataset(ids=[], features=np.zeros((0, dim)), labels=np.zeros(0, dtype=np.int64), roles=[])


def gen_blobs(
    classes: int,
    per_class: int,
    dim: int,
    center_scale: float,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Isotropic Gaussian blobs around class centers drawn on a sphere."""
    if classes < 2:
        raise ParameterError(f"need at least 2 classes, got {classes}")
    if dim < 2:
        raise ParameterError(f"need dim >= 2, got {dim}")
    if per_class < 1:
        raise ParameterError(f"need per_class >= 1, got {per_class}")
    if not 0 <= noise_sigma < np.inf:
        raise ParameterError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not np.isfinite(center_scale):
        raise ParameterError(f"center_scale must be finite, got {center_scale}")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    centers = directions * center_scale

    n = classes * per_class
    features = np.zeros((n, dim))
    labels = np.zeros(n, dtype=np.int64)
    for c in range(classes):
        lo = c * per_class
        features[lo : lo + per_class] = centers[c] + rng.normal(0.0, 1.0, size=(per_class, dim)) * noise_sigma
        labels[lo : lo + per_class] = c
    ids = [f"s{i:05d}" for i in range(n)]
    return Dataset(ids=ids, features=features, labels=labels, roles=[ROLE_IND] * n)


def split_ind_ood(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Class-level split: a seeded choice of OOD classes, the rest IND."""
    present = dataset.class_labels()
    if spec.total_classes != present.size:
        raise ParameterError(
            f"spec says {spec.total_classes} classes, dataset has {present.size}"
        )
    n_ood = int(round(spec.total_classes * spec.ood_ratio))
    n_ind = spec.total_classes - n_ood
    if n_ood < 2 or n_ind < 2:
        raise ParameterError(
            f"split leaves {n_ind} IND / {n_ood} OOD classes; need at least 2 on each side"
        )
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(present)
    ood_classes = set(int(c) for c in order[:n_ood])

    ood_mask = np.array([int(l) in ood_classes for l in dataset.labels])
    ind = dataset.subset(np.where(~ood_mask)[0])
    ood = dataset.subset(np.where(ood_mask)[0])
    ind.roles = [ROLE_IND] * len(ind)
    ood.roles = [ROLE_OOD] * len(ood)
    return ind, ood


def _format_features(values: np.ndarray) -> str:
    return "[" + ", ".join(format(float(v), ".17g") for v in values) + "]"


def save_jsonl(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, label, role, features in zip(
            dataset.ids, dataset.labels, dataset.roles, dataset.features
        ):
            fh.write(
                '{"id": %s, "label": %d, "role": "%s", "features": %s}\n'
                % (json.dumps(sample_id), label, role, _format_features(features))
            )


_REQUIRED_KEYS = {"id", "label", "role", "features"}


def load_jsonl(path: str) -> Dataset:
    ids: list[str] = []
    rows: list[np.ndarray] = []
    labels: list[int] = []
    roles: list[str] = []
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ParseError(line_no, "record is not an object")
            missing = _REQUIRED_KEYS - rec.keys()
            if missing:
                raise ParseError(line_no, f"missing {sorted(missing)}")
            extra = rec.keys() - _REQUIRED_KEYS
            if extra:
                raise ParseError(line_no, f"unknown keys {sorted(extra)}")
            if not isinstance(rec["id"], str):
                raise ParseError(line_no, "id must be a string")
            if isinstance(rec["label"], bool) or not isinstance(rec["label"], int) or rec["label"] < 0:
                raise ParseError(line_no, "label must be a non-negative integer")
            if rec["role"] not in (ROLE_IND, ROLE_OOD):
                raise ParseError(line_no, f"role must be '{ROLE_IND}' or '{ROLE_OOD}'")
            if not isinstance(rec["features"], list) or not rec["features"]:
                raise ParseError(line_no, "features must be a non-empty array")
            try:
                vec = np.asarray(rec["features"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ParseError(line_no, "features must be numeric") from exc
            if vec.ndim != 1 or not np.all(np.isfinite(vec)):
                raise ParseError(line_no, "features must be a flat array of finite numbers")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(
                    f"line {line_no}: feature dim {vec.size} differs from earlier records ({dim})"
                )
            ids.append(rec["id"])
            rows.append(vec)
            labels.append(rec["label"])
            roles.append(rec["role"])
    if not ids:
        return empty_dataset()
    return Dataset(
        ids=ids,
        features=np.vstack(rows),
        labels=np.asarray(labels, dtype=np.int64),
        roles=roles,
    )


def save_assignments(ids: list[str], clusters, path: str) -> None:
    """Cluster results as JSONL, one {"id", "cluster"} object per line."""
    clusters = np.asarray(clusters, dtype=np.int64).ravel()
    if len(ids) != clusters.size:
        raise ParameterError(f"{len(ids)} ids vs {clusters.size} cluster ids")
    with open(path, "w", encoding="utf-8") as fh:
        for sample_id, cluster in zip(ids, clusters):
            fh.write('{"id": %s, "cluster": %d}\n' % (json.dumps(sample_id), int(cluster)))


def load_assignments(path: str) -> tuple[list[str], np.ndarray]:
    ids: list[str] = []
    clusters: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or set(rec.keys()) != {"id", "cluster"}:
                raise ParseError(line_no, 'expected exactly the keys "id" and "cluster"')
            if not isinstance(rec["id"], str):
                raise ParseError(line_no, "id must be a string")
            if isinstance(rec["cluster"], bool) or not isinstance(rec["cluster"], int) or rec["cluster"] < 0:
                raise ParseError(line_no, "cluster must be a non-negative integer")
            ids.append(rec["id"])
            clusters.append(rec["cluster"])
    return ids, np.asarray(clusters, dtype=np.int64)
