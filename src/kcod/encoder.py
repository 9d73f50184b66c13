"""A small feed-forward encoder with instance-level and cluster-level heads.

Layout: input -> hidden (ReLU, dropout) -> feature z; from z three linear
heads produce the unit-norm instance feature f, the cluster probability
vector g (softmax over ``cluster_count`` entries), and in-domain class
logits for cross-entropy training.

Forward passes cache their activations; ``backward`` turns upstream
gradients on (f, g, ind logits) into parameter gradients, and
``adam_step`` applies them. Every mutation bumps ``model.version`` so a
cache from before the update is rejected as stale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DivergenceError, ParameterError, StaleCacheError
from .numerics import softmax_rows

PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4", "w5", "b5")

_F_NORM_FLOOR = 1e-12


@dataclass
class EncoderModel:
    input_dim: int
    hidden_dim: int
    feature_dim: int      # z
    instance_dim: int     # f
    cluster_count: int    # g
    ind_class_count: int
    dropout_rate: float
    params: dict[str, np.ndarray]
    seed: int
    step: int = 0
    version: int = 0

    @classmethod
    def init(
        cls,
        input_dim: int,
        cluster_count: int,
        ind_class_count: int,
        hidden_dim: int = 64,
        feature_dim: int = 32,
        instance_dim: int = 16,
        dropout_rate: float = 0.1,
        seed: int = 0,
    ) -> "EncoderModel":
        if min(input_dim, hidden_dim, feature_dim, instance_dim, cluster_count, ind_class_count) < 1:
            raise ParameterError("all dimensions must be positive")
        if not 0.0 <= dropout_rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {dropout_rate}")
        rng = np.random.default_rng(seed)

        def linear(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
            w = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))
            return w, np.zeros(n_out)

        w1, b1 = linear(input_dim, hidden_dim)
        w2, b2 = linear(hidden_dim, feature_dim)
        w3, b3 = linear(feature_dim, instance_dim)
        w4, b4 = linear(feature_dim, cluster_count)
        w5, b5 = linear(feature_dim, ind_class_count)
        params = dict(w1=w1, b1=b1, w2=w2, b2=b2, w3=w3, b3=b3, w4=w4, b4=b4, w5=w5, b5=b5)
        return cls(
            input_dim=input_dim,
            hidden_dim=hidden_dim,
            feature_dim=feature_dim,
            instance_dim=instance_dim,
            cluster_count=cluster_count,
            ind_class_count=ind_class_count,
            dropout_rate=dropout_rate,
            params=params,
            seed=seed,
        )

    def copy(self) -> "EncoderModel":
        m = EncoderModel(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            feature_dim=self.feature_dim,
            instance_dim=self.instance_dim,
            cluster_count=self.cluster_count,
            ind_class_count=self.ind_class_count,
            dropout_rate=self.dropout_rate,
            params={k: v.copy() for k, v in self.params.items()},
            seed=self.seed,
            step=self.step,
            version=self.version,
        )
        return m

    def with_cluster_count(self, cluster_count: int, seed: int) -> "EncoderModel":
        """Copy of the model with a freshly initialized cluster head of the given width."""
        if cluster_count < 1:
            raise ParameterError("cluster_count must be positive")
        m = self.copy()
        rng = np.random.default_rng(seed)
        m.params["w4"] = rng.normal(0.0, np.sqrt(2.0 / self.feature_dim), size=(self.feature_dim, cluster_count))
        m.params["b4"] = np.zeros(cluster_count)
        m.cluster_count = cluster_count
        m.version += 1
        return m


@dataclass
class BatchForward:
    """Outputs and cached activations of one (batched) forward pass."""

    z: np.ndarray           # (N, feature_dim)
    f: np.ndarray           # (N, instance_dim), rows unit-norm
    g: np.ndarray           # (N, cluster_count), rows sum to 1
    logits_ind: np.ndarray  # (N, ind_class_count)
    cache: dict = field(repr=False, default_factory=dict)
    version: int = 0


def forward_batch(model: EncoderModel, x: np.ndarray, keep: np.ndarray | None = None) -> BatchForward:
    """Forward pass over a batch; ``keep`` is an optional (N, hidden) boolean mask."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.input_dim:
        raise ParameterError(f"expected input dim {model.input_dim}, got {x.shape[1]}")
    p = model.params

    h_pre = x @ p["w1"] + p["b1"]
    h = np.maximum(h_pre, 0.0)
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != h.shape:
            raise ParameterError(f"mask shape {keep.shape} does not match hidden {h.shape}")
        h = h * keep / (1.0 - model.dropout_rate)  # inverted dropout
    z = h @ p["w2"] + p["b2"]
    f_pre = z @ p["w3"] + p["b3"]
    f_norm = np.linalg.norm(f_pre, axis=1, keepdims=True)
    f_norm = np.maximum(f_norm, _F_NORM_FLOOR)
    f = f_pre / f_norm
    g_logits = z @ p["w4"] + p["b4"]
    g = softmax_rows(g_logits)
    logits_ind = z @ p["w5"] + p["b5"]

    cache = dict(x=x, keep=keep, h_pre=h_pre, h=h, z=z, f_pre=f_pre, f_norm=f_norm, f=f, g=g)
    return BatchForward(z=z, f=f, g=g, logits_ind=logits_ind, cache=cache, version=model.version)


def two_views_batch(model: EncoderModel, x: np.ndarray, seed: int) -> BatchForward:
    """Both dropout views of a batch in one forward pass of 2N rows.

    Rows i and i + N are the two views of sample i. The (2N, hidden) keep
    mask holds the same bits as two sequential (N, hidden) draws from
    ``default_rng(seed)``.
    """
    if model.dropout_rate <= 0.0:
        raise ParameterError("two_views_batch requires dropout_rate > 0; views would collapse")
    x = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    keep = rng.random((2 * x.shape[0], model.hidden_dim)) >= model.dropout_rate
    return forward_batch(model, np.vstack([x, x]), keep)


def backward(
    model: EncoderModel,
    out: BatchForward,
    d_f: np.ndarray | None = None,
    d_g: np.ndarray | None = None,
    d_logits_ind: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Parameter gradients from upstream gradients on f, g and/or the IND logits."""
    if out.version != model.version:
        raise StaleCacheError(
            f"cache from model version {out.version}, model is at {model.version}"
        )
    c = out.cache
    p = model.params
    n = c["x"].shape[0]

    d_z = np.zeros((n, model.feature_dim))
    grads: dict[str, np.ndarray] = {}

    if d_f is not None:
        d_f = np.asarray(d_f, dtype=np.float64)
        # through f = f_pre / |f_pre|: project out the radial component
        radial = np.sum(d_f * c["f"], axis=1, keepdims=True)
        d_f_pre = (d_f - radial * c["f"]) / c["f_norm"]
        grads["w3"] = c["z"].T @ d_f_pre
        grads["b3"] = d_f_pre.sum(axis=0)
        d_z += d_f_pre @ p["w3"].T
    else:
        grads["w3"] = np.zeros_like(p["w3"])
        grads["b3"] = np.zeros_like(p["b3"])

    if d_g is not None:
        d_g = np.asarray(d_g, dtype=np.float64)
        # through row softmax
        inner = np.sum(d_g * c["g"], axis=1, keepdims=True)
        d_g_logits = c["g"] * (d_g - inner)
        grads["w4"] = c["z"].T @ d_g_logits
        grads["b4"] = d_g_logits.sum(axis=0)
        d_z += d_g_logits @ p["w4"].T
    else:
        grads["w4"] = np.zeros_like(p["w4"])
        grads["b4"] = np.zeros_like(p["b4"])

    if d_logits_ind is not None:
        d_logits_ind = np.asarray(d_logits_ind, dtype=np.float64)
        grads["w5"] = c["z"].T @ d_logits_ind
        grads["b5"] = d_logits_ind.sum(axis=0)
        d_z += d_logits_ind @ p["w5"].T
    else:
        grads["w5"] = np.zeros_like(p["w5"])
        grads["b5"] = np.zeros_like(p["b5"])

    grads["w2"] = c["h"].T @ d_z
    grads["b2"] = d_z.sum(axis=0)
    d_h = d_z @ p["w2"].T
    if c["keep"] is not None:
        d_h = d_h * c["keep"] / (1.0 - model.dropout_rate)
    d_h_pre = d_h * (c["h_pre"] > 0.0)
    grads["w1"] = c["x"].T @ d_h_pre
    grads["b1"] = d_h_pre.sum(axis=0)
    return grads


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(state: AdamState, model: EncoderModel, grads: dict[str, np.ndarray]) -> EncoderModel:
    """In-place Adam update with bias correction; bumps the model version."""
    for name, g in grads.items():
        if name not in model.params:
            raise ParameterError(f"unknown parameter {name!r}")
        if g.shape != model.params[name].shape:
            raise ParameterError(f"gradient shape mismatch for {name!r}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {name!r}")

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
        model.params[name] -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    model.step += 1
    model.version += 1
    return model


def save_checkpoint(model: EncoderModel, path: str) -> None:
    doc = {
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "feature_dim": model.feature_dim,
        "instance_dim": model.instance_dim,
        "cluster_count": model.cluster_count,
        "ind_class_count": model.ind_class_count,
        "dropout_rate": model.dropout_rate,
        "seed": model.seed,
        "step": model.step,
        "weights": {k: v.ravel().tolist() for k, v in model.params.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# Integer checkpoint fields and the least value each may take.
_CHECKPOINT_INTS = {
    "input_dim": 1,
    "hidden_dim": 1,
    "feature_dim": 1,
    "instance_dim": 1,
    "cluster_count": 1,
    "ind_class_count": 1,
    "seed": 0,
    "step": 0,
}


def _checkpoint_weight(path: str, weights: dict, name: str, size: int) -> np.ndarray:
    try:
        flat = np.asarray(weights[name], dtype=np.float64)
    except KeyError:
        raise DataError(f"checkpoint {path} has no weight {name!r}") from None
    except (TypeError, ValueError):
        raise DataError(f"checkpoint {path}: weight {name!r} is not a list of numbers") from None
    if flat.ndim != 1 or flat.size != size:
        raise DataError(f"checkpoint {path}: weight {name!r} has {flat.size} values, expected {size}")
    if not np.all(np.isfinite(flat)):
        raise DataError(f"checkpoint {path}: weight {name!r} holds non-finite values")
    return flat


def load_checkpoint(path: str) -> EncoderModel:
    """Model from a ``save_checkpoint`` file; a malformed file raises DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    missing = {*_CHECKPOINT_INTS, "dropout_rate", "weights"} - doc.keys()
    if missing:
        raise DataError(f"checkpoint {path} lacks {sorted(missing)}")
    for key, least in _CHECKPOINT_INTS.items():
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise DataError(f"checkpoint {path}: {key} must be an integer >= {least}, got {value!r}")
    rate = doc["dropout_rate"]
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not 0.0 <= rate < 1.0:
        raise DataError(f"checkpoint {path}: dropout_rate must be in [0, 1), got {rate!r}")
    if not isinstance(doc["weights"], dict):
        raise DataError(f"checkpoint {path}: weights must be an object")
    model = EncoderModel.init(
        input_dim=doc["input_dim"],
        cluster_count=doc["cluster_count"],
        ind_class_count=doc["ind_class_count"],
        hidden_dim=doc["hidden_dim"],
        feature_dim=doc["feature_dim"],
        instance_dim=doc["instance_dim"],
        dropout_rate=rate,
        seed=doc["seed"],
    )
    for name in PARAM_NAMES:
        init = model.params[name]
        flat = _checkpoint_weight(path, doc["weights"], name, init.size)
        model.params[name] = flat.reshape(init.shape)
    model.step = doc["step"]
    return model
