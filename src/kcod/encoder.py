"""A small feed-forward encoder with instance-level and cluster-level heads.

Layout: input -> hidden (ReLU, dropout) -> feature z; from z three linear
heads produce the unit-norm instance feature f, the cluster probability
vector g (softmax over ``cluster_count`` entries), and in-domain class
logits for cross-entropy training. Every parameter is a named view into one
float64 vector, ``model.flat``, laid out by the ``LAYERS`` table.

Forward passes cache their activations; ``backward`` turns upstream
gradients on (f, g, ind logits) into one flat gradient, ``adam_step``
applies it to the whole vector, and ``train_epochs`` is the shuffled
mini-batch loop of both training stages. Every mutation bumps
``model.version`` so a cache from before the update is rejected as stale.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, DivergenceError, ParameterError, StaleCacheError
from .numerics import softmax_rows

# The parameter layout: (weight, bias, fan-in, fan-out) per linear layer, fans
# named by model dimension, in flat-buffer and init-draw order.
LAYERS = (
    ("w1", "b1", "input_dim", "hidden_dim"),
    ("w2", "b2", "hidden_dim", "feature_dim"),
    ("w3", "b3", "feature_dim", "instance_dim"),
    ("w4", "b4", "feature_dim", "cluster_count"),
    ("w5", "b5", "feature_dim", "ind_class_count"),
)

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
    seed: int
    flat: np.ndarray | None = None  # every parameter; zeros when not given
    step: int = 0
    version: int = 0
    params: dict[str, np.ndarray] = field(init=False, repr=False)  # views into flat

    def __post_init__(self):
        shapes = self._shapes().values()
        if min(map(min, shapes)) < 1:
            raise ParameterError("all dimensions must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")
        size = sum(map(math.prod, shapes))
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.shape != (size,):
            raise ParameterError(f"expected {size} parameters, got shape {self.flat.shape}")
        self.params = self.views(self.flat)

    def _shapes(self) -> dict[str, tuple[int, ...]]:
        """Parameter name -> shape, in flat-buffer order."""
        out = {}
        for w, b, fan_in, fan_out in LAYERS:
            out[w] = (getattr(self, fan_in), getattr(self, fan_out))
            out[b] = out[w][1:]
        return out

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a vector in this model's parameter layout."""
        out, lo = {}, 0
        for name, shape in self._shapes().items():
            hi = lo + math.prod(shape)
            out[name] = flat[lo:hi].reshape(shape)
            lo = hi
        return out

    def _draw(self, weight: str, rng: np.random.Generator) -> None:
        """He-normal init of one weight; biases stay zero."""
        w = self.params[weight]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

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
        model = cls(input_dim, hidden_dim, feature_dim, instance_dim, cluster_count,
                    ind_class_count, dropout_rate, seed)
        rng = np.random.default_rng(seed)
        for w, *_ in LAYERS:
            model._draw(w, rng)
        return model

    def copy(self) -> "EncoderModel":
        return dataclasses.replace(self, flat=self.flat.copy())

    def with_cluster_count(self, cluster_count: int, seed: int) -> "EncoderModel":
        """Copy of the model with a freshly initialized cluster head of the given width."""
        m = dataclasses.replace(self, cluster_count=cluster_count, flat=None, version=self.version + 1)
        for name, value in self.params.items():
            if name not in ("w4", "b4"):
                m.params[name][...] = value
        m._draw("w4", np.random.default_rng(seed))
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
) -> np.ndarray:
    """Flat parameter gradient from upstream gradients on f, g and/or the IND logits.

    A head without an upstream gradient gets zeros; ``model.views`` names
    the parts of the returned vector.
    """
    if out.version != model.version:
        raise StaleCacheError(
            f"cache from model version {out.version}, model is at {model.version}"
        )
    c = out.cache
    p = model.params
    n = c["x"].shape[0]

    flat = np.zeros(model.flat.size)
    grads = model.views(flat)

    def linear(w: str, b: str, inputs: np.ndarray, d_out: np.ndarray) -> np.ndarray:
        """Fill one linear layer's gradients; return the gradient on its inputs."""
        grads[w][...] = inputs.T @ d_out
        grads[b][...] = d_out.sum(axis=0)
        return d_out @ p[w].T

    d_z = np.zeros((n, model.feature_dim))
    if d_f is not None:
        d_f = np.asarray(d_f, dtype=np.float64)
        # through f = f_pre / |f_pre|: project out the radial component
        radial = np.sum(d_f * c["f"], axis=1, keepdims=True)
        d_z += linear("w3", "b3", c["z"], (d_f - radial * c["f"]) / c["f_norm"])
    if d_g is not None:
        d_g = np.asarray(d_g, dtype=np.float64)
        # through row softmax
        inner = np.sum(d_g * c["g"], axis=1, keepdims=True)
        d_z += linear("w4", "b4", c["z"], c["g"] * (d_g - inner))
    if d_logits_ind is not None:
        d_z += linear("w5", "b5", c["z"], np.asarray(d_logits_ind, dtype=np.float64))

    d_h = linear("w2", "b2", c["h"], d_z)
    if c["keep"] is not None:
        d_h = d_h * c["keep"] / (1.0 - model.dropout_rate)
    d_h_pre = d_h * (c["h_pre"] > 0.0)
    grads["w1"][...] = c["x"].T @ d_h_pre
    grads["b1"][...] = d_h_pre.sum(axis=0)
    return flat


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None  # first and second moments of the flat gradient
    v: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise ParameterError(f"learning rate must be finite and > 0, got {self.learning_rate}")


def adam_step(state: AdamState, model: EncoderModel, grad: np.ndarray) -> EncoderModel:
    """In-place Adam update (Kingma & Ba) of the whole flat buffer; bumps the model version."""
    if grad.shape != model.flat.shape:
        raise ParameterError(f"gradient shape {grad.shape} does not match {model.flat.shape}")
    if not np.all(np.isfinite(grad)):
        name = next(k for k, g in model.views(grad).items() if not np.all(np.isfinite(g)))
        raise DivergenceError(f"non-finite gradient for {name!r}")

    state.step += 1
    t = state.step
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * grad
    state.v *= state.beta2
    state.v += (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    model.flat -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
    model.step += 1
    model.version += 1
    return model


def train_epochs(
    model: EncoderModel,
    n: int,
    epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    learning_rate: float,
    step: Callable[[np.ndarray], tuple[tuple, np.ndarray] | None],
    end_epoch: Callable[[int, np.ndarray | float, int], None],
) -> None:
    """Shuffled mini-batch Adam over ``range(n)``: one ``rng`` permutation per epoch.

    ``step(batch)`` returns the batch's loss values and flat gradient, or None
    to skip it. ``end_epoch(epoch, sums, batches)`` gets the values summed over
    the stepped batches (0.0 if none) and their count.
    """
    if epochs < 0:
        raise ParameterError("epochs must be >= 0")
    adam = AdamState(learning_rate=learning_rate)
    for epoch in range(epochs):
        order = rng.permutation(n)
        sums, batches = 0.0, 0
        for lo in range(0, n, batch_size):
            result = step(order[lo : lo + batch_size])
            if result is None:
                continue
            values, grad = result
            adam_step(adam, model, grad)
            sums += np.asarray(values)
            batches += 1
        end_epoch(epoch, sums, batches)


# The checkpoint's integer fields and the least value each may take: the
# model dimensions in the order LAYERS first names them, the seed and the step.
_CHECKPOINT_INTS = {**dict.fromkeys((d for *_, a, b in LAYERS for d in (a, b)), 1), "seed": 0, "step": 0}


def save_checkpoint(model: EncoderModel, path: str) -> None:
    doc = {key: getattr(model, key) for key in (*_CHECKPOINT_INTS, "dropout_rate")}
    doc["weights"] = {k: v.ravel().tolist() for k, v in model.params.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


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
    model = EncoderModel(**{key: doc[key] for key in _CHECKPOINT_INTS}, dropout_rate=rate)
    for name, view in model.params.items():
        view[...] = _checkpoint_weight(path, doc["weights"], name, view.size).reshape(view.shape)
    return model
