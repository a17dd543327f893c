"""Minimal dense neural kernels with exact reverse-mode gradients.

Everything runs at 64-bit precision: the finite-difference gradient checker
targets 1e-4 relative error, which 32-bit arithmetic cannot support.  No
framework is involved; forward passes cache what their backward needs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, open_utf8

PROB_CLAMP = 1e-7  # keeps binary cross entropy finite


@dataclass
class DenseLayer:
    """Fully connected layer: ``activation(weights @ x + bias)``."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weights must be (out, in) with bias (out,)")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("parameters must be finite")


def sigmoid(x):
    """Elementwise logistic function."""
    return 1.0 / (1.0 + np.exp(-x))


# activation -> (its function of z, its derivative from its output a): the
# forward pass already computed sigmoid(z) and tanh(z), so they are not
# recomputed; relu' is taken as 0 at z == 0, where a == 0
_ACTIVATION_TABLE = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0).astype(float)),
    "sigmoid": (sigmoid, lambda a: a * (1.0 - a)),
    "tanh": (np.tanh, lambda a: 1.0 - a**2),
    "linear": (lambda z: z, np.ones_like),
}
ACTIVATIONS = tuple(_ACTIVATION_TABLE)


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Returns (output, cache) for one input row (in,) or a batch (B, in).
    The cache ``(x, z, a)`` holds the input, the pre-activation and the
    output; dense_backward reads the activation's derivative off ``a``."""
    if x.ndim not in (1, 2) or x.shape[-1] != layer.weights.shape[1]:
        raise ValueError(
            f"input shape {x.shape} does not match layer in-dim {layer.weights.shape[1]}"
        )
    z = x @ layer.weights.T + layer.bias
    a = _ACTIVATION_TABLE[layer.activation][0](z)
    return a, (x, z, a)


def _param_grads(layer: DenseLayer, cache, upstream: np.ndarray):
    """(d loss / d pre-activation, d_weights, d_bias) of one dense layer."""
    x, _, a = cache
    if upstream.shape != a.shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {a.shape}")
    dz = upstream * _ACTIVATION_TABLE[layer.activation][1](a)
    rows = dz.reshape(-1, dz.shape[-1])
    return dz, rows.T @ x.reshape(-1, x.shape[-1]), rows.sum(axis=0)


def dense_backward(layer: DenseLayer, cache, upstream: np.ndarray):
    """Exact chain-rule gradients for one dense layer.

    Returns (d_input, d_weights, d_bias) given d loss / d output; over a
    batch the parameter gradients are summed across rows.
    """
    dz, dw, db = _param_grads(layer, cache, upstream)
    return dz @ layer.weights, dw, db


def stack_forward(layers: list[DenseLayer], x: np.ndarray):
    """Run (B, in) rows through the layers in order; returns (output, caches)
    with one dense_forward cache per layer."""
    caches = []
    for layer in layers:
        x, cache = dense_forward(layer, x)
        caches.append(cache)
    return x, caches


def stack_backward(layers: list[DenseLayer], caches, upstream: np.ndarray) -> list[np.ndarray]:
    """Gradients of a dense stack given d loss / d its output, summed over
    the rows: each layer's weights then bias, in layer order.  The stack's
    input is data, so the first layer's input gradient is not computed."""
    grads = []
    for layer, cache in zip(layers[:0:-1], caches[:0:-1]):
        upstream, dw, db = dense_backward(layer, cache, upstream)
        grads[:0] = [dw, db]
    _, dw, db = _param_grads(layers[0], caches[0], upstream)
    return [dw, db, *grads]


def positive_mask(label, positive_weight: float) -> np.ndarray:
    """The boolean mask ``label == 1``; ValueError unless every label is 0
    or 1 and ``positive_weight`` is finite and > 0."""
    label = np.asarray(label)
    positive = label == 1
    if not (positive | (label == 0)).all():
        raise ValueError("label must be 0 or 1")
    if not math.isfinite(positive_weight) or positive_weight <= 0:
        raise ValueError("positive_weight must be finite and > 0")
    return positive


def weighted_bce(probability, label, positive_weight: float = 1.0):
    """Class-weighted binary cross entropy and its derivative in p, for one
    probability or elementwise over an array of them.

    loss = -w+ * y * ln(p) - (1 - y) * ln(1 - p), with p clamped to
    [1e-7, 1 - 1e-7].  With w+ = 1 this is exactly the unweighted loss.
    Raises ValueError unless every label is 0 or 1 and w+ is finite and > 0.
    """
    return weighted_bce_unchecked(probability, positive_mask(label, positive_weight), positive_weight)


def weighted_bce_unchecked(probability, positive, positive_weight: float):
    """``weighted_bce`` from the boolean mask of the positive labels, with no
    check: the trainers build the mask once from labels and a weight that
    are already valid, and call this at every step."""
    p = np.minimum(np.maximum(np.asarray(probability, dtype=np.float64), PROB_CLAMP), 1.0 - PROB_CLAMP)
    loss = np.where(positive, -positive_weight * np.log(p), -np.log1p(-p))
    grad = np.where(positive, -positive_weight / p, 1.0 / (1.0 - p))
    return loss[()], grad[()]


# adaptive-moment decay rates and denominator guard
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


def adam_step(theta, grad, moments, t: int, step_size: float) -> None:
    """Step ``t`` (counted from 1) of the bias-corrected adaptive update,
    in place: ``theta`` and its ``(first, second)`` moment vectors are
    written, ``grad`` is not.

    From zero moments a zero gradient leaves theta unchanged; under a
    constant gradient g the step magnitude approaches step_size * sign(g).
    """
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameter {theta.shape}")
    m, v = moments
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * grad * grad
    theta -= step_size * (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPSILON)


def _flat_views(arrays):
    """A flat float64 copy of ``arrays`` and one view per array onto it."""
    theta = np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64, copy=False)
    bounds = np.cumsum([0] + [np.size(a) for a in arrays])
    return theta, [theta[lo:hi].reshape(np.shape(a)) for lo, hi, a in zip(bounds, bounds[1:], arrays)]


def _flat_gradient(grads, shapes):
    """The gradient arrays as one flat vector; ValueError unless their
    shapes are ``shapes``, the parameters', which a run fixes."""
    grad_shapes = [g.shape for g in grads]
    if grad_shapes != shapes:
        raise ValueError(f"gradient shapes {grad_shapes} do not match the parameters' {shapes}")
    return np.concatenate([g.ravel() for g in grads])


@dataclass(frozen=True)
class TraceEntry:
    epoch: int
    mean_loss: float
    wall_ms: float


def train_minibatch(arrays, bind, n: int, config, rng, name: str):
    """Minimise a summed loss over n examples with the adaptive optimizer;
    ``config`` supplies ``epochs``, ``batch_size`` and ``learning_rate``.

    The trainer copies ``arrays`` into one flat float64 vector and calls
    ``bind(views)`` once, with one view per array onto it; that returns
    ``batch_loss_and_grads(indices)``, a batch's summed loss and its
    gradient arrays shaped like the arrays (else ValueError).  Each epoch
    walks one ``rng`` permutation of the examples in batches, and each batch
    is one in-place ``adam_step`` on the mean gradient, so layers built over
    the views stay current; the trainer holds the moments and the step
    count.  The trace holds the mean pre-update loss per epoch.  Raises
    ValueError naming ``name`` and the epoch once the loss or a parameter
    turns non-finite.  Returns (arrays, trace); the arrays are copies, and
    the caller's are never written.
    """
    theta, views = _flat_views(arrays)
    batch_loss_and_grads = bind(views)
    shapes = [view.shape for view in views]
    moments = (np.zeros_like(theta), np.zeros_like(theta))
    step = 0
    trace: list[TraceEntry] = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss, grads = batch_loss_and_grads(batch)
            epoch_loss += loss
            grad = _flat_gradient(grads, shapes)
            grad *= 1.0 / len(batch)
            step += 1
            adam_step(theta, grad, moments, step, config.learning_rate)
            if not (math.isfinite(epoch_loss) and np.isfinite(theta).all()):
                raise ValueError(
                    f"{name} training diverged in epoch {epoch + 1} of {config.epochs}: "
                    "non-finite loss or parameters"
                )
        trace.append(TraceEntry(epoch, epoch_loss / n, (time.perf_counter() - started) * 1000.0))
    return [view.copy() for view in views], trace


GRAD_STEP = 1e-5  # the central-difference step h
GRAD_RESOLUTION = 1e-6  # entries smaller than this on both sides are below
# what central differences can resolve at 64 bits: the difference quotient
# carries ~|loss| * eps / h rounding noise plus O(h^2) truncation, i.e.
# ~1e-11 absolute at h = 1e-5, which swamps the relative comparison there.


def grad_check(bind, params) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``params`` is copied once into a flat float64 vector as in
    ``train_minibatch``, and ``bind(views)`` returns ``(loss,
    loss_and_grads)``: ``loss() -> float`` and ``loss_and_grads() -> (loss,
    grads)``, which must read the parameters only through the views, agree
    on the loss, and return gradient arrays shaped like them (else
    ValueError).
    The analytic gradients come from one ``loss_and_grads()``; then each
    entry of the vector in turn is bumped by +-GRAD_STEP in place and
    restored, and the two bumped evaluations call only ``loss()``.  The
    relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    Entries where both the analytic and the numeric value fall below
    GRAD_RESOLUTION are not scored; a wrong gradient still surfaces because
    either side being large keeps the entry in the comparison.
    """
    theta, views = _flat_views(params)
    loss, loss_and_grads = bind(views)
    value, grads = loss_and_grads()
    if not np.isfinite(value):
        raise FloatingPointError("non-finite loss")
    analytic = _flat_gradient(grads, [view.shape for view in views])
    worst = 0.0
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + GRAD_STEP
        up = loss()
        theta[i] = saved - GRAD_STEP
        down = loss()
        theta[i] = saved
        numeric = (up - down) / (2.0 * GRAD_STEP)
        if max(abs(analytic[i]), abs(numeric)) < GRAD_RESOLUTION:
            continue
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def layer_to_json(layer: DenseLayer) -> dict:
    return {
        "weights": layer.weights.tolist(),
        "bias": layer.bias.tolist(),
        "activation": layer.activation,
    }


def layer_from_json(obj: dict) -> DenseLayer:
    return DenseLayer(
        np.asarray(obj["weights"], dtype=np.float64),
        np.asarray(obj["bias"], dtype=np.float64),
        obj["activation"],
    )


def save_model_json(path, model_kind: str, dims: dict, layers: list[DenseLayer], extra: dict):
    """Model parameter file: layers in a fixed per-kind order, then the
    ``extra`` keys; optimizer state omitted.  json keeps shortest
    round-trip float text."""
    payload = {
        "format_version": 1,
        "model_kind": model_kind,
        "dims": dims,
        "layers": [layer_to_json(layer) for layer in layers],
        **extra,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model_json(path) -> dict:
    """Read a model file with its layers built; ParseError unless it is a
    format-1 object whose ``layers`` list holds valid layer objects."""
    with open_utf8(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not JSON: {exc}") from None
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != 1:
        raise ParseError(f"{path}: unsupported model format_version {version!r}")
    if not isinstance(payload.get("layers"), list):
        raise ParseError(f"{path}: 'layers' must be a list")
    for i, obj in enumerate(payload["layers"]):
        try:
            payload["layers"][i] = layer_from_json(obj)
        except KeyError as exc:
            raise ParseError(f"{path}: layer {i} has no {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: layer {i}: {exc}") from None
    return payload
