"""Minimal dense neural kernels with exact reverse-mode gradients.

Everything runs at 64-bit precision: the finite-difference gradient checker
targets 1e-4 relative error, which 32-bit arithmetic cannot support.  No
framework is involved; forward passes cache what their backward needs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

ACTIVATIONS = ("relu", "sigmoid", "tanh", "linear")
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


def _activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return sigmoid(z)
    if kind == "tanh":
        return np.tanh(z)
    return z


def _activate_grad(z, kind):
    # relu' is taken as 0 at z == 0
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "sigmoid":
        s = sigmoid(z)
        return s * (1.0 - s)
    if kind == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones_like(z)


def dense_forward(layer: DenseLayer, x: np.ndarray):
    """Returns (output, cache); the cache feeds dense_backward."""
    if x.shape != (layer.weights.shape[1],):
        raise ValueError(
            f"input shape {x.shape} does not match layer in-dim {layer.weights.shape[1]}"
        )
    z = layer.weights @ x + layer.bias
    return _activate(z, layer.activation), (x, z)


def dense_backward(layer: DenseLayer, cache, upstream: np.ndarray):
    """Exact chain-rule gradients for one dense layer.

    Returns (d_input, d_weights, d_bias) given d loss / d output.
    """
    x, z = cache
    if upstream.shape != z.shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {z.shape}")
    dz = upstream * _activate_grad(z, layer.activation)
    return layer.weights.T @ dz, np.outer(dz, x), dz.copy()


def weighted_bce(probability: float, label: int, positive_weight: float = 1.0):
    """Class-weighted binary cross entropy and its derivative in p.

    loss = -w+ * y * ln(p) - (1 - y) * ln(1 - p), with p clamped to
    [1e-7, 1 - 1e-7].  With w+ = 1 this is exactly the unweighted loss.
    """
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    if not math.isfinite(positive_weight) or positive_weight <= 0:
        raise ValueError("positive_weight must be finite and > 0")
    p = min(max(float(probability), PROB_CLAMP), 1.0 - PROB_CLAMP)
    if label == 1:
        return -positive_weight * math.log(p), -positive_weight / p
    return -math.log1p(-p), 1.0 / (1.0 - p)


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators; shapes mirror the parameter list."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


def init_optimizer(params, step_size: float = 1e-3) -> OptimizerState:
    return OptimizerState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        step_size=step_size,
    )


def adam_step(params, grads, state: OptimizerState):
    """One bias-corrected adaptive update; pure (inputs are not mutated).

    Returns (new_params, new_state).  From a fresh state a zero gradient
    leaves the parameters unchanged; under a constant gradient g the step
    magnitude approaches step_size * sign(g).
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError("params, grads, and state must have the same length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    t = state.step_count + 1
    new_m, new_v, new_params = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params.append(p - state.step_size * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m)
        new_v.append(v)
    new_state = OptimizerState(
        new_m, new_v, t, state.step_size, state.beta1, state.beta2, state.epsilon
    )
    return new_params, new_state


GRAD_RESOLUTION = 1e-6  # entries smaller than this on both sides are below
# what central differences can resolve at 64 bits: the difference quotient
# carries ~|loss| * eps / h rounding noise plus O(h^2) truncation, i.e.
# ~1e-11 absolute at h = 1e-5, which swamps the relative comparison there.


def grad_check(loss_and_grads, params, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grads(params) -> (loss, grads)`` must be a pure function of the
    parameter list.  Every entry is perturbed by +-h; the relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator.  Entries where both the
    analytic and the numeric value fall below GRAD_RESOLUTION are not scored;
    a wrong gradient still surfaces because either side being large keeps the
    entry in the comparison.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError("h must be in [1e-7, 1e-3]")
    loss, grads = loss_and_grads(params)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss")
    worst = 0.0
    for k, p in enumerate(params):
        flat = p.reshape(-1)
        analytic = np.asarray(grads[k]).reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            bumped = [q.copy() for q in params]
            bumped[k].reshape(-1)[i] = saved + h
            up, _ = loss_and_grads(bumped)
            bumped[k].reshape(-1)[i] = saved - h
            down, _ = loss_and_grads(bumped)
            numeric = (up - down) / (2.0 * h)
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


def save_model_json(path, model_kind: str, dims: dict, layers: list[DenseLayer], extra: dict | None = None):
    """Model parameter file: layers in a fixed per-kind order, optimizer
    state omitted.  json keeps shortest round-trip float text."""
    payload = {
        "format_version": 1,
        "model_kind": model_kind,
        "dims": dims,
        "layers": [layer_to_json(layer) for layer in layers],
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model_json(path) -> dict:
    """Read a model file with its layers built; ParseError unless it is a
    format-1 object whose ``layers`` list holds valid layer objects."""
    with open(path, "r", encoding="utf-8") as fh:
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
