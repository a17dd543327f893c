"""Traveler-embedding models over sequences of viewed-listing embeddings.

Five kinds share one training and inference surface:

* ``random``    -- picks one viewed embedding (untrained baseline)
* ``average``   -- mean-pools the views, trains only a scoring head
* ``dan``       -- mean-pool, then expand/contract relu layers; the last
                   hidden layer is the traveler embedding
* ``lstm``      -- four-gate recurrence over the view sequence
* ``lstm_attention`` -- additive attention over all hidden states

Each kind has one ordered layer spec of ``(name, out, in, activation)``
entries computed from its ``dims`` (see ``KINDS``); parameters are a
``{name: DenseLayer}`` dict in spec order, which is also the gradient order
and the on-disk layer order.

All trainable kinds minimise class-weighted binary cross entropy on booking
labels with the mini-batch loop from :mod:`.neural`; every gradient is
hand-derived and checked against finite differences.  Average and DAN run a
batch as one pass of the dense-stack kernel over the segment means of its
view prefixes; the LSTM kinds run one example at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import neural
from .corpus import LabeledPrefix
from .errors import ConfigError, ParseError
from .neural import DenseLayer, TraceEntry, dense_backward, dense_forward, sigmoid
from .skipgram import EmbeddingTable

LayerSpec = tuple[str, int, int, str]  # (name, out, in, activation)
Params = dict[str, DenseLayer]

# forget/input/candidate/output gates over the concatenated [h_prev, view]
GATES = (("forget", "sigmoid"), ("input", "sigmoid"), ("cell", "tanh"), ("output", "sigmoid"))

TRAINABLE_KINDS = ("average", "dan", "lstm", "lstm_attention")
ALL_KINDS = ("random",) + TRAINABLE_KINDS


@dataclass(frozen=True)
class TravelerExample:
    """One supervised case: a labeled view prefix and the embedding rows of
    its in-vocabulary views."""

    prefix: LabeledPrefix
    viewed: np.ndarray  # (t, d)

    def __post_init__(self):
        if self.viewed.ndim != 2 or self.viewed.shape[0] < 1:
            raise ValueError("viewed must be a non-empty (t, d) matrix")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")

    @property
    def label(self) -> int:
        return self.prefix.label


@dataclass
class TravelerModel:
    kind: str
    params: Params | None  # None for the random baseline
    input_dim: int
    seed: int = 0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; valid: {', '.join(ALL_KINDS)}")


@dataclass(frozen=True)
class TravelerConfig:
    input_dim: int = 32
    hidden_expand: int = 64
    hidden_contract: int = 16
    embedding_dim: int = 8
    lstm_hidden: int = 16
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 2e-3
    positive_class_weight: float | None = None  # None -> negatives/positives
    seed: int = 0

    def __post_init__(self):
        check_training_fields(self)
        if not self.hidden_expand > self.input_dim >= self.hidden_contract > self.embedding_dim:
            raise ConfigError("dims must satisfy expand > input >= contract > embedding")
        if self.lstm_hidden < 1:
            raise ConfigError("lstm_hidden must be >= 1")


def check_training_fields(config) -> None:
    """ConfigError unless a trainer config's ``epochs`` and ``batch_size``
    are >= 1, its ``learning_rate`` is finite and > 0, and its
    ``positive_class_weight`` is None or finite and > 0."""
    if config.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if config.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not (math.isfinite(config.learning_rate) and config.learning_rate > 0):
        raise ConfigError("learning_rate must be finite and > 0")
    weight = config.positive_class_weight
    if weight is not None and not (math.isfinite(weight) and weight > 0):
        raise ConfigError("positive_class_weight must be finite and > 0")


def positive_class_weight(labels: np.ndarray, configured: float | None) -> float:
    """The configured positive-class weight, else negatives / positives;
    ValueError unless both classes occur."""
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise ValueError("degenerate labels: need at least one example of each class")
    return configured if configured is not None else (len(labels) - n_pos) / n_pos


def pool_average(viewed_list: list[np.ndarray]) -> np.ndarray:
    """Segment means: row b is the coordinate-wise mean of ``viewed_list[b]``."""
    lengths = np.array([len(viewed) for viewed in viewed_list])
    if len(lengths) == 0 or lengths.min() == 0:
        raise ValueError("cannot pool an empty sequence")
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    return np.add.reduceat(np.concatenate(viewed_list), starts, axis=0) / lengths[:, None]


def baseline_random(viewed: np.ndarray, rng) -> np.ndarray:
    """One uniformly chosen viewed embedding."""
    if len(viewed) == 0:
        raise ValueError("cannot select from an empty sequence")
    return viewed[int(rng.integers(len(viewed)))]


def build_examples(
    prefixes: list[LabeledPrefix], key_to_index: dict[str, int], table: EmbeddingTable
) -> list[TravelerExample]:
    """Map labeled view prefixes to embedding-row sequences.

    Out-of-vocabulary views are dropped; prefixes left without any view are
    skipped because there is nothing to embed.  Each example keeps its
    prefix, so the downstream evaluation reads both from one list.
    """
    examples = []
    for case in prefixes:
        rows = [key_to_index[it.listing_key] for it in case.views if it.listing_key in key_to_index]
        if rows:
            examples.append(TravelerExample(case, table.input_vectors[rows]))
    return examples


# ---------------------------------------------------------------------------
# kernels per kind


def _pooled_forward(params: Params, viewed: np.ndarray):
    """Average and DAN: the dense stack over the pooled views.  The traveler
    embedding is what the head reads: the pooled vector, or DAN's last
    hidden layer."""
    out, caches = neural.stack_forward(list(params.values()), pool_average([viewed]))
    return float(out[0, 0]), caches[-1][0][0], caches


def _pooled_loss_and_grads(params: Params, viewed_list, labels, positive_weight: float):
    return neural.stack_loss_and_grads(
        list(params.values()), pool_average(viewed_list), labels, positive_weight
    )


def _summed_per_example(forward, backward, params: Params, viewed_list, labels, positive_weight: float):
    """Batch loss over a per-example forward and backward (the LSTM kinds);
    the gradients are summed in example order."""
    probs, _, caches = zip(*(forward(params, viewed) for viewed in viewed_list))
    loss, d_probs = neural.weighted_bce(np.array(probs), labels, positive_weight)
    summed = [np.zeros_like(a) for a in params_list(params)]
    for cache, d_prob in zip(caches, d_probs):
        summed = [acc + g for acc, g in zip(summed, backward(params, cache, d_prob))]
    return float(loss.sum()), summed


def _gate_arrays(params: Params) -> list[np.ndarray]:
    return [a for gate, _ in GATES for a in (params[gate].weights, params[gate].bias)]


def _lstm_scan(params: Params, viewed: np.ndarray):
    """Run the gated recurrence; returns hidden states and per-step caches.

    x_t is the concatenation [h_{t-1}, view_t]; cell and hidden state start
    at zero.
    """
    w_f, b_f, w_i, b_i, w_c, b_c, w_o, b_o = _gate_arrays(params)
    d_h = len(b_f)
    h = np.zeros(d_h)
    c = np.zeros(d_h)
    states, caches = [], []
    for v in viewed:
        x = np.concatenate([h, v])
        forget = sigmoid(w_f @ x + b_f)
        gain = sigmoid(w_i @ x + b_i)
        cand = np.tanh(w_c @ x + b_c)
        out = sigmoid(w_o @ x + b_o)
        c_prev = c
        c = forget * c_prev + gain * cand
        h = out * np.tanh(c)
        states.append(h)
        caches.append((x, forget, gain, cand, out, c_prev, c))
    return states, caches


def _lstm_backward_through_time(params: Params, caches, dh_inject):
    """Backprop through the recurrence given per-step external gradients.

    ``dh_inject[t]`` is d loss / d h_t coming from outside the recurrence
    (the head for the plain LSTM, the attention mix for the attended one).
    Returns gradients in gate parameter order.
    """
    w_f, _, w_i, _, w_c, _, w_o, _ = _gate_arrays(params)
    d_h = len(w_f)
    dw_f, dw_i, dw_c, dw_o = (np.zeros_like(w) for w in (w_f, w_i, w_c, w_o))
    db_f, db_i, db_c, db_o = (np.zeros(d_h) for _ in range(4))
    dh_next = np.zeros(d_h)
    dc_next = np.zeros(d_h)
    for t in range(len(caches) - 1, -1, -1):
        x, forget, gain, cand, out, c_prev, c = caches[t]
        dh = dh_inject[t] + dh_next
        tc = np.tanh(c)
        dz_o = dh * tc * out * (1.0 - out)
        dc = dh * out * (1.0 - tc**2) + dc_next
        dz_f = dc * c_prev * forget * (1.0 - forget)
        dz_i = dc * cand * gain * (1.0 - gain)
        dz_c = dc * gain * (1.0 - cand**2)
        dw_f += np.outer(dz_f, x)
        dw_i += np.outer(dz_i, x)
        dw_c += np.outer(dz_c, x)
        dw_o += np.outer(dz_o, x)
        db_f += dz_f
        db_i += dz_i
        db_c += dz_c
        db_o += dz_o
        dx = w_f.T @ dz_f + w_i.T @ dz_i + w_c.T @ dz_c + w_o.T @ dz_o
        dh_next = dx[:d_h]
        dc_next = dc * forget
    return [dw_f, db_f, dw_i, db_i, dw_c, db_c, dw_o, db_o]


def lstm_forward(params: Params, viewed: np.ndarray):
    """Returns (probability, final hidden state, cache)."""
    states, caches = _lstm_scan(params, viewed)
    h_last = states[-1]
    out, head_cache = dense_forward(params["head"], h_last)
    return float(out[0]), h_last, (states, caches, head_cache)


def _lstm_backward(params: Params, cache, d_prob: float):
    states, caches, head_cache = cache
    dh_last, dw_head, db_head = dense_backward(params["head"], head_cache, np.array([d_prob]))
    dh_inject = [np.zeros_like(states[0]) for _ in states]
    dh_inject[-1] = dh_last
    gate_grads = _lstm_backward_through_time(params, caches, dh_inject)
    return gate_grads + [dw_head, db_head]


def attention_combine(score_vector: np.ndarray, hidden_states):
    """Additive attention over the hidden-state sequence.

    Scores ``e_t = score_vector . tanh(h_t)`` pass through a softmax; the
    context vector is the weighted sum of the raw hidden states.  Returns
    (context, weights); the weights are non-negative and sum to 1, and are
    uniform whenever all states are identical.
    """
    hs = np.asarray(hidden_states)
    if hs.ndim != 2 or len(hs) < 1:
        raise ValueError("need at least one hidden state")
    scores = np.tanh(hs) @ score_vector
    shifted = np.exp(scores - scores.max())
    weights = shifted / shifted.sum()
    context = weights @ hs
    return context, weights


def _attention_backward(score_vector: np.ndarray, hs, weights, d_context):
    """Gradients of the attention mix: score vector and per-state grads."""
    hs = np.asarray(hs)
    d_alpha = hs @ d_context
    d_scores = weights * (d_alpha - float(weights @ d_alpha))
    tanh_h = np.tanh(hs)
    d_score_vec = tanh_h.T @ d_scores
    dh = weights[:, None] * d_context[None, :] + d_scores[:, None] * (
        score_vector[None, :] * (1.0 - tanh_h**2)
    )
    return d_score_vec, dh


def lstm_attention_forward(params: Params, viewed: np.ndarray):
    """Returns (probability, context vector, cache)."""
    states, caches = _lstm_scan(params, viewed)
    context, weights = attention_combine(params["score"].weights[0], states)
    out, head_cache = dense_forward(params["head"], context)
    return float(out[0]), context, (states, caches, weights, head_cache)


def _lstm_attention_backward(params: Params, cache, d_prob: float):
    states, caches, weights, head_cache = cache
    d_context, dw_head, db_head = dense_backward(params["head"], head_cache, np.array([d_prob]))
    d_score_vec, dh_inject = _attention_backward(
        params["score"].weights[0], states, weights, d_context
    )
    gate_grads = _lstm_backward_through_time(params, caches, list(dh_inject))
    return gate_grads + [d_score_vec[None, :], np.zeros(1), dw_head, db_head]


# ---------------------------------------------------------------------------
# one spec per kind


def _average_spec(dims: dict) -> list[LayerSpec]:
    return [("head", 1, dims["input_dim"], "sigmoid")]


def _dan_spec(dims: dict) -> list[LayerSpec]:
    """pool -> expansion -> contraction -> embedding, then a scalar head so
    the embedding stays vector-valued."""
    d, d_h2, d_h1, d_f = (
        dims[key] for key in ("input_dim", "hidden_expand", "hidden_contract", "embedding_dim")
    )
    if not d_h2 > d >= d_h1 > d_f:
        raise ValueError(f"dims must expand then contract: got {d_h2} > {d} >= {d_h1} > {d_f}")
    return [
        ("pool_proj", d_h2, d, "relu"),
        ("hidden", d_h1, d_h2, "relu"),
        ("embed", d_f, d_h1, "relu"),
        ("head", 1, d_f, "sigmoid"),
    ]


def _lstm_spec(dims: dict) -> list[LayerSpec]:
    d_h = dims["lstm_hidden"]
    gates = [(gate, d_h, d_h + dims["input_dim"], act) for gate, act in GATES]
    return gates + [("head", 1, d_h, "sigmoid")]


def _lstm_attention_spec(dims: dict) -> list[LayerSpec]:
    """The score vector is a 1-row linear layer stored before the head; its
    bias stays zero and never enters the softmax, which would cancel it."""
    *gates, head = _lstm_spec(dims)
    return gates + [("score", 1, dims["lstm_hidden"], "linear"), head]


class KindSpec(NamedTuple):
    """A kind's widths, its layer spec as a function of them, its kernels."""

    dims: dict[str, str]  # dims key besides input_dim -> layer whose out-dim it is
    layers: Callable[[dict], list[LayerSpec]]
    forward: Callable | None = None  # (params, viewed) -> (probability, embedding, cache)
    loss_and_grads: Callable | None = None  # (params, viewed_list, labels, w+) -> (loss, grads)


_DAN_DIMS = {"hidden_expand": "pool_proj", "hidden_contract": "hidden", "embedding_dim": "embed"}
_LSTM_DIMS = {"lstm_hidden": "forget"}
KINDS = {
    "random": KindSpec({}, lambda dims: []),
    "average": KindSpec({}, _average_spec, _pooled_forward, _pooled_loss_and_grads),
    "dan": KindSpec(_DAN_DIMS, _dan_spec, _pooled_forward, _pooled_loss_and_grads),
    "lstm": KindSpec(
        _LSTM_DIMS, _lstm_spec, lstm_forward,
        partial(_summed_per_example, lstm_forward, _lstm_backward),
    ),
    "lstm_attention": KindSpec(
        _LSTM_DIMS, _lstm_attention_spec, lstm_attention_forward,
        partial(_summed_per_example, lstm_attention_forward, _lstm_attention_backward),
    ),
}


# ---------------------------------------------------------------------------
# uniform parameter plumbing


def init_params(kind: str, config: TravelerConfig, rng) -> Params:
    """Fresh parameters drawn from ``rng``, one layer per spec entry.

    Weights are normal with std sqrt(2/in) for relu layers, 1/sqrt(in)
    otherwise; biases are zero but the forget gate's is 1 (open forget gates
    keep early gradients alive).  The score vector is drawn after the head
    although it precedes it on disk: seeded models depend on this order.
    """
    if kind not in TRAINABLE_KINDS:
        raise ConfigError(f"unknown trainable kind {kind!r}; valid: {', '.join(TRAINABLE_KINDS)}")
    spec = KINDS[kind].layers(
        {key: getattr(config, key) for key in ("input_dim", *KINDS[kind].dims)}
    )
    drawn = {}
    for name, out, inp, activation in sorted(spec, key=lambda entry: entry[0] == "score"):
        scale = np.sqrt(2.0 / inp) if activation == "relu" else 1.0 / np.sqrt(inp)
        bias = np.ones(out) if name == "forget" else np.zeros(out)
        drawn[name] = DenseLayer(rng.normal(0.0, scale, size=(out, inp)), bias, activation)
    return {name: drawn[name] for name, *_ in spec}


def params_list(params: Params) -> list[np.ndarray]:
    """Canonical flat parameter order: each layer's weights then bias, in
    spec order (matches gradient order)."""
    return [a for layer in params.values() for a in (layer.weights, layer.bias)]


def with_params(params: Params, arrays: list[np.ndarray]) -> Params:
    """Rebuild a parameter bundle from a flat array list (non-mutating)."""
    return {
        name: DenseLayer(arrays[2 * i], arrays[2 * i + 1], layer.activation)
        for i, (name, layer) in enumerate(params.items())
    }


def example_loss_and_grads(kind: str, params, viewed_list, labels, positive_weight: float):
    """Weighted BCE loss and gradients of a batch of examples, each summed
    over the batch (used by training and by the finite-difference checker)."""
    return KINDS[kind].loss_and_grads(params, viewed_list, labels, positive_weight)


def loss_fn_for_gradcheck(kind: str, template, viewed, label: int, positive_weight: float = 1.0):
    """Close over an example so grad_check can perturb raw arrays."""

    def fn(arrays):
        params = with_params(template, arrays)
        return example_loss_and_grads(kind, params, [viewed], [label], positive_weight)

    return fn


def dan_relu_margin(params: Params, viewed) -> float:
    """Smallest |pre-activation| across the relu layers for one example.

    Finite-difference checks must avoid the relu kink: an entry whose +-h
    perturbation crosses zero makes the difference quotient disagree with the
    subgradient convention.  Case generators resample until this margin
    comfortably exceeds the perturbation's reach.
    """
    *relu_caches, _ = _pooled_forward(params, viewed)[2]
    return float(min(np.abs(z).min() for _, z in relu_caches))


def train_traveler_model(
    examples: list[TravelerExample], kind: str, config: TravelerConfig, provenance: dict | None = None
) -> tuple[TravelerModel, list[TraceEntry]]:
    """Minimise mean class-weighted BCE with ``neural.train_minibatch``.

    Gradients are averaged over shuffled mini-batches; one optimizer step per
    batch.  The recorded per-epoch loss is the mean pre-update loss over the
    epoch's examples.  Deterministic for a fixed config and seed.  Raises
    ValueError naming the kind and the epoch as soon as the loss or a
    parameter turns non-finite.
    """
    if kind not in TRAINABLE_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}; valid: {', '.join(TRAINABLE_KINDS)}")
    labels = np.array([ex.label for ex in examples])
    w_pos = positive_class_weight(labels, config.positive_class_weight)
    for ex in examples:
        if ex.viewed.shape[1] != config.input_dim:
            raise ValueError(
                f"example dim {ex.viewed.shape[1]} does not match config input_dim {config.input_dim}"
            )

    rng = np.random.default_rng(config.seed)
    params = init_params(kind, config, rng)
    viewed = [ex.viewed for ex in examples]

    def batch_loss_and_grads(arrays, batch):
        batch_params = with_params(params, arrays)
        return example_loss_and_grads(kind, batch_params, [viewed[i] for i in batch], labels[batch], w_pos)

    arrays, trace = neural.train_minibatch(
        params_list(params), batch_loss_and_grads, len(examples), config, rng, kind
    )
    params = with_params(params, arrays)
    model = TravelerModel(kind, params, config.input_dim, config.seed, dict(provenance or {}))
    return model, trace


def predict_probability(model: TravelerModel, viewed: np.ndarray) -> float:
    if model.kind == "random":
        raise ValueError("the random baseline has no booking head")
    prob, _, _ = KINDS[model.kind].forward(model.params, viewed)
    return prob


def traveler_embedding(model: TravelerModel, viewed: np.ndarray, rng=None) -> np.ndarray:
    """The model's traveler representation for a view prefix.

    DAN returns its last hidden layer, LSTM the final hidden state, attention
    the context vector, averaging the pooled vector, and the random baseline
    one chosen view (which needs the caller's rng).
    """
    if len(viewed) == 0:
        raise ValueError("empty prefix")
    if model.kind == "random":
        if rng is None:
            raise ValueError("the random baseline needs an rng")
        return baseline_random(viewed, rng)
    _, emb, _ = KINDS[model.kind].forward(model.params, viewed)
    return emb


def embedding_dim(model: TravelerModel) -> int:
    """Width of the traveler embedding: what the head reads, else a view."""
    return model.params["head"].weights.shape[1] if model.params else model.input_dim


def write_training_log(trace: list[TraceEntry], path) -> None:
    """Newline-delimited ``epoch <TAB> mean_loss <TAB> wall_ms`` records."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in trace:
            fh.write(f"{entry.epoch}\t{repr(entry.mean_loss)}\t{entry.wall_ms:.3f}\n")


# ---------------------------------------------------------------------------
# persistence (shared JSON format from the neural module)


def save_traveler_model(model: TravelerModel, path) -> None:
    widths = {key: model.params[name].weights.shape[0] for key, name in KINDS[model.kind].dims.items()}
    dims = {"input_dim": model.input_dim, **widths}
    extra = {
        "traveler_embedding_dim": embedding_dim(model),
        "seed": model.seed,
        "provenance": model.provenance,
    }
    layers = list((model.params or {}).values())
    neural.save_model_json(path, model.kind, dims, layers, extra)


def load_traveler_model(path) -> TravelerModel:
    """Read a model file; ParseError unless ``dims`` holds exactly the kind's
    positive integer widths and the layers match the spec built from them in
    count, shape and activation."""
    payload = neural.load_model_json(path)
    kind = payload.get("model_kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    keys = ("input_dim", *KINDS[kind].dims)
    dims = payload.get("dims")
    if not isinstance(dims, dict) or set(dims) != set(keys) or not all(
        type(dims[key]) is int and dims[key] >= 1 for key in keys
    ):
        raise ParseError(f"{path}: {kind} dims must be positive integers {list(keys)}, got {dims!r}")
    try:
        spec = KINDS[kind].layers(dims)
    except ValueError as exc:
        raise ParseError(f"{path}: {kind} {exc}") from None
    layers = payload["layers"]
    if len(layers) != len(spec):
        raise ParseError(f"{path}: {kind} needs {len(spec)} layers, found {len(layers)}")
    for (name, out, inp, activation), layer in zip(spec, layers):
        if layer.weights.shape != (out, inp) or layer.activation != activation:
            raise ParseError(
                f"{path}: {kind} layer {name!r} must be ({out}, {inp}) {activation}, "
                f"found {layer.weights.shape} {layer.activation}"
            )
    params = {name: layer for (name, *_), layer in zip(spec, layers)} or None
    seed, provenance = payload.get("seed", 0), payload.get("provenance", {})
    return TravelerModel(kind, params, dims["input_dim"], seed, provenance)
