"""Traveler-embedding models over sequences of viewed-listing embeddings.

Four trained kinds share one training and inference surface:

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
hand-derived and checked against finite differences.  A kind is a forward
and a backward kernel: its loss is the forward pass and the BCE, its
gradients add the backward pass.  Every kind runs a batch of view prefixes
in one pass, in training and in inference.  Average and DAN run the
dense-stack kernel over the segment means of the prefixes; training
computes each example's mean once.
The LSTM kinds run one packed recurrence: the prefixes sorted by length,
the four gates stacked into one matrix, step t over the rows still active;
attention scores a padded step -inf, so it weighs exactly 0.
An example holds row indices into a shared embedding matrix, not a copy of
the rows; training and ``embed_examples`` gather a batch's views at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# prefixes per inference pass and per pooling gather; bounds their padded (T, B, .) arrays
INFERENCE_ROWS = 128


@dataclass(frozen=True)
class TravelerExample:
    """One supervised case: a labeled view prefix and, as a non-empty 1-D
    integer array ``rows``, its in-vocabulary views' rows of the shared
    (V, d) matrix ``vectors``, which is referenced, not copied.  ``viewed``
    gathers the (t, d) rows on each read.  ``features`` holds the prefix's
    hand-crafted features once the downstream evaluation has built them
    (read-only)."""

    prefix: LabeledPrefix
    rows: np.ndarray  # (t,) rows of vectors, in view order
    vectors: np.ndarray = field(repr=False)  # (V, d), shared
    features: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.rows
        if np.ndim(self.vectors) != 2:
            raise ValueError("vectors must be a (V, d) matrix")
        if not (isinstance(rows, np.ndarray) and rows.ndim == 1 and len(rows) and rows.dtype.kind in "iu"):
            raise ValueError("rows must be a non-empty 1-D integer array")
        if rows.min() < 0 or rows.max() >= len(self.vectors):
            raise ValueError(f"rows must lie in [0, {len(self.vectors)})")
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")

    @property
    def label(self) -> int:
        return self.prefix.label

    @property
    def viewed(self) -> np.ndarray:
        """The (t, d) embedding rows of the prefix's views, gathered."""
        return self.vectors[self.rows]


@dataclass
class TravelerModel:
    """A kind and its parameters.

    The params are read-only once the model is built: a caller that changes
    them builds a new model.  Serving relies on this.  The last inference
    pass over at most INFERENCE_ROWS prefixes is kept with the prefixes'
    shapes, dtypes and bytes as its key, so ``traveler_embedding`` and
    ``predict_probability`` on the same prefixes share one forward pass.
    """

    kind: str
    params: Params
    input_dim: int
    seed: int = 0
    provenance: dict = field(default_factory=dict)
    _last_pass: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; valid: {', '.join(KINDS)}")


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


def _segment_means(views: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row b: the mean of the next ``lengths[b]`` rows of ``views``.  A
    segment's mean reads only its own rows, so it has the same bits wherever
    the segment sits."""
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    return np.add.reduceat(views, starts, axis=0) / lengths[:, None]


def pool_average(viewed_list: list[np.ndarray]) -> np.ndarray:
    """Segment means: row b is the coordinate-wise mean of ``viewed_list[b]``."""
    lengths = np.array([len(viewed) for viewed in viewed_list])
    if len(lengths) == 0 or lengths.min() == 0:
        raise ValueError("cannot pool an empty sequence")
    return _segment_means(np.concatenate(viewed_list), lengths)


def baseline_random(viewed: np.ndarray, rng) -> np.ndarray:
    """One uniformly chosen entry of a (t, d) prefix or of an example's
    ``rows`` (the evaluation's random baseline)."""
    if len(viewed) == 0:
        raise ValueError("cannot select from an empty sequence")
    return viewed[int(rng.integers(len(viewed)))]


def build_examples(
    prefixes: list[LabeledPrefix], key_to_index: dict[str, int], table: EmbeddingTable
) -> list[TravelerExample]:
    """Map labeled view prefixes to int32 rows of ``table.input_vectors``.

    Out-of-vocabulary views are dropped; prefixes left without any view are
    skipped because there is nothing to embed.  Each example keeps its
    prefix, so the downstream evaluation reads both from one list, and
    refers to the input vectors without copying them: the examples see the
    table as it stands when they are read.
    """
    vectors = table.input_vectors
    examples = []
    for case in prefixes:
        rows = [key_to_index[it.listing_key] for it in case.views if it.listing_key in key_to_index]
        if rows:
            examples.append(TravelerExample(case, np.array(rows, dtype=np.int32), vectors))
    return examples


def _example_rows(examples: list[TravelerExample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vectors, codes, lengths): the examples' views as one zero-padded
    (n, T) int32 matrix of rows of one (V, d) matrix, and each example's
    view count.  Examples over one shared matrix use it as it is; examples
    over distinct matrices get them stacked once, in first-seen order, with
    each example's rows offset into its own matrix's block."""
    matrices = list({id(ex.vectors): ex.vectors for ex in examples}.values())
    lengths = np.fromiter((len(ex.rows) for ex in examples), dtype=np.int64, count=len(examples))
    flat = np.concatenate([ex.rows for ex in examples])
    if len(matrices) == 1:
        vectors = matrices[0]
    else:
        starts = np.cumsum([0] + [len(m) for m in matrices[:-1]])
        block = dict(zip(map(id, matrices), starts.tolist()))
        flat = flat + np.repeat([block[id(ex.vectors)] for ex in examples], lengths)
        vectors = np.concatenate(matrices)
    codes = np.zeros((len(examples), lengths.max()), dtype=np.int32)
    codes[np.arange(codes.shape[1]) < lengths[:, None]] = flat
    return vectors, codes, lengths


def _kernel_input(kind: str, vectors: np.ndarray, codes: np.ndarray, lengths: np.ndarray):
    """The kind's kernel input for a batch of padded row codes, read with
    one fancy index: the segment means for a pooled kind, else the packed
    step-major views."""
    if KINDS[kind].pooled:
        return _segment_means(vectors[codes[np.arange(codes.shape[1]) < lengths[:, None]]], lengths)
    return _pack_codes(vectors, codes, lengths)


# ---------------------------------------------------------------------------
# kernels per kind: each forward takes a list of view prefixes and returns
# (probabilities (B,), traveler embeddings (B, k), cache) in list order


def _pooled_rows(viewed) -> np.ndarray:
    """The pooled kinds' kernel input: a prefix list, pooled here, or the
    (B, d) rows ``pool_average`` already made of one."""
    return viewed if isinstance(viewed, np.ndarray) else pool_average(viewed)


def _pooled_forward(params: Params, viewed):
    """Average and DAN: the dense stack over the pooled views.  The traveler
    embedding is what the head reads: the pooled vector, or DAN's last
    hidden layer."""
    out, caches = neural.stack_forward(list(params.values()), _pooled_rows(viewed))
    return out[:, 0], caches[-1][0], caches


def _pooled_backward(params: Params, caches, d_probs: np.ndarray) -> list[np.ndarray]:
    return neural.stack_backward(list(params.values()), caches, d_probs[:, None])


def attention_combine(score_vector: np.ndarray, hidden_states, valid=None):
    """Additive attention over one (T, d_h) hidden-state sequence, or over
    step-major (T, B, d_h) sequences whose (T, B) mask ``valid`` marks the
    real steps.

    Scores ``e_t = score_vector . tanh(h_t)`` pass through a softmax over
    the steps; a padded step scores -inf, so its weight is exactly 0.  The
    context vector is the weighted sum of the raw hidden states.  Returns
    (context, weights); the weights are non-negative and sum to 1, and are
    uniform whenever all states are identical.
    """
    hs = np.asarray(hidden_states)
    if hs.ndim not in (2, 3) or len(hs) < 1:
        raise ValueError("need at least one hidden state")
    scores = np.tanh(hs) @ score_vector
    if valid is not None:
        scores = np.where(valid, scores, -np.inf)
    shifted = np.exp(scores - scores.max(axis=0))
    weights = shifted / shifted.sum(axis=0)
    context = np.einsum("t...,t...d->...d", weights, hs)
    return context, weights


def _attention_backward(score_vector: np.ndarray, hs, weights, d_context):
    """Gradients of the attention mix over step-major (T, B, d_h) states:
    the score vector's, summed over the batch, and each state's."""
    d_alpha = np.einsum("tbd,bd->tb", hs, d_context)
    d_scores = weights * (d_alpha - np.einsum("tb,tb->b", weights, d_alpha))
    tanh_h = np.tanh(hs)
    d_score_vec = np.einsum("tb,tbd->d", d_scores, tanh_h)
    dh = weights[..., None] * d_context + d_scores[..., None] * (score_vector * (1.0 - tanh_h**2))
    return d_score_vec, dh


class _Packed(NamedTuple):
    """A batch as the recurrent kernel reads it: rows by descending length
    (stable), their lengths, and the step-major zero-padded (T, B, d) views."""

    order: np.ndarray
    steps: np.ndarray
    xs: np.ndarray


def _pack_list(viewed_list) -> _Packed:
    """Pack a list of (t, d) prefixes, one row at a time."""
    lengths = np.array([len(viewed) for viewed in viewed_list])
    if len(lengths) == 0 or lengths.min() == 0:
        raise ValueError("cannot run an empty sequence")
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order]
    xs = np.zeros((steps[0], len(order), viewed_list[0].shape[1]))
    for row, i in enumerate(order):
        xs[: steps[row], row] = viewed_list[i]
    return _Packed(order, steps, xs)


def _pack_codes(vectors: np.ndarray, codes: np.ndarray, lengths: np.ndarray) -> _Packed:
    """Pack a batch of padded row codes with one fancy index into ``vectors``;
    the same views as ``_pack_list`` over the gathered prefixes."""
    order = np.argsort(-lengths, kind="stable")
    steps = lengths[order]
    valid = np.arange(steps[0])[:, None] < steps
    xs = np.zeros((steps[0], len(order), vectors.shape[1]))
    xs[valid] = vectors[codes[order, : steps[0]].T[valid]]
    return _Packed(order, steps, xs)


def _recurrent_forward(params: Params, viewed):
    """The LSTM kinds over a batch of prefixes, packed: a list of (t, d)
    prefixes, or a batch ``_pack_codes`` already packed.

    Rows are sorted by descending length, so step t runs on the first n_t
    rows, the ones still active, and a finished row is never touched.  The
    four gate layers are stacked at call time into one (4*d_h, d_h + d)
    matrix: the view part of every step is one matmul up front, the
    recurrent part one (n_t, d_h) matmul per step.  x_t is
    [h_{t-1}, view_t]; h and c start at zero.  The plain LSTM's embedding
    is the final hidden state, the attended one's the context vector.
    """
    order, steps, xs = viewed if isinstance(viewed, _Packed) else _pack_list(viewed)
    d = xs.shape[2]
    valid = np.arange(steps[0])[:, None] < steps
    d_h = len(params["forget"].bias)
    w = np.concatenate([params[gate].weights for gate, _ in GATES])
    z_views = (xs.reshape(-1, d) @ w[:, d_h:].T).reshape(len(xs), len(order), -1)
    z_views += np.concatenate([params[gate].bias for gate, _ in GATES])
    w_states = w[:, :d_h].T
    # states[t + 1] and cells[t + 1] hold step t; entries past a row's end stay 0
    states = np.zeros((steps[0] + 1, len(order), d_h))
    cells = np.zeros_like(states)
    gates = []  # per step the (n_t, 4*d_h) activated forget, input, candidate, output
    for t, n in enumerate(valid.sum(axis=1)):
        z = z_views[t, :n] + states[t, :n] @ w_states
        gate = sigmoid(z)
        cand = gate[:, 2 * d_h : 3 * d_h] = np.tanh(z[:, 2 * d_h : 3 * d_h])
        cell = cells[t + 1, :n] = gate[:, :d_h] * cells[t, :n] + gate[:, d_h : 2 * d_h] * cand
        states[t + 1, :n] = gate[:, 3 * d_h :] * np.tanh(cell)
        gates.append(gate)
    weights = None
    if "score" in params:
        mask = valid if steps[-1] < steps[0] else None  # no padded step, nothing to mask
        embedded, weights = attention_combine(params["score"].weights[0], states[1:], mask)
    else:
        embedded = states[steps, np.arange(len(order))]
    emb = embedded[np.argsort(order)]  # back to list order
    out, head_cache = dense_forward(params["head"], emb)
    return out[:, 0], emb, (order, steps, xs, w, states, cells, gates, weights, head_cache)


def _recurrent_backward(params: Params, cache, d_probs: np.ndarray) -> list[np.ndarray]:
    """Packed BPTT: d loss / d every parameter, summed over the batch, in
    spec order.  Per step the four gates' pre-activation gradients form one
    (n_t, 4*d_h) block; the weight gradient is their product with the
    stacked inputs."""
    order, steps, xs, w, states, cells, gates, weights, head_cache = cache
    d_emb, dw_head, db_head = dense_backward(params["head"], head_cache, d_probs[:, None])
    d_emb = d_emb[order]
    d_h = states.shape[2]
    if weights is None:
        dh_inject = np.zeros_like(states[1:])
        dh_inject[steps - 1, np.arange(len(order))] = d_emb
        tail = []
    else:
        d_score, dh_inject = _attention_backward(params["score"].weights[0], states[1:], weights, d_emb)
        tail = [d_score[None, :], np.zeros(1)]
    dz_all = np.zeros((len(gates), len(order), 4 * d_h))
    dh_next = np.zeros((len(order), d_h))
    dc_next = np.zeros_like(dh_next)
    for t in range(len(gates) - 1, -1, -1):
        gate = gates[t]
        n = len(gate)
        forget, gain = gate[:, :d_h], gate[:, d_h : 2 * d_h]
        cand, out = gate[:, 2 * d_h : 3 * d_h], gate[:, 3 * d_h :]
        tc = np.tanh(cells[t + 1, :n])
        dh = dh_inject[t, :n] + dh_next[:n]
        dc = dh * out * (1.0 - tc**2) + dc_next[:n]
        dz = dz_all[t, :n]
        dz[:, :d_h] = dc * cells[t, :n] * forget * (1.0 - forget)
        dz[:, d_h : 2 * d_h] = dc * cand * gain * (1.0 - gain)
        dz[:, 2 * d_h : 3 * d_h] = dc * gain * (1.0 - cand**2)
        dz[:, 3 * d_h :] = dh * tc * out * (1.0 - out)
        dh_next[:n] = dz @ w[:, :d_h]
        dc_next[:n] = dc * forget
    dz_rows = dz_all.reshape(-1, 4 * d_h)
    inputs = np.concatenate([states[:-1], xs], axis=2).reshape(len(dz_rows), -1)
    dw, db = dz_rows.T @ inputs, dz_rows.sum(axis=0)
    per_gate = [a for lo in range(0, 4 * d_h, d_h) for a in (dw[lo : lo + d_h], db[lo : lo + d_h])]
    return per_gate + tail + [dw_head, db_head]


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
    forward: Callable  # (params, viewed_list) -> (probabilities, embeddings, cache)
    backward: Callable  # (params, cache, d loss / d probabilities) -> grads
    # True: the kernels also take pool_average rows in place of the prefixes;
    # False: they also take a _Packed batch
    pooled: bool = False


_DAN_DIMS = {"hidden_expand": "pool_proj", "hidden_contract": "hidden", "embedding_dim": "embed"}
_LSTM_DIMS = {"lstm_hidden": "forget"}
KINDS = {
    "average": KindSpec({}, _average_spec, _pooled_forward, _pooled_backward, pooled=True),
    "dan": KindSpec(_DAN_DIMS, _dan_spec, _pooled_forward, _pooled_backward, pooled=True),
    "lstm": KindSpec(_LSTM_DIMS, _lstm_spec, _recurrent_forward, _recurrent_backward),
    "lstm_attention": KindSpec(
        _LSTM_DIMS, _lstm_attention_spec, _recurrent_forward, _recurrent_backward
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


def batch_loss(kind: str, params, viewed_list, positive, positive_weight: float) -> float:
    """A kind's summed weighted BCE over a batch: its forward pass and the
    loss, no backward pass.  ``positive`` is the batch's boolean label mask,
    taken unchecked (``neural.weighted_bce_unchecked``)."""
    probs = KINDS[kind].forward(params, viewed_list)[0]
    loss, _ = neural.weighted_bce_unchecked(probs, positive, positive_weight)
    return float(loss.sum())


def batch_loss_and_grads(kind: str, params, viewed_list, positive, positive_weight: float):
    """``batch_loss`` and its gradients summed over the batch, in spec
    order; the loss is the same expression, so it has the same bits."""
    probs, _, cache = KINDS[kind].forward(params, viewed_list)
    loss, d_probs = neural.weighted_bce_unchecked(probs, positive, positive_weight)
    return float(loss.sum()), KINDS[kind].backward(params, cache, d_probs)


def example_loss_and_grads(kind: str, params, viewed_list, labels, positive_weight: float):
    """Weighted BCE loss and gradients of a batch of examples, each summed
    over the batch; ValueError unless every label is 0 or 1 and the weight
    is finite and > 0.  A pooled kind also takes the batch's
    ``pool_average`` rows in place of its prefix list."""
    positive = neural.positive_mask(labels, positive_weight)
    return batch_loss_and_grads(kind, params, viewed_list, positive, positive_weight)


def loss_fn_for_gradcheck(kind: str, template, viewed, label: int, positive_weight: float = 1.0):
    """Bind an example for ``neural.grad_check``: the label is checked once,
    and the layers are built once over the checker's working arrays, which
    it bumps in place.  The binder returns ``(loss, loss_and_grads)``."""
    positive = neural.positive_mask([label], positive_weight)

    def bind(arrays):
        args = (kind, with_params(template, arrays), [viewed], positive, positive_weight)
        return lambda: batch_loss(*args), lambda: batch_loss_and_grads(*args)

    return bind


def dan_relu_margin(params: Params, viewed) -> float:
    """Smallest |pre-activation| across the relu layers for one example.

    Finite-difference checks must avoid the relu kink: an entry whose +-h
    perturbation crosses zero makes the difference quotient disagree with the
    subgradient convention.  Case generators resample until this margin
    comfortably exceeds the perturbation's reach.
    """
    *relu_caches, _ = _pooled_forward(params, [viewed])[2]
    return float(min(np.abs(z).min() for _, z, _ in relu_caches))


def train_traveler_model(
    examples: list[TravelerExample], kind: str, config: TravelerConfig, provenance: dict | None = None
) -> tuple[TravelerModel, list[TraceEntry]]:
    """Minimise mean class-weighted BCE with ``neural.train_minibatch``.

    Gradients are averaged over shuffled mini-batches; one optimizer step per
    batch.  The layers are built once over the trainer's parameter views,
    whose arrays change in place at every step; the trainer's finite check
    keeps them valid.  Before the first epoch the examples' rows become one
    padded int32 row matrix (``_example_rows``): average and DAN pool each
    example once from it, INFERENCE_ROWS examples per gather, and the LSTM
    kinds gather each batch's packed input with one fancy index.  The labels
    are checked once, by ``TravelerExample``, and the class weight by
    ``positive_class_weight`` or the config; each step runs
    ``batch_loss_and_grads`` on a slice of one label mask built up front.
    The recorded per-epoch loss is the mean pre-update loss over the
    epoch's examples.  Deterministic for a fixed config and seed.
    Raises ValueError naming the kind and the epoch as soon as the loss or a
    parameter turns non-finite.
    """
    rng = np.random.default_rng(config.seed)
    params = init_params(kind, config, rng)  # rejects an unknown kind before the examples
    labels = np.array([ex.label for ex in examples])
    w_pos = positive_class_weight(labels, config.positive_class_weight)
    positive = labels == 1
    vectors, codes, lengths = _example_rows(examples)
    if vectors.shape[1] != config.input_dim:
        raise ValueError(
            f"example dim {vectors.shape[1]} does not match config input_dim {config.input_dim}"
        )
    pooled = None
    if KINDS[kind].pooled:  # a segment mean reads only its own rows: pooling in chunks keeps its bits
        pooled = np.concatenate([
            _kernel_input(kind, vectors, codes[lo : lo + INFERENCE_ROWS], lengths[lo : lo + INFERENCE_ROWS])
            for lo in range(0, len(examples), INFERENCE_ROWS)
        ])

    def bind(views):
        layers = with_params(params, views)

        def loss_and_grads(batch):
            if pooled is None:
                inputs = _kernel_input(kind, vectors, codes[batch], lengths[batch])
            else:
                inputs = pooled[batch]
            return batch_loss_and_grads(kind, layers, inputs, positive[batch], w_pos)

        return loss_and_grads

    arrays, trace = neural.train_minibatch(params_list(params), bind, len(examples), config, rng, kind)
    params = with_params(params, arrays)
    model = TravelerModel(kind, params, config.input_dim, config.seed, dict(provenance or {}))
    return model, trace


def _prefix_batch(viewed, input_dim: int) -> tuple[list[np.ndarray], bool]:
    """(prefix list, whether ``viewed`` was one bare (t, d) prefix);
    ValueError for no prefixes, for one that is not a (t, input_dim) array,
    or for an empty one."""
    single = isinstance(viewed, np.ndarray)
    batch = [viewed] if single else list(viewed)
    if not batch:
        raise ValueError("no prefixes")
    for prefix in batch:
        shape = getattr(prefix, "shape", None)
        if shape is None or len(shape) != 2 or shape[1] != input_dim:
            got = f"shape {shape}" if shape is not None else type(prefix).__name__
            raise ValueError(f"a prefix must be a (t, {input_dim}) array, got {got}")
        if shape[0] == 0:
            raise ValueError("empty prefix")
    return batch, single


def _infer(model: TravelerModel, batch) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, embeddings) of a prefix list, one batched forward
    pass per INFERENCE_ROWS prefixes.

    A list of at most INFERENCE_ROWS prefixes whose shapes, dtypes and bytes
    equal the previous such call's gets that pass back without running the
    forward again; either way the caller gets fresh copies, so a write into
    a result cannot change a later one."""
    forward = KINDS[model.kind].forward
    if len(batch) <= INFERENCE_ROWS:
        arrays = [np.asarray(prefix) for prefix in batch]
        key = (
            tuple((a.shape, a.dtype.str) for a in arrays),
            b"".join(a.tobytes() for a in arrays),
        )
        last = model._last_pass  # read once: another thread may replace it
        if last is None or last[0] != key:
            last = model._last_pass = (key, *forward(model.params, batch)[:2])
        _, probs, emb = last
        return probs.copy(), emb.copy()
    passes = [
        forward(model.params, batch[lo : lo + INFERENCE_ROWS])[:2]
        for lo in range(0, len(batch), INFERENCE_ROWS)
    ]
    return np.concatenate([p for p, _ in passes]), np.concatenate([e for _, e in passes])


def predict_probability(model: TravelerModel, viewed):
    """Booking probability of one (t, d) view prefix, or a (B,) array of
    them for a list of prefixes (batched passes)."""
    batch, single = _prefix_batch(viewed, model.input_dim)
    probs, _ = _infer(model, batch)
    return float(probs[0]) if single else probs


def traveler_embedding(model: TravelerModel, viewed) -> np.ndarray:
    """The model's traveler representation for one view prefix, or a (B, k)
    matrix of them for a list of prefixes (batched passes).

    DAN returns its last hidden layer, LSTM the final hidden state, attention
    the context vector and averaging the pooled vector.
    """
    batch, single = _prefix_batch(viewed, model.input_dim)
    _, emb = _infer(model, batch)
    return emb[0] if single else emb


def embed_examples(model: TravelerModel, examples: list[TravelerExample]) -> np.ndarray:
    """The (B, k) traveler embeddings of the examples: one forward pass per
    INFERENCE_ROWS examples from example 0, so each pass sees the prefixes
    ``traveler_embedding`` gives it for the examples' ``viewed`` list and
    returns the same bits.  Each pass gathers its views with one fancy
    index; no example's rows are copied on their own."""
    passes = []
    for lo in range(0, len(examples), INFERENCE_ROWS):
        inputs = _kernel_input(model.kind, *_example_rows(examples[lo : lo + INFERENCE_ROWS]))
        passes.append(KINDS[model.kind].forward(model.params, inputs)[1])
    return np.concatenate(passes)


def embedding_dim(model: TravelerModel) -> int:
    """Width of the traveler embedding: what the head reads."""
    return model.params["head"].weights.shape[1]


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
    neural.save_model_json(path, model.kind, dims, list(model.params.values()), extra)


def load_traveler_model(path) -> TravelerModel:
    """Read a model file; ParseError unless ``model_kind`` names a trained
    kind, ``dims`` holds exactly the kind's positive integer widths, the
    layers match the spec built from them in count, shape and activation,
    ``seed`` is an integer and ``provenance`` an object."""
    payload = neural.load_model_json(path)
    kind = payload.get("model_kind")
    if kind not in TRAINABLE_KINDS:
        raise ParseError(f"{path}: model_kind must be one of {', '.join(KINDS)}, got {kind!r}")
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
    params = {name: layer for (name, *_), layer in zip(spec, layers)}
    seed, provenance = payload.get("seed", 0), payload.get("provenance", {})
    if type(seed) is not int or not isinstance(provenance, dict):
        raise ParseError(f"{path}: seed must be an integer and provenance an object")
    return TravelerModel(kind, params, dims["input_dim"], seed, provenance)
