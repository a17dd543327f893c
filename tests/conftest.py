import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from session2rec import neural
from session2rec.corpus import Interaction, Session, SessionCorpus
from session2rec.neural import sigmoid
from session2rec.skipgram import LOGIT_CLAMP, EmbeddingTable


def view(key, ts):
    return Interaction(key, ts, "view")


def book(key, ts):
    return Interaction(key, ts, "book")


def make_session(traveler, events):
    """events: list of (listing_key, timestamp) or (listing_key, ts, kind)."""
    interactions = []
    for ev in events:
        kind = ev[2] if len(ev) > 2 else "view"
        interactions.append(Interaction(ev[0], ev[1], kind))
    return Session(traveler, tuple(interactions))


def make_corpus(session_specs):
    return SessionCorpus(tuple(make_session(t, evs) for t, evs in session_specs))


def rebinding(fn):
    """A grad_check binder that calls ``fn(params) -> (loss, grads)`` on the
    working arrays at every evaluation; its loss-only entry keeps the loss."""
    return lambda params: (lambda: fn(params)[0], lambda: fn(params))


def corrupted(bind):
    """A grad_check binder whose analytic gradient is off by 0.5 in the
    first entry of the first array: a checker that works must flag it."""

    def bind_corrupted(views):
        loss, loss_and_grads = bind(views)

        def fn():
            value, grads = loss_and_grads()
            grads = [g.copy() for g in grads]
            grads[0].reshape(-1)[0] += 0.5
            return value, grads

        return loss, fn

    return bind_corrupted


GRADCHECK_KINDS = ("dan", "lstm", "lstm_attention", "sgns")  # cli.run_gradcheck's order


def corrupting_grad_check(kind, rounds):
    """A ``neural.grad_check`` for ``cli.run_gradcheck(rounds=rounds)`` that
    corrupts every case of ``kind``: run_gradcheck checks GRADCHECK_KINDS in
    order, ``rounds`` calls each."""
    real, calls = neural.grad_check, itertools.count()
    first = GRADCHECK_KINDS.index(kind) * rounds

    def grad_check(bind, params):
        if first <= next(calls) < first + rounds:
            bind = corrupted(bind)
        return real(bind, params)

    return grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@dataclass
class OracleAdamState:
    """Adaptive-moment accumulators of the list-form oracle; shapes mirror
    the parameter list."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    step_size: float = 1e-3


def oracle_adam_state(params, step_size: float = 1e-3) -> OracleAdamState:
    return OracleAdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        step_size=step_size,
    )


def oracle_adam_step(params, grads, state: OracleAdamState):
    """The optimizer before it stepped one flat vector in place: one pure
    bias-corrected update over a list of arrays.  Returns (new_params,
    new_state); the inputs are not written."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError("params, grads, and state must have the same length")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
    t = state.step_count + 1
    new_m, new_v, new_params = [], [], []
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m = neural.BETA1 * m + (1.0 - neural.BETA1) * g
        v = neural.BETA2 * v + (1.0 - neural.BETA2) * g * g
        m_hat = m / (1.0 - neural.BETA1**t)
        v_hat = v / (1.0 - neural.BETA2**t)
        new_params.append(p - state.step_size * m_hat / (np.sqrt(v_hat) + neural.EPSILON))
        new_m.append(m)
        new_v.append(v)
    return new_params, OracleAdamState(new_m, new_v, t, state.step_size)


def train_minibatch_oracle(arrays, batch_loss_and_grads, n, config, rng, name):
    """The trainer before it kept one flat parameter vector: the optimizer
    steps over the list of arrays, and ``batch_loss_and_grads(arrays,
    indices)`` gets the current list at every batch.  Returns (arrays, the
    mean loss per epoch)."""
    state = oracle_adam_state(arrays, step_size=config.learning_rate)
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss, grads = batch_loss_and_grads(arrays, batch)
            epoch_loss += loss
            scale = 1.0 / len(batch)
            arrays, state = oracle_adam_step(arrays, [g * scale for g in grads], state)
            if not (math.isfinite(epoch_loss) and all(np.isfinite(a).all() for a in arrays)):
                raise ValueError(
                    f"{name} training diverged in epoch {epoch + 1} of {config.epochs}: "
                    "non-finite loss or parameters"
                )
        losses.append(epoch_loss / n)
    return arrays, losses


def _scatter_subtract(table: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
    """``table[rows] -= updates`` with repeated rows accumulating.

    Each distinct row's updates are summed in input order by one
    ``np.bincount`` over (distinct row, column) bins, then subtracted once.
    """
    distinct, slot = np.unique(rows, return_inverse=True)
    dim = table.shape[1]
    bins = (slot[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(bins, weights=updates.ravel(), minlength=len(distinct) * dim)
    table[distinct] -= sums.reshape(len(distinct), dim)


def oracle_sgns_step(centers, contexts, negatives, table: EmbeddingTable, learning_rate) -> float:
    """The skip-gram step before it scattered both tables at once: a sorted
    ``np.unique`` scatter per table.  ``skipgram.sgns_step`` must match it
    bit for bit.

    ``centers`` and ``contexts`` are (B,) indices, ``negatives`` is (B, k) and
    ``learning_rate`` a scalar or one rate per row.  Scalars and a (k,)
    negative list are accepted for a single triple.  Every gradient is taken
    from the vectors as they stood before the batch; rows touched more than
    once (a repeated center or context, a negative equal to its context)
    receive the summed update.  Returns the summed pre-update loss.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=np.int64))
    contexts = np.atleast_1d(np.asarray(contexts, dtype=np.int64))
    negatives = np.asarray(negatives, dtype=np.int64).reshape(len(centers), -1)
    rate = np.broadcast_to(np.asarray(learning_rate, dtype=np.float64), centers.shape)
    if not (rate > 0).all():
        raise ValueError("learning_rate must be > 0")
    inp, out = table.input_vectors, table.output_vectors
    center_vecs, pos_vecs, neg_vecs = inp[centers], out[contexts], out[negatives]

    s_pos = np.clip(np.einsum("bd,bd->b", center_vecs, pos_vecs), -LOGIT_CLAMP, LOGIT_CLAMP)
    s_neg = np.clip(np.einsum("bkd,bd->bk", neg_vecs, center_vecs), -LOGIT_CLAMP, LOGIT_CLAMP)
    p_pos = sigmoid(s_pos)
    loss = -float(np.log(p_pos).sum() + np.log(sigmoid(-s_neg)).sum())

    g_pos = (p_pos - 1.0) * rate  # rate * d loss / d s_pos
    g_neg = sigmoid(s_neg) * rate[:, None]  # rate * d loss / d s_neg
    d_center = g_pos[:, None] * pos_vecs + np.einsum("bkd,bk->bd", neg_vecs, g_neg)
    d_pos = g_pos[:, None] * center_vecs
    d_negs = g_neg[:, :, None] * center_vecs[:, None, :]
    _scatter_subtract(inp, centers, d_center)
    _scatter_subtract(
        out,
        np.concatenate([contexts, negatives.ravel()]),
        np.concatenate([d_pos, d_negs.reshape(-1, out.shape[1])]),
    )
    table._row_norms = None  # the input vectors moved
    return loss
