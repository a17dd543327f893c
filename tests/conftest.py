import math

import numpy as np
import pytest

from session2rec import neural
from session2rec.corpus import Interaction, Session, SessionCorpus


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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def train_minibatch_oracle(arrays, batch_loss_and_grads, n, config, rng, name):
    """The trainer before it kept one flat parameter vector: the optimizer
    steps over the list of arrays, and ``batch_loss_and_grads(arrays,
    indices)`` gets the current list at every batch.  Returns (arrays, the
    mean loss per epoch)."""
    state = neural.init_optimizer(arrays, step_size=config.learning_rate)
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss, grads = batch_loss_and_grads(arrays, batch)
            epoch_loss += loss
            scale = 1.0 / len(batch)
            arrays, state = neural.adam_step(arrays, [g * scale for g in grads], state)
            if not (math.isfinite(epoch_loss) and all(np.isfinite(a).all() for a in arrays)):
                raise ValueError(
                    f"{name} training diverged in epoch {epoch + 1} of {config.epochs}: "
                    "non-finite loss or parameters"
                )
        losses.append(epoch_loss / n)
    return arrays, losses
