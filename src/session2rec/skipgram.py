"""Listing embeddings via skip-gram with negative sampling.

Co-viewed listings are pushed together and random negatives apart with a
logistic loss over dot products.  Two weight tables are kept: the input
vectors are the published embeddings, the output vectors act as context-side
weights.  Training walks the shuffled window pairs in mini-batches of
``SGNS_BATCH``: every pair of a batch reads the vectors as they stood before
the batch, and the batch's gradients are summed into the tables in one
scatter-add (the mini-batch form of Hogwild!, Recht et al., 2011).  Training
is single-threaded and fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import SessionCorpus, Vocabulary, subsample_keep_probability
from .errors import ConfigError, ParseError
from .neural import sigmoid

LOGIT_CLAMP = 30.0  # dot products are clipped here before exponentiation
SGNS_BATCH = 128  # pairs per update; every pair of a batch reads pre-batch vectors
SIDECAR_MAGIC = b"S2RE"
SIDECAR_VERSION = 1


@dataclass
class EmbeddingTable:
    """Input/output vector pair for every vocabulary index."""

    input_vectors: np.ndarray
    output_vectors: np.ndarray

    def __post_init__(self):
        if self.input_vectors.shape != self.output_vectors.shape:
            raise ValueError("input and output tables must share a shape")
        if self.input_vectors.ndim != 2:
            raise ValueError("tables must be V x d matrices")
        if not (np.isfinite(self.input_vectors).all() and np.isfinite(self.output_vectors).all()):
            raise ValueError("table entries must be finite")

    @property
    def vocab_size(self) -> int:
        return self.input_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.input_vectors.shape[1]


@dataclass(frozen=True)
class SkipgramConfig:
    dim: int = 32
    window: int = 3
    negatives: int = 5
    epochs: int = 5
    learning_rate_initial: float = 0.025
    learning_rate_final: float = 0.0001
    subsample_threshold: float = 1e-3
    seed: int = 0
    smoothed_negatives: bool = False  # frequency**0.75 draws instead of uniform

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        hi, lo = self.learning_rate_initial, self.learning_rate_final
        if not (math.isfinite(hi) and hi >= lo > 0):
            raise ConfigError("learning rates must be finite and satisfy initial >= final > 0")
        if not hi + (lo - hi) > 0:  # the last step of train_embeddings' linear decay
            raise ConfigError(
                f"learning_rate_initial {hi!r} swamps learning_rate_final {lo!r}: "
                "the linear decay reaches 0"
            )
        if self.subsample_threshold <= 0:
            raise ConfigError("subsample_threshold must be > 0")


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


def sgns_step(centers, contexts, negatives, table: EmbeddingTable, learning_rate) -> float:
    """Apply one SGD update for a batch of (center, context, negatives) triples.

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
    loss = -float(np.log(sigmoid(s_pos)).sum() + np.log(sigmoid(-s_neg)).sum())

    g_pos = (sigmoid(s_pos) - 1.0) * rate  # rate * d loss / d s_pos
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
    return loss


def _session_views(corpus: SessionCorpus, vocabulary: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Views of every session with >= 2 known views, as one flat index array.

    OOV views are dropped.  Returns (indices, session id per view); the
    session ids are non-decreasing.
    """
    key_to_index = vocabulary.key_to_index
    sequences = []
    for session in corpus.sessions:
        idx = [
            key_to_index[it.listing_key]
            for it in session.interactions
            if it.event_kind == "view" and it.listing_key in key_to_index
        ]
        if len(idx) >= 2:
            sequences.append(idx)
    lengths = [len(seq) for seq in sequences]
    flat = np.fromiter((i for seq in sequences for i in seq), dtype=np.int64, count=sum(lengths))
    return flat, np.repeat(np.arange(len(sequences)), lengths)


def _window_pairs(indices: np.ndarray, session_ids: np.ndarray, window: int) -> np.ndarray:
    """(center, context) pairs of every session at once.

    ``indices`` holds the views of consecutive sessions, ``session_ids`` the
    non-decreasing session of each view.  Within a session, pairs come out by
    increasing center position, then increasing context position; sessions
    follow one another in order.
    """
    n = len(indices)
    center_pos, context_pos = [], []
    for offset in range(1, window + 1):
        left = np.flatnonzero(session_ids[: max(n - offset, 0)] == session_ids[offset:])
        center_pos += [left, left + offset]
        context_pos += [left + offset, left]
    center_pos = np.concatenate(center_pos)
    context_pos = np.concatenate(context_pos)
    order = np.lexsort((context_pos, center_pos))
    return np.stack([indices[center_pos[order]], indices[context_pos[order]]], axis=1)


def negative_sample(contexts: np.ndarray, vocab_size: int, k: int, rng, weights=None) -> np.ndarray:
    """Draw k negatives for each of the (n,) contexts; returns (n, k).

    Draws are uniform, or follow ``weights`` when given.  A draw equal to
    its row's context is redrawn; after 16 rounds a colliding draw is kept.
    """
    if vocab_size <= 1:
        raise ValueError("cannot negative-sample a single-listing vocabulary")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(contexts)
    if weights is None:
        draws = rng.integers(0, vocab_size, size=(n, k))
    else:
        draws = rng.choice(vocab_size, size=(n, k), p=weights)
    for _ in range(16):
        mask = draws == contexts[:, None]
        hits = int(mask.sum())
        if hits == 0:
            break
        if weights is None:
            draws[mask] = rng.integers(0, vocab_size, size=hits)
        else:
            draws[mask] = rng.choice(vocab_size, size=hits, p=weights)
    return draws


def train_embeddings(
    corpus: SessionCorpus, vocabulary: Vocabulary, config: SkipgramConfig
) -> tuple[EmbeddingTable, list[float]]:
    """Train listing embeddings; returns the table and per-epoch mean losses.

    Input vectors start uniform in [-0.5/d, 0.5/d], output vectors at zero.
    Every epoch re-subsamples frequent views, enumerates window pairs, and
    walks them in shuffled order, ``SGNS_BATCH`` pairs per ``sgns_step``.
    Each pair reads the vectors as they stood before its batch.  The learning
    rate decays linearly from the initial to the final value across all
    pairs of all epochs, and each pair of a batch takes the rate of its own
    position in that sequence.  An epoch's loss is the mean pre-batch loss of
    its pairs.  Raises ``ValueError`` naming the epoch if a table or the
    epoch loss stops being finite.
    """
    v = len(vocabulary)
    if v <= 1:
        raise ValueError("cannot negative-sample a single-listing vocabulary")
    rng = np.random.default_rng(config.seed)
    inp = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(v, config.dim))
    table = EmbeddingTable(inp, np.zeros((v, config.dim)))

    views, session_ids = _session_views(corpus, vocabulary)
    keep_prob = subsample_keep_probability(
        vocabulary.counts, vocabulary.total_views, config.subsample_threshold
    )
    weights = None
    if config.smoothed_negatives:
        w = vocabulary.counts.astype(np.float64) ** 0.75
        weights = w / w.sum()

    # Materialise every epoch's pairs first so the linear decay knows the
    # total step count before the first update.
    epoch_pairs = []
    for _ in range(config.epochs):
        kept = rng.random(len(views)) < keep_prob[views]
        epoch_pairs.append(_window_pairs(views[kept], session_ids[kept], config.window))
    total_steps = sum(len(p) for p in epoch_pairs)
    if total_steps == 0:
        raise ValueError("no training pairs after subsampling")

    lr_hi, lr_lo = config.learning_rate_initial, config.learning_rate_final
    losses: list[float] = []
    step = 0
    denom = max(1, total_steps - 1)
    for epoch, pairs in enumerate(epoch_pairs, start=1):
        if not len(pairs):
            losses.append(losses[-1] if losses else 0.0)
            continue
        order = rng.permutation(len(pairs))
        pairs = pairs[order]
        negs = negative_sample(pairs[:, 1], v, config.negatives, rng, weights)
        epoch_loss = 0.0
        for lo in range(0, len(pairs), SGNS_BATCH):
            hi = min(lo + SGNS_BATCH, len(pairs))
            lr = lr_hi + (lr_lo - lr_hi) * (np.arange(step + lo, step + hi) / denom)
            epoch_loss += sgns_step(pairs[lo:hi, 0], pairs[lo:hi, 1], negs[lo:hi], table, lr)
        step += len(pairs)
        losses.append(epoch_loss / len(pairs))
        if not (
            np.isfinite(losses[-1])
            and np.isfinite(table.input_vectors).all()
            and np.isfinite(table.output_vectors).all()
        ):
            raise ValueError(
                f"skip-gram training diverged in epoch {epoch}: non-finite loss or vectors"
            )
    return table, losses


def nearest_neighbors(table: EmbeddingTable, listing_index: int, top_k: int):
    """Top-k most similar listings by cosine over the input vectors.

    The query row is excluded; ties resolve to the lower index.  Zero-norm
    rows get cosine 0.
    """
    v = table.vocab_size
    if not 0 <= listing_index < v:
        raise IndexError(f"listing index {listing_index} out of range [0, {v})")
    if not 0 < top_k < v:
        raise ValueError("top_k must be in [1, V)")
    vecs = table.input_vectors
    query = vecs[listing_index]
    qn = np.linalg.norm(query)
    norms = np.linalg.norm(vecs, axis=1)
    denom = norms * qn
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 0, vecs @ query / denom, 0.0)
    cos[listing_index] = -np.inf
    ranked = np.argsort(-cos, kind="stable")[:top_k]
    return [(int(i), float(cos[i])) for i in ranked]


def embedding_cluster_quality(table: EmbeddingTable, cluster_of_index: np.ndarray):
    """Diagnostics against known clusters: cosine margin and neighbor purity.

    Returns (mean intra-cluster cosine, mean inter-cluster cosine, top-1
    neighbor purity) computed over all listing pairs via the full cosine
    matrix.
    """
    vecs = table.input_vectors
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    unit = np.where(norms > 0, vecs / np.where(norms == 0, 1.0, norms), 0.0)
    cos = unit @ unit.T
    same = cluster_of_index[:, None] == cluster_of_index[None, :]
    off_diag = ~np.eye(len(vecs), dtype=bool)
    intra = float(cos[same & off_diag].mean())
    inter = float(cos[~same].mean())
    np.fill_diagonal(cos, -np.inf)
    top1 = np.argmax(cos, axis=1)
    purity = float(np.mean(cluster_of_index[top1] == cluster_of_index))
    return intra, inter, purity


def save_embeddings_text(table: EmbeddingTable, keys, path) -> None:
    """Write the text format: header ``V d`` then one ``key v_1 .. v_d`` row.

    Only the input vectors are written; floats use shortest round-trip
    decimals so identical tables produce identical bytes.
    """
    if len(keys) != table.vocab_size:
        raise ValueError("key count must match table rows")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.vocab_size} {table.dim}\n")
        for key, row in zip(keys, table.input_vectors):
            fh.write(key + " " + " ".join(repr(float(x)) for x in row) + "\n")


def load_embeddings_text(path) -> tuple[list[str], np.ndarray]:
    """Read the text format; returns (keys, vectors).

    Lines starting with ``#`` are skipped, and rows appended after the header
    count (cold-start extrapolations) are accepted.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError("embedding file: bad header, expected 'V d'")
        dim = int(header[1])
        keys, rows = [], []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise ParseError(f"line {lineno}: expected key plus {dim} values")
            keys.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    if not keys:
        raise ParseError("embedding file: no rows")
    return keys, np.asarray(rows, dtype=np.float64)


def save_embeddings_binary(table: EmbeddingTable, path) -> None:
    """Binary sidecar holding both tables bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(SIDECAR_MAGIC)
        fh.write(struct.pack("<B", SIDECAR_VERSION))
        fh.write(struct.pack("<QQ", table.vocab_size, table.dim))
        fh.write(np.ascontiguousarray(table.input_vectors, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(table.output_vectors, dtype="<f8").tobytes())


def load_embeddings_binary(path) -> EmbeddingTable:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SIDECAR_MAGIC:
            raise ParseError(f"bad magic {magic!r}, expected {SIDECAR_MAGIC!r}")
        (version,) = struct.unpack("<B", fh.read(1))
        if version != SIDECAR_VERSION:
            raise ParseError(f"unsupported sidecar version {version}")
        v, d = struct.unpack("<QQ", fh.read(16))
        n = v * d * 8
        inp = np.frombuffer(fh.read(n), dtype="<f8").reshape(v, d).copy()
        out = np.frombuffer(fh.read(n), dtype="<f8").reshape(v, d).copy()
    return EmbeddingTable(inp, out)
