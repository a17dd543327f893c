"""Listing embeddings via skip-gram with negative sampling.

Co-viewed listings are pushed together and random negatives apart with a
logistic loss over dot products.  Two weight tables are kept: the input
vectors are the published embeddings, the output vectors act as context-side
weights.  Training walks the shuffled window pairs in mini-batches of
``SGNS_BATCH``: every pair of a batch reads the vectors as they stood before
the batch, and the batch's gradients are summed into both tables by one
scatter-add (the mini-batch form of Hogwild!, Recht et al., 2011).  The
scatter bins every row of both tables while the tables are small next to
the rows a batch touches, and only the touched rows past that; both forms
add each row's terms in the same order, so they give the same floats.
Training is single-threaded and fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from .corpus import SessionCorpus, Vocabulary, subsample_keep_probability
from .errors import ConfigError, ParseError, open_utf8
from .neural import sigmoid

LOGIT_CLAMP = 30.0  # dot products are clipped here before exponentiation
SGNS_BATCH = 128  # pairs per update; every pair of a batch reads pre-batch vectors
# sgns_step bins all 2V rows while V * d <= DENSE_CELLS + touched rows * d: the
# measured crossover of the two scatter forms (2-core x86-64 VM, numpy 2.4.6)
DENSE_CELLS = 1 << 15
SIDECAR_MAGIC = b"S2RE"
SIDECAR_VERSION = 1
SIDECAR_HEADER = struct.Struct("<4sBQQ")  # magic, version, V, d


@dataclass
class EmbeddingTable:
    """Input/output vector pair for every vocabulary index.

    The first neighbour query computes the norms of the input vectors and
    caches them for the next queries.  ``sgns_step``, the one library
    function that writes the table in place, drops the cache; a caller that
    writes ``input_vectors`` itself builds a new table.  The first
    ``sgns_step`` also caches its scatter's bin offsets, which depend on
    the width alone; ``train_embeddings`` returns its table without them.
    """

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    _row_norms: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _bin_offsets: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every input vector, computed once and cached."""
        if self._row_norms is None:
            self._row_norms = np.linalg.norm(self.input_vectors, axis=1)
        return self._row_norms

    def _bin_offset_rows(self, n_bins: int) -> np.ndarray:
        """(n_bins, d) flat ``np.bincount`` bins, entry (i, j) = i * d + j: a
        prefix of one cached table, rebuilt when a call needs more rows."""
        if self._bin_offsets is None or len(self._bin_offsets) < n_bins:
            self._bin_offsets = np.arange(n_bins * self.dim).reshape(n_bins, self.dim)
        return self._bin_offsets[:n_bins]


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


def _bin_sums(slot: np.ndarray, updates: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n_bins, d) sums over the (n_bins, d) ``offsets``: row ``i`` adds, in
    input order, the updates whose slot is ``i``."""
    n_bins, dim = offsets.shape
    bins = offsets.take(slot, axis=0).ravel()
    return np.bincount(bins, weights=updates.ravel(), minlength=n_bins * dim).reshape(n_bins, dim)


def _clamped(scores: np.ndarray) -> np.ndarray:
    """``scores`` clipped to +-LOGIT_CLAMP in place."""
    np.maximum(scores, -LOGIT_CLAMP, out=scores)
    return np.minimum(scores, LOGIT_CLAMP, out=scores)


def sgns_step(centers, contexts, negatives, table: EmbeddingTable, learning_rate) -> float:
    """Apply one SGD update for a batch of (center, context, negatives) triples.

    ``centers`` and ``contexts`` are (B,) indices, ``negatives`` is (B, k) and
    ``learning_rate`` a scalar or one rate per row.  Scalars and a (k,)
    negative list are accepted for a single triple.  The gathers read
    indices of any integer dtype as they are (training's are int32); a
    ``TypeError`` names an argument that is not integer and a
    ``ValueError`` one that holds a negative index, before either table
    moves.  Every gradient is taken from the vectors as they stood before
    the batch; rows touched more than once (a repeated center or context,
    a negative equal to its context) receive the summed update.  Returns
    the summed pre-update loss.

    Both tables are updated by one scatter.  Input row ``i`` is bin row
    ``i`` and output row ``j`` is bin row ``V + j``; one ``np.bincount`` sums
    each bin's terms in input order (centers; contexts, then negatives), and
    the sums are subtracted from the tables in place.  The flat bins are
    taken by bin row from the table's cached ``(rows, d)`` offsets.  With
    n = B * (k + 2) touched rows, the bins are all ``2V x d`` cells when
    ``V * d <= DENSE_CELLS + n * d``; past that size, zero-filling and
    subtracting the untouched rows costs more than sorting the n rows with
    ``np.unique``, and the bins are the distinct touched rows only.  Both
    forms give the same floats: each bin holds the same terms in the same
    order, and subtracting an all-zero bin leaves a row unchanged.
    """
    centers, contexts = np.atleast_1d(np.asarray(centers)), np.atleast_1d(np.asarray(contexts))
    negatives = np.asarray(negatives).reshape(len(centers), -1)
    names = ("centers", "contexts", "negatives")  # in bin-row order
    for name, indices in zip(names, (centers, contexts, negatives)):
        if indices.dtype.kind not in "iu":
            raise TypeError(f"{name} must be integer indices, not {indices.dtype}")
    batch, k = negatives.shape
    rate = np.asarray(learning_rate, dtype=np.float64)
    if rate.ndim == 0:
        rate = np.full(batch, rate)
    if not (rate > 0).all():
        raise ValueError("learning_rate must be > 0")
    # one bin row per touched row: centers, contexts, then negatives
    rows = np.concatenate([centers, contexts, negatives.ravel()], dtype=np.intp)
    if rows.min() < 0:
        first = int(np.argmax(rows < 0))
        raise ValueError(f"{names[min(first // batch, 2)]} holds a negative index, {rows[first]}")
    inp, out = table.input_vectors, table.output_vectors
    v, dim = inp.shape
    rows[batch:] += v
    center_vecs, pos_vecs = inp.take(centers, axis=0), out.take(contexts, axis=0)
    neg_vecs = out.take(negatives, axis=0)

    s_pos = _clamped(np.einsum("bd,bd->b", center_vecs, pos_vecs))
    s_neg = _clamped(np.einsum("bkd,bd->bk", neg_vecs, center_vecs))
    g_pos = sigmoid(s_pos)
    loss = -float(np.log(g_pos).sum() + np.log(sigmoid(-s_neg)).sum())

    g_pos -= 1.0
    g_pos *= rate  # rate * d loss / d s_pos
    g_neg = sigmoid(s_neg)
    g_neg *= rate[:, None]  # rate * d loss / d s_neg
    updates = np.empty((len(rows), dim))
    np.einsum("bkd,bk->bd", neg_vecs, g_neg, out=updates[:batch])
    pos_vecs *= g_pos[:, None]
    updates[:batch] += pos_vecs
    np.multiply(g_pos[:, None], center_vecs, out=updates[batch : 2 * batch])
    np.einsum("bk,bd->bkd", g_neg, center_vecs, out=updates[2 * batch :].reshape(batch, k, dim))

    if v * dim <= DENSE_CELLS + len(rows) * dim:
        sums = _bin_sums(rows, updates, table._bin_offset_rows(2 * v))
        inp -= sums[:v]
        out -= sums[v:]
    else:
        touched, slot = np.unique(rows, return_inverse=True)
        # sized for all n rows, so batches with more distinct rows reuse the table
        sums = _bin_sums(slot, updates, table._bin_offset_rows(len(rows))[: len(touched)])
        split = np.searchsorted(touched, v)
        inp[touched[:split]] -= sums[:split]
        out[touched[split:] - v] -= sums[split:]
    table._row_norms = None  # the input vectors moved
    return loss


def _session_views(corpus: SessionCorpus, vocabulary: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Views of every session with >= 2 known views, as one flat index array.

    OOV views are dropped.  Returns (int32 indices, session id per view);
    the session ids are non-decreasing.
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
    flat = np.fromiter((i for seq in sequences for i in seq), dtype=np.int32, count=sum(lengths))
    return flat, np.repeat(np.arange(len(sequences)), lengths)


def _shifted(values: np.ndarray, window: int, fill) -> list[np.ndarray]:
    """``values`` moved by each offset -window .. -1, 1 .. window: entry ``i``
    holds ``values[i + offset]``, or ``fill`` past either end."""
    n, pad = len(values), np.full(window, fill, dtype=values.dtype)
    padded = np.concatenate([pad, values, pad])
    return [padded[window + o : window + o + n] for o in (*range(-window, 0), *range(1, window + 1))]


def _window_mask(session_ids: np.ndarray, window: int) -> np.ndarray:
    """(n, 2 * window) bool mask: (i, j) says view ``i``'s ``j``-th ``_shifted``
    neighbour is in its session (ids are >= 0, the fill -1 matches none)."""
    return np.stack([other == session_ids for other in _shifted(session_ids, window, -1)], axis=1)


def _pair_count(session_ids: np.ndarray, window: int) -> int:
    """Number of pairs ``_window_pairs`` builds from these views, without building them."""
    return int(np.count_nonzero(_window_mask(session_ids, window)))


def _window_pairs(indices: np.ndarray, session_ids: np.ndarray, window: int) -> np.ndarray:
    """(center, context) pairs of every session at once, of ``indices``' dtype:
    ``indices`` holds the views of consecutive sessions, ``session_ids`` the
    non-decreasing session of each view.  The window mask picks the pairs in
    row-major order, by center then context position, from (n, 2 * window)
    arrays of the indices, with no position array."""
    mask = _window_mask(session_ids, window)
    contexts = np.stack(_shifted(indices, window, 0), axis=1)
    return np.stack([np.broadcast_to(indices[:, None], mask.shape)[mask], contexts[mask]], axis=1)


def negative_sample(contexts: np.ndarray, vocab_size: int, k: int, rng) -> np.ndarray:
    """Draw k uniform negatives for each of the (n,) contexts; returns (n, k)
    of the contexts' integer dtype.

    A draw equal to its row's context is redrawn; after 16 rounds a
    colliding draw is kept.  ``rng.integers`` draws the same values and
    leaves the same state for an int32 and an int64 result, so training's
    int32 negatives are the int64 stream.
    """
    if vocab_size <= 1:
        raise ValueError("cannot negative-sample a single-listing vocabulary")
    if k < 1:
        raise ValueError("k must be >= 1")
    draws = rng.integers(0, vocab_size, size=(len(contexts), k), dtype=contexts.dtype)
    mask = np.empty(draws.shape, dtype=bool)  # one collision mask, refilled each round
    for _ in range(16):
        hits = int(np.equal(draws, contexts[:, None], out=mask).sum())
        if hits == 0:
            break
        draws[mask] = rng.integers(0, vocab_size, size=hits, dtype=contexts.dtype)
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
    position in that sequence.  Every epoch's subsampling mask is drawn and
    its pairs counted first; an epoch's pairs, order and negatives are built
    only when it trains, so one epoch's are held at a time.  An epoch's loss
    is the mean pre-batch loss of its pairs.  Raises ``ValueError`` naming the
    epoch if a table or the epoch loss stops being finite.
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

    # Draw every epoch's subsampling mask before the first shuffle, and count
    # its pairs, so the linear decay knows the total step count before the
    # first update.
    kept = [rng.random(len(views)) < keep_prob[views] for _ in range(config.epochs)]
    counts = [_pair_count(session_ids[mask], config.window) for mask in kept]
    total_steps = sum(counts)
    if total_steps == 0:
        raise ValueError("no training pairs after subsampling")

    lr_hi, lr_lo = config.learning_rate_initial, config.learning_rate_final
    losses: list[float] = []
    step = 0
    denom = max(1, total_steps - 1)
    for epoch, (mask, n_pairs) in enumerate(zip(kept, counts), start=1):
        if not n_pairs:
            losses.append(losses[-1] if losses else 0.0)
            continue
        pairs = _window_pairs(views[mask], session_ids[mask], config.window)
        # swap whole 8-byte (center, context) rows in place: the pairs and the
        # generator state of pairs[rng.permutation(n_pairs)]
        rng.shuffle(pairs.view(np.int64)[:, 0])
        negs = negative_sample(pairs[:, 1], v, config.negatives, rng)
        epoch_loss = 0.0
        for lo in range(0, n_pairs, SGNS_BATCH):
            hi = min(lo + SGNS_BATCH, n_pairs)
            lr = lr_hi + (lr_lo - lr_hi) * (np.arange(step + lo, step + hi) / denom)
            epoch_loss += sgns_step(pairs[lo:hi, 0], pairs[lo:hi, 1], negs[lo:hi], table, lr)
        del pairs, negs  # freed before the next epoch builds its own
        step += n_pairs
        losses.append(epoch_loss / n_pairs)
        if not (
            np.isfinite(losses[-1])
            and np.isfinite(table.input_vectors).all()
            and np.isfinite(table.output_vectors).all()
        ):
            raise ValueError(
                f"skip-gram training diverged in epoch {epoch}: non-finite loss or vectors"
            )
    table._bin_offsets = None  # serves training only
    return table, losses


def nearest_neighbors(table: EmbeddingTable, listing_index: int, top_k: int):
    """Top-k most similar listings by cosine over the input vectors.

    The query row is excluded; ties resolve to the lower index.  Zero-norm
    rows get cosine 0.  Row norms come from the table's cache, the dot
    products are divided by the norms in place, and only the rows at or
    above the k-th largest cosine are sorted.
    """
    v = table.vocab_size
    if not 0 <= listing_index < v:
        raise IndexError(f"listing index {listing_index} out of range [0, {v})")
    if not 0 < top_k < v:
        raise ValueError("top_k must be in [1, V)")
    vecs = table.input_vectors
    query = vecs[listing_index]
    qn = np.linalg.norm(query)
    denom = table.row_norms() * qn
    cos = vecs @ query
    with np.errstate(invalid="ignore", divide="ignore"):
        cos /= denom
    cos[~(denom > 0)] = 0.0  # not denom == 0: a nan product (inf norm times 0) also gives 0
    cos[listing_index] = -np.inf
    kth = np.partition(cos, v - top_k)[v - top_k]
    candidates = np.flatnonzero(cos >= kth)  # every tie at the boundary stays in
    ranked = candidates[np.lexsort((candidates, -cos[candidates]))[:top_k]]
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


def _text_row(key: str, row: np.ndarray) -> str:
    """One line of the embedding text: the key, then the row's shortest
    round-trip decimals."""
    return key + " " + " ".join(map(repr, row.tolist())) + "\n"


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
            fh.write(_text_row(key, row))


def load_embeddings_text(path) -> tuple[list[str], np.ndarray]:
    """Read the text format; returns (keys, vectors).

    Lines starting with ``#`` are skipped; rows after a ``#coldstart`` line
    are cold-start extrapolations.  ParseError names the line of a header
    that is not two positive integers, a row of the wrong width, a value that
    is not a finite number, a key seen before, and (line 1) a header count
    other than the number of rows before ``#coldstart`` (all rows without it).
    """
    with open_utf8(path) as fh:
        header = fh.readline().split()
        try:
            count, dim = (int(x) for x in header)
        except ValueError:
            count = dim = 0
        if count < 1 or dim < 1:
            raise ParseError(
                f"{path}: line 1: bad header {' '.join(header)!r}, expected positive integers 'V d'"
            )
        first_line, values, n_trained = {}, array("d"), None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if line == "#coldstart" and n_trained is None:
                n_trained = len(first_line)
            if not line or line.startswith("#"):
                continue
            parts = line.split(" ")
            if len(parts) != dim + 1:
                raise ParseError(f"{path}: line {lineno}: expected key plus {dim} values")
            key = parts[0]
            if key in first_line:
                raise ParseError(
                    f"{path}: line {lineno}: duplicate key {key!r}, first on line {first_line[key]}"
                )
            first_line[key] = lineno
            try:
                values.fromlist([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not first_line:
        raise ParseError(f"{path}: no rows")
    # one flat buffer of doubles, viewed as V x d without a copy
    keys, vectors = list(first_line), np.frombuffer(values, dtype=np.float64).reshape(-1, dim)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}: line {first_line[keys[np.argmin(finite)]]}: non-finite value")
    n_trained = len(keys) if n_trained is None else n_trained
    if count != n_trained:
        raise ParseError(f"{path}: line 1: header count {count}, but {n_trained} trained rows")
    return keys, vectors


def save_embeddings_binary(table: EmbeddingTable, path) -> None:
    """Binary sidecar holding both tables bit-exactly.  No stage reads it,
    so there is no loader."""
    with open(path, "wb") as fh:
        fh.write(SIDECAR_HEADER.pack(SIDECAR_MAGIC, SIDECAR_VERSION, table.vocab_size, table.dim))
        fh.write(np.ascontiguousarray(table.input_vectors, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(table.output_vectors, dtype="<f8").tobytes())

