import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from session2rec import neural, skipgram
from session2rec.corpus import SyntheticConfig, build_vocabulary, generate_synthetic
from session2rec.errors import ConfigError, ParseError
from session2rec.skipgram import (
    EmbeddingTable,
    SkipgramConfig,
    embedding_cluster_quality,
    load_embeddings_text,
    negative_sample,
    nearest_neighbors,
    save_embeddings_binary,
    save_embeddings_text,
    sgns_step,
    train_embeddings,
)

from conftest import make_corpus, oracle_sgns_step, rebinding

def generate_training_pairs(indices, window: int):
    """Oracle of ``skipgram._window_pairs`` for one session: (center, context)
    pairs within a symmetric window, by increasing center position, then
    increasing offset."""
    n = len(indices)
    pairs = []
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        for j in range(lo, hi):
            if j != i:
                pairs.append((indices[i], indices[j]))
    return pairs


def nearest_neighbors_oracle(table: EmbeddingTable, listing_index: int, top_k: int):
    """Oracle of ``nearest_neighbors``: every row's norm computed on the call
    and a stable sort of all cosines."""
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


def assert_neighbors_match_oracle(table, listing_index, top_k):
    got = nearest_neighbors(table, listing_index, top_k)
    want = nearest_neighbors_oracle(table, listing_index, top_k)
    assert got == want
    assert np.array([c for _, c in got]).tobytes() == np.array([c for _, c in want]).tobytes()


def sgns_loss_and_grads(center_vec, pos_vec, neg_vecs):
    """Per-pair oracle of ``sgns_step``: loss and exact gradients of one
    positive/negative classification step.

    loss = -log sigmoid(pos . center) - sum_neg log sigmoid(-(neg . center))

    Returns (loss, d_center, d_pos, d_negs); dot products are clipped to
    +-LOGIT_CLAMP as in the kernel.
    """
    s_pos = np.clip(center_vec @ pos_vec, -skipgram.LOGIT_CLAMP, skipgram.LOGIT_CLAMP)
    s_neg = np.clip(neg_vecs @ center_vec, -skipgram.LOGIT_CLAMP, skipgram.LOGIT_CLAMP)
    loss = -float(np.log(neural.sigmoid(s_pos)) + np.log(neural.sigmoid(-s_neg)).sum())

    g_pos = neural.sigmoid(s_pos) - 1.0  # d loss / d s_pos
    g_neg = neural.sigmoid(s_neg)  # d loss / d s_neg, one per negative
    d_center = g_pos * pos_vec + neg_vecs.T @ g_neg
    d_pos = g_pos * center_vec
    d_negs = g_neg[:, None] * center_vec[None, :]
    return loss, d_center, d_pos, d_negs


class TestTrainingPairs:
    def test_window_one_enumeration(self):
        assert generate_training_pairs([0, 1, 2], 1) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_window_two_matches_brute_force(self):
        indices = [3, 1, 4, 1, 5]
        got = generate_training_pairs(indices, 2)
        expected = []
        for i in range(len(indices)):
            for j in range(len(indices)):
                if j != i and abs(i - j) <= 2:
                    expected.append((indices[i], indices[j]))
        assert got == expected

    def test_single_view_yields_nothing(self):
        assert generate_training_pairs([7], 3) == []

    def test_book_events_are_never_subsampled_or_context(self):
        # training subsamples and pairs only the views _session_views returns
        corpus = make_corpus([
            ("t1", [("A", 0), ("B", 1), ("B", 2, "book"), ("C", 3)]),
            ("t2", [("A", 0), ("B", 1, "book")]),  # one view left: no pairs
        ])
        vocab = build_vocabulary(corpus, min_count=1)
        views, session_ids = skipgram._session_views(corpus, vocab)
        assert [vocab.index_to_key[i] for i in views] == ["A", "B", "C"]
        assert session_ids.tolist() == [0, 0, 0]

    @given(
        sessions=st.lists(
            st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=12), max_size=8
        ),
        window=st.integers(1, 4),
    )
    @settings(deadline=None, max_examples=200)
    def test_all_session_enumeration_matches_per_session(self, sessions, window):
        # each view carries a keep flag, so kept sessions shrink to 0 or 1 views too
        kept_sessions = [[i for i, keep in session if keep] for session in sessions]
        expected = [pair for kept in kept_sessions for pair in generate_training_pairs(kept, window)]
        views = np.array([i for session in sessions for i, _ in session], dtype=np.int64)
        keep = np.array([k for session in sessions for _, k in session], dtype=bool)
        session_ids = np.repeat(np.arange(len(sessions)), [len(session) for session in sessions])
        got = skipgram._window_pairs(views[keep], session_ids[keep], window)
        assert got.shape == (len(expected), 2)
        assert [(int(c), int(x)) for c, x in got] == expected

    @given(
        lengths=st.lists(st.integers(0, 12), max_size=8),
        keep=st.lists(st.booleans(), min_size=96, max_size=96),
        window=st.integers(1, 4),
    )
    @settings(deadline=None, max_examples=200)
    def test_pair_count_equals_the_pairs_built(self, lengths, keep, window):
        session_ids = np.repeat(np.arange(len(lengths)), lengths)
        kept = np.array(keep[: len(session_ids)], dtype=bool)
        views = np.arange(len(session_ids))[kept]
        pairs = skipgram._window_pairs(views, session_ids[kept], window)
        assert skipgram._pair_count(session_ids[kept], window) == len(pairs)


class TestNegativeSampling:
    def test_two_listing_vocabulary_forces_the_other(self, rng):
        for _ in range(50):
            draws = negative_sample(np.array([0]), 2, 4, rng)
            assert (draws == 1).all()

    def test_uniformity_histogram(self):
        rng = np.random.default_rng(0)
        v, n = 1000, 10**6
        draws = rng.integers(0, v, size=n)  # context collisions negligible here
        counts = np.bincount(negative_sample(np.array([v + 1]), v, n, rng)[0], minlength=v)
        del draws
        expected = n / v
        sigma = math.sqrt(n * (1 / v) * (1 - 1 / v))
        assert np.all(np.abs(counts - expected) <= 3.3 * sigma)

    def test_cardinality(self, rng):
        assert len(negative_sample(np.array([5]), 100, 3, rng)[0]) == 3

    def test_uniform_draws_and_redraws_are_the_integers_stream(self):
        # every embedding trained with uniform negatives depends on this stream
        v, k, contexts = 3, 4, np.arange(40) % 3
        draws = negative_sample(contexts, v, k, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        want = rng.integers(0, v, size=(len(contexts), k))
        first = want.copy()
        for _ in range(16):
            mask = want == contexts[:, None]
            if not mask.any():
                break
            want[mask] = rng.integers(0, v, size=int(mask.sum()))
        assert not np.array_equal(first, want)  # the draws were redrawn
        assert draws.dtype == want.dtype and np.array_equal(draws, want)

    @pytest.mark.parametrize("v", [2, 3, 1000, 2**31 - 1])
    def test_int32_contexts_draw_the_int64_stream(self, v):
        contexts = np.arange(200) % 3
        wide_rng, narrow_rng = np.random.default_rng(4), np.random.default_rng(4)
        wide = negative_sample(contexts, v, 5, wide_rng)
        narrow = negative_sample(contexts.astype(np.int32), v, 5, narrow_rng)
        assert narrow.dtype == np.int32 and np.array_equal(narrow, wide)
        assert narrow_rng.integers(1 << 62) == wide_rng.integers(1 << 62)  # the same state after

    def test_training_views_and_negatives_are_int32(self):
        corpus = make_corpus([
            ("t1", [("A", 0), ("B", 1), ("C", 2), ("A", 3)]),
            ("t2", [("B", 0), ("C", 1)]),
        ])
        views, _ = skipgram._session_views(corpus, build_vocabulary(corpus, min_count=1))
        assert views.dtype == np.int32
        assert negative_sample(views, 3, 2, np.random.default_rng(0)).dtype == np.int32

    def test_single_listing_vocabulary_is_an_error(self, rng):
        with pytest.raises(ValueError, match="single-listing"):
            negative_sample(np.array([0]), 1, 2, rng)

    def test_zero_negatives_is_an_error(self, rng):
        with pytest.raises(ValueError, match="k must be"):
            negative_sample(np.array([0]), 5, 0, rng)


class TestSgnsStep:
    def test_zero_vectors_loss(self):
        table = EmbeddingTable(np.zeros((4, 3)), np.zeros((4, 3)))
        loss = sgns_step(0, 1, [2], table, learning_rate=0.1)
        assert loss == pytest.approx(2 * math.log(2))

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, 5))
            arrays = [rng.normal(size=d), rng.normal(size=d), rng.normal(size=(k, d))]

            def fn(params):
                loss, dc, dp, dn = sgns_loss_and_grads(*params)
                return loss, [dc, dp, dn]

            assert neural.grad_check(rebinding(fn), arrays) < 1e-4

    def test_positive_pair_dot_increases(self, rng):
        inp = rng.uniform(-0.01, 0.01, size=(5, 4))
        out = rng.uniform(-0.01, 0.01, size=(5, 4))
        table = EmbeddingTable(inp.copy(), out.copy())
        before = table.input_vectors[0] @ table.output_vectors[1]
        sgns_step(0, 1, [2, 3], table, learning_rate=0.5)
        after = table.input_vectors[0] @ table.output_vectors[1]
        assert after > before

    def test_negative_colliding_with_context_accumulates(self, rng):
        # duplicate touched rows must receive the summed gradient
        inp = rng.normal(size=(3, 4))
        out = rng.normal(size=(3, 4))
        table = EmbeddingTable(inp.copy(), out.copy())
        loss, d_center, d_pos, d_negs = sgns_loss_and_grads(inp[0], out[1], out[[1, 2]])
        sgns_step(0, 1, [1, 2], table, learning_rate=0.1)
        expected_row1 = out[1] - 0.1 * (d_pos + d_negs[0])
        assert np.allclose(table.output_vectors[1], expected_row1, atol=1e-15)

    def test_batch_equals_accumulated_per_pair_updates(self, rng):
        # repeated centers (0), repeated contexts (1, 2) and negatives equal to
        # their context (rows 0, 2, 4, 5) must all sum into the same rows
        inp = rng.normal(size=(6, 5))
        out = rng.normal(size=(6, 5))
        centers = np.array([0, 0, 1, 2, 0, 3])
        contexts = np.array([1, 1, 2, 2, 4, 1])
        negatives = np.array([[1, 2, 5], [3, 1, 1], [2, 0, 4], [5, 5, 2], [4, 4, 0], [1, 0, 3]])
        rates = np.linspace(0.2, 0.05, len(centers))
        expected_in, expected_out, expected_loss = inp.copy(), out.copy(), 0.0
        for c, ctx, negs, rate in zip(centers, contexts, negatives, rates):
            loss, d_center, d_pos, d_negs = sgns_loss_and_grads(inp[c], out[ctx], out[negs])
            expected_loss += loss
            expected_in[c] -= rate * d_center
            expected_out[ctx] -= rate * d_pos
            for n, d_neg in zip(negs, d_negs):
                expected_out[n] -= rate * d_neg
        table = EmbeddingTable(inp.copy(), out.copy())
        loss = sgns_step(centers, contexts, negatives, table, rates)
        assert loss == pytest.approx(expected_loss, abs=1e-12)
        np.testing.assert_allclose(table.input_vectors, expected_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.output_vectors, expected_out, rtol=0, atol=1e-12)

    def test_extreme_dots_stay_finite(self):
        inp = np.full((2, 3), 100.0)
        out = np.full((2, 3), 100.0)
        table = EmbeddingTable(inp, out)
        loss = sgns_step(0, 1, [0], table, learning_rate=0.01)
        assert np.isfinite(loss)
        assert np.isfinite(table.input_vectors).all()
        assert np.isfinite(table.output_vectors).all()


def takes_dense_form(vocab_size, dim, batch, k):
    """``sgns_step``'s size rule for a (batch, k) step on a V x d table."""
    return vocab_size * dim <= skipgram.DENSE_CELLS + batch * (k + 2) * dim


def assert_step_matches_oracle(inp, out, centers, contexts, negatives, learning_rate):
    """One ``sgns_step`` and one oracle step from the same tables: the loss
    and every bit of both tables must agree."""
    want = EmbeddingTable(inp.copy(), out.copy())
    got = EmbeddingTable(inp.copy(), out.copy())
    want_loss = oracle_sgns_step(centers, contexts, negatives, want, learning_rate)
    got_loss = sgns_step(centers, contexts, negatives, got, learning_rate)
    assert float.hex(got_loss) == float.hex(want_loss)
    assert got.input_vectors.tobytes() == want.input_vectors.tobytes()
    assert got.output_vectors.tobytes() == want.output_vectors.tobytes()
    assert not np.array_equal(got.input_vectors, inp)  # the step moved something


class TestSgnsStepMatchesOracle:
    """The one-scatter step against the two-scatter step it replaced."""

    # (V, d): a 7-row table takes the dense bins, a 6000 x 8 one the compact bins
    SIDES = [pytest.param(7, 4, True, id="dense"), pytest.param(6000, 8, False, id="compact")]

    @pytest.mark.parametrize("per_row_rates", [True, False], ids=["per-row-rates", "scalar-rate"])
    @pytest.mark.parametrize("v, d, dense", SIDES)
    def test_batch(self, rng, v, d, dense, per_row_rates):
        # repeated centers, a negative equal to its context, and rows 0 and
        # V-1 as center, context and negative
        centers, contexts = rng.integers(0, v, 6), rng.integers(0, v, 6)
        centers[:3], contexts[:3] = [0, v - 1, 0], [v - 1, 0, v - 1]
        negatives = rng.integers(0, v, (6, 3))
        negatives[0, 0], negatives[1, :2], negatives[2, 1] = contexts[0], [0, v - 1], 0
        assert takes_dense_form(v, d, *negatives.shape) == dense
        rate = np.linspace(0.4, 0.1, len(centers)) if per_row_rates else 0.3
        inp, out = rng.normal(size=(v, d)), rng.normal(size=(v, d))
        assert_step_matches_oracle(inp, out, centers, contexts, negatives, rate)

    @pytest.mark.parametrize("v, d, dense", SIDES)
    def test_single_triple(self, rng, v, d, dense):
        assert takes_dense_form(v, d, 1, 3) == dense
        inp, out = rng.normal(size=(v, d)), rng.normal(size=(v, d))
        assert_step_matches_oracle(inp, out, v - 1, 0, [0, v - 1, 0], 0.2)
        assert_step_matches_oracle(inp, out, 0, v - 1, [v - 1], 0.7)

    def test_full_batches_of_every_trained_vocabulary_take_the_dense_form(self):
        # desk scale and listing_embed: V <= 1000, d = 32, 128 pairs of 5 negatives
        assert takes_dense_form(1000, 32, skipgram.SGNS_BATCH, 5)
        assert takes_dense_form(1000, 32, skipgram.SGNS_BATCH, 1)
        assert not takes_dense_form(20000, 32, skipgram.SGNS_BATCH, 5)

    @settings(max_examples=60, deadline=None)
    @given(
        v=st.sampled_from([2, 3, 50, 4200, 5000]),
        b=st.integers(1, 40),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scalar_rate=st.booleans(),
    )
    def test_random_batches_match_oracle(self, v, b, k, seed, scalar_rate):
        rng = np.random.default_rng(seed)
        d = 8
        centers, contexts = rng.integers(0, v, b), rng.integers(0, v, b)
        negatives = rng.integers(0, v, (b, k))
        rates = 0.25 if scalar_rate else rng.uniform(0.01, 0.5, b)
        inp, out = rng.normal(size=(v, d)), rng.normal(size=(v, d))
        assert_step_matches_oracle(inp, out, centers, contexts, negatives, rates)


def small_synthetic(seed=21, n_travelers=300):
    config = SyntheticConfig(
        n_listings=30, n_clusters=3, n_travelers=n_travelers, mean_session_len=8,
        booking_base_rate=0.3, seed=seed,
    )
    corpus, truth = generate_synthetic(config)
    vocab = build_vocabulary(corpus, min_count=1)
    return corpus, truth, vocab


def per_pair_sgns_step(center, context, negatives, table, learning_rate):
    """Reference update: one triple at a time, duplicates summed by np.add.at."""
    inp, out = table.input_vectors, table.output_vectors
    loss, d_center, d_pos, d_negs = sgns_loss_and_grads(inp[center], out[context], out[negatives])
    inp[center] -= learning_rate * d_center
    np.add.at(out, negatives, -learning_rate * d_negs)
    out[context] -= learning_rate * d_pos
    return loss


def per_pair_train_embeddings(corpus, vocabulary, config):
    """Reference trainer: per-session pair enumeration, one update per pair.

    Draws from the generator in the same order as ``train_embeddings``, so
    with one pair per batch both produce the same tables up to rounding.
    """
    v = len(vocabulary)
    rng = np.random.default_rng(config.seed)
    inp = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(v, config.dim))
    table = EmbeddingTable(inp, np.zeros((v, config.dim)))
    sequences = []
    for session in corpus.sessions:
        idx = [
            vocabulary.key_to_index[it.listing_key]
            for it in session.interactions
            if it.event_kind == "view" and it.listing_key in vocabulary.key_to_index
        ]
        if len(idx) >= 2:
            sequences.append(np.asarray(idx, dtype=np.int64))
    keep_prob = np.minimum(
        1.0, np.sqrt(config.subsample_threshold * vocabulary.total_views / vocabulary.counts)
    )
    epoch_pairs = []
    for _ in range(config.epochs):
        pairs = []
        for seq in sequences:
            kept = seq[rng.random(len(seq)) < keep_prob[seq]]
            pairs += generate_training_pairs(kept, config.window)
        epoch_pairs.append(np.asarray(pairs, dtype=np.int64).reshape(-1, 2))
    denom = max(1, sum(len(p) for p in epoch_pairs) - 1)
    lr_hi, lr_lo = config.learning_rate_initial, config.learning_rate_final
    losses, step = [], 0
    for pairs in epoch_pairs:
        pairs = pairs[rng.permutation(len(pairs))]
        negs = negative_sample(pairs[:, 1], v, config.negatives, rng)
        epoch_loss = 0.0
        for row in range(len(pairs)):
            lr = lr_hi + (lr_lo - lr_hi) * (step / denom)
            epoch_loss += per_pair_sgns_step(pairs[row, 0], pairs[row, 1], negs[row], table, lr)
            step += 1
        losses.append(epoch_loss / len(pairs))
    return table, losses


class TestTrainEmbeddings:
    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError, match="epochs"):
            SkipgramConfig(epochs=0)
        with pytest.raises(ConfigError, match="learning rates"):
            SkipgramConfig(learning_rate_initial=0.001, learning_rate_final=0.01)

    @pytest.mark.parametrize(
        "initial, final",
        [(math.inf, 1e-4), (math.inf, math.inf), (1e13, 1e-4), (1e300, 1e-300)],
    )
    def test_rejects_non_finite_or_cancelling_rates(self, initial, final):
        with pytest.raises(ConfigError, match="learning.rate"):
            SkipgramConfig(learning_rate_initial=initial, learning_rate_final=final)

    def test_accepts_a_wide_pair_whose_decay_stays_positive(self):
        # 1e12 + (1e-4 - 1e12) rounds to 1.2e-4, not 0
        config = SkipgramConfig(learning_rate_initial=1e12, learning_rate_final=1e-4)
        assert config.learning_rate_initial == 1e12

    def test_deterministic(self):
        corpus, _, vocab = small_synthetic()
        config = SkipgramConfig(dim=8, epochs=2, seed=9)
        t1, l1 = train_embeddings(corpus, vocab, config)
        t2, l2 = train_embeddings(corpus, vocab, config)
        assert np.array_equal(t1.input_vectors, t2.input_vectors)
        assert np.array_equal(t1.output_vectors, t2.output_vectors)
        assert l1 == l2

    def test_loss_non_increasing_within_tolerance(self):
        corpus, _, vocab = small_synthetic()
        _, losses = train_embeddings(corpus, vocab, SkipgramConfig(dim=8, epochs=5, seed=2))
        inversions = [
            (b - a) / a for a, b in zip(losses, losses[1:]) if b > a
        ]
        assert len(inversions) <= 1
        assert all(x <= 0.02 for x in inversions)

    def test_all_entries_finite(self):
        corpus, _, vocab = small_synthetic()
        table, _ = train_embeddings(corpus, vocab, SkipgramConfig(dim=8, epochs=1, seed=1))
        assert np.isfinite(table.input_vectors).all()
        assert np.isfinite(table.output_vectors).all()

    def test_cluster_structure_emerges(self):
        # a 30-listing vocabulary makes every listing "frequent", so lift the
        # subsample threshold out of the way and let the windows do the work
        corpus, truth, vocab = small_synthetic(n_travelers=500)
        table, _ = train_embeddings(
            corpus, vocab, SkipgramConfig(dim=8, epochs=5, seed=4, subsample_threshold=0.1)
        )
        cluster = np.array([truth.cluster_of_listing[k] for k in vocab.index_to_key])
        intra, inter, _ = embedding_cluster_quality(table, cluster)
        assert intra > inter + 0.2

    def test_softmax_probability_favors_coviewed_pairs(self):
        # small-V oracle over the full softmax the sigmoid pairs approximate:
        # p(ctx | center) = exp(out_ctx . in_center) / sum_x exp(out_x . in_center)
        corpus, truth, vocab = small_synthetic(n_travelers=500)
        table, _ = train_embeddings(
            corpus, vocab, SkipgramConfig(dim=8, epochs=5, seed=4, subsample_threshold=0.1)
        )

        def softmax_prob(center, ctx):
            logits = table.output_vectors @ table.input_vectors[center]
            logits -= logits.max()
            probs = np.exp(logits) / np.exp(logits).sum()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            return probs[ctx]

        cluster = np.array([truth.cluster_of_listing[k] for k in vocab.index_to_key])
        same = [softmax_prob(0, j) for j in range(len(vocab)) if j != 0 and cluster[j] == cluster[0]]
        other = [softmax_prob(0, j) for j in range(len(vocab)) if cluster[j] != cluster[0]]
        assert np.mean(same) > np.mean(other)

    def test_batch_of_one_matches_per_pair_reference(self, monkeypatch):
        # einsum and BLAS dot sum in different orders, so equality is to rounding
        corpus, _, vocab = small_synthetic()
        config = SkipgramConfig(dim=8, epochs=2, seed=6)
        expected, expected_losses = per_pair_train_embeddings(corpus, vocab, config)
        monkeypatch.setattr(skipgram, "SGNS_BATCH", 1)
        table, losses = train_embeddings(corpus, vocab, config)
        np.testing.assert_allclose(table.input_vectors, expected.input_vectors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.output_vectors, expected.output_vectors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(losses, expected_losses, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n_listings, n_travelers, dim, dense",
        [pytest.param(30, 300, 8, True, id="dense"), pytest.param(4000, 500, 32, False, id="compact")],
    )
    def test_training_matches_the_oracle_step_bit_for_bit(
        self, monkeypatch, n_listings, n_travelers, dim, dense
    ):
        corpus, _ = generate_synthetic(SyntheticConfig(
            n_listings=n_listings, n_clusters=3, n_travelers=n_travelers, mean_session_len=8,
            booking_base_rate=0.3, seed=23,
        ))
        vocab = build_vocabulary(corpus, min_count=1)
        config = SkipgramConfig(dim=dim, epochs=2, seed=8)
        assert takes_dense_form(len(vocab), dim, skipgram.SGNS_BATCH, config.negatives) == dense
        table, losses = train_embeddings(corpus, vocab, config)
        monkeypatch.setattr(skipgram, "sgns_step", oracle_sgns_step)
        want, want_losses = train_embeddings(corpus, vocab, config)
        assert [float.hex(x) for x in losses] == [float.hex(x) for x in want_losses]
        assert table.input_vectors.tobytes() == want.input_vectors.tobytes()
        assert table.output_vectors.tobytes() == want.output_vectors.tobytes()

    # sha256 of both tables and the per-epoch losses, recorded while every
    # epoch's pairs were built before the first step: building each epoch's
    # pairs when it trains must keep every RNG draw and every bit
    RECORDED = {
        "dense": (
            "a64699935de3422ac3ccf38f6a986871661470884ae56613141bb1eeb3ab9553",
            "ddfc3530d2030b62e1630a462cbaf7547685ab36dece94234dc9aeb831984efe",
            ["0x1.0a281d105de29p+2", "0x1.0a20be51afb18p+2"],
        ),
        "compact": (
            "c9366037b0d4028958e567412b93c2b6af01ca267f8322a5668fcfb4f22734f7",
            "3789e3c067757a5463887c93258542017ac06b1c5878a7c43f57a3a2c2fb7f3a",
            ["0x1.0a2b2252d8743p+2", "0x1.0a2aecbe4d940p+2"],
        ),
    }

    @pytest.mark.parametrize(
        "form, n_listings, n_travelers, dim",
        [("dense", 30, 300, 8), ("compact", 4000, 500, 32)],
    )
    def test_training_matches_the_recorded_tables_and_losses(self, form, n_listings, n_travelers, dim):
        corpus, _ = generate_synthetic(SyntheticConfig(
            n_listings=n_listings, n_clusters=3, n_travelers=n_travelers, mean_session_len=8,
            booking_base_rate=0.3, seed=23,
        ))
        vocab = build_vocabulary(corpus, min_count=1)
        table, losses = train_embeddings(corpus, vocab, SkipgramConfig(dim=dim, epochs=2, seed=8))
        got = (
            hashlib.sha256(table.input_vectors.tobytes()).hexdigest(),
            hashlib.sha256(table.output_vectors.tobytes()).hexdigest(),
            [float.hex(x) for x in losses],
        )
        assert got == self.RECORDED[form]

    def test_each_epoch_builds_its_pairs_after_the_last_epoch_trains(self, monkeypatch):
        events, window_pairs = [], skipgram._window_pairs

        def recording_pairs(indices, session_ids, window):
            events.append("pairs")
            return window_pairs(indices, session_ids, window)

        def recording_step(*args):
            events.append("step")
            return sgns_step(*args)

        monkeypatch.setattr(skipgram, "_window_pairs", recording_pairs)
        monkeypatch.setattr(skipgram, "sgns_step", recording_step)
        corpus, _, vocab = small_synthetic()
        train_embeddings(corpus, vocab, SkipgramConfig(dim=8, epochs=3, seed=5))
        runs = [event for i, event in enumerate(events) if i == 0 or events[i - 1] != event]
        assert runs == ["pairs", "step"] * 3

    def test_each_pair_of_a_batch_takes_its_own_decayed_rate(self, monkeypatch):
        calls = []

        def recording_step(centers, contexts, negatives, table, learning_rate):
            calls.append((len(centers), np.array(learning_rate)))
            return sgns_step(centers, contexts, negatives, table, learning_rate)

        monkeypatch.setattr(skipgram, "sgns_step", recording_step)
        corpus, _, vocab = small_synthetic()
        config = SkipgramConfig(dim=8, epochs=2, seed=5)
        train_embeddings(corpus, vocab, config)
        sizes = [size for size, _ in calls]
        assert max(sizes) == skipgram.SGNS_BATCH
        rates = np.concatenate([rate for _, rate in calls])
        expected = np.linspace(config.learning_rate_initial, config.learning_rate_final, len(rates))
        np.testing.assert_allclose(rates, expected, rtol=1e-12, atol=0)

    def test_divergence_raises_naming_the_epoch(self):
        # the vectors overflow during epoch 2; training must stop there
        corpus, _, vocab = small_synthetic()
        config = SkipgramConfig(
            dim=8, epochs=3, seed=1, learning_rate_initial=1e40, learning_rate_final=1e40
        )
        with pytest.raises(ValueError, match=r"diverged in epoch 2\b"):
            train_embeddings(corpus, vocab, config)

    def test_subsampling_law_on_the_views_training_keeps(self, monkeypatch):
        # listings A and B each hold half the views: f_rel = 0.5 = 4t at t = 0.125
        corpus = make_corpus(
            [(f"{key}{s}", [(key, i) for i in range(50)]) for s in range(100) for key in "AB"]
        )
        vocab = build_vocabulary(corpus, min_count=1)
        kept, window_pairs = [], skipgram._window_pairs

        def recording(indices, session_ids, window):
            kept.append(np.bincount(indices, minlength=2))
            return window_pairs(indices, session_ids, window)

        monkeypatch.setattr(skipgram, "_window_pairs", recording)
        config = SkipgramConfig(dim=2, window=1, epochs=2, subsample_threshold=0.125, seed=7)
        train_embeddings(corpus, vocab, config)
        assert len(kept) == config.epochs
        rates = np.sum(kept, axis=0) / (config.epochs * 5000)
        assert np.all(np.abs(rates - 0.5) < 0.02), rates


class TestNearestNeighbors:
    def test_duplicate_row_ranks_first_with_unit_cosine(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        result = nearest_neighbors(table, 0, 2)
        assert result[0] == (2, pytest.approx(1.0))

    def test_orthogonal_rows_cosine_zero(self):
        vecs = np.eye(3)
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        for idx, cos in nearest_neighbors(table, 0, 2):
            assert cos == pytest.approx(0.0)

    def test_matches_brute_force_scan(self, rng):
        vecs = rng.normal(size=(100, 6))
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        query = 17
        sims = []
        for i in range(100):
            if i == query:
                continue
            cos = vecs[i] @ vecs[query] / (np.linalg.norm(vecs[i]) * np.linalg.norm(vecs[query]))
            sims.append((i, cos))
        sims.sort(key=lambda pair: (-pair[1], pair[0]))
        got = nearest_neighbors(table, query, 10)
        for (gi, gc), (ei, ec) in zip(got, sims[:10]):
            assert gi == ei
            assert gc == pytest.approx(ec, abs=1e-12)

    def test_out_of_range_index(self):
        table = EmbeddingTable(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(IndexError):
            nearest_neighbors(table, 5, 1)
        with pytest.raises(ValueError):
            nearest_neighbors(table, 0, 3)

    def test_duplicate_zero_and_scaled_rows_match_oracle_at_every_k(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        vecs = np.array([a, a, 2.0 * a, np.zeros(4), b, -a, 0.5 * a, b, np.zeros(4), 3.0 * b, a])
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        for query in range(len(vecs)):
            for top_k in range(1, len(vecs)):
                assert_neighbors_match_oracle(table, query, top_k)

    def test_boundary_inside_a_run_of_ties_keeps_the_lower_indices(self):
        # rows 1-4 all have cosine 0.6 to row 0; k = 2 cuts the run in two
        vecs = np.array([[1.0, 0.0], [0.6, 0.8], [0.6, -0.8], [0.6, 0.8], [0.6, -0.8], [0.0, 1.0]])
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        assert [i for i, _ in nearest_neighbors(table, 0, 2)] == [1, 2]
        for top_k in range(1, 6):
            assert_neighbors_match_oracle(table, 0, top_k)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 9).flatmap(
            lambda v: st.tuples(
                st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=v, max_size=v),
                st.lists(st.integers(0, v - 1), min_size=v, max_size=v),
                st.integers(1, v - 1),
            )
        )
    )
    def test_small_tables_with_forced_duplicates_match_oracle(self, case):
        rows, copy_from, top_k = case
        vecs = np.array(rows, dtype=np.float64)
        vecs = np.concatenate([vecs, vecs[copy_from]])  # V more rows, each a copy of a drawn one
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        for query in range(len(vecs)):
            assert_neighbors_match_oracle(table, query, top_k)

    def test_sgns_step_drops_the_cached_norms(self, rng):
        vecs = rng.normal(size=(12, 4))
        table = EmbeddingTable(vecs.copy(), rng.normal(size=(12, 4)))
        assert_neighbors_match_oracle(table, 0, 5)
        sgns_step([1, 2, 3], [4, 5, 6], [[7, 8], [9, 10], [11, 0]], table, 1.0)
        assert not np.array_equal(table.input_vectors, vecs)
        assert_neighbors_match_oracle(table, 0, 5)
        assert_neighbors_match_oracle(table, 1, 11)


class TestPersistence:
    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 1e17])
    def test_text_row_matches_the_per_value_repr(self, scale, rng):
        tiny, huge = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
        row = np.concatenate([rng.normal(size=16) * scale, [0.0, -0.0, tiny, -tiny, 3 * tiny, huge, -huge]])
        old = "K " + " ".join(repr(float(x)) for x in row) + "\n"
        assert skipgram._text_row("K", row) == old

    def test_text_round_trip_is_exact(self, tmp_path, rng):
        vecs = rng.normal(size=(7, 5))
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        keys = [f"L{i}" for i in range(7)]
        path = tmp_path / "emb.txt"
        save_embeddings_text(table, keys, path)
        loaded_keys, loaded = load_embeddings_text(path)
        assert loaded_keys == keys
        assert np.array_equal(loaded, vecs)

    def test_text_loads_a_writable_contiguous_table(self, tmp_path, rng):
        path = tmp_path / "emb.txt"
        save_embeddings_text(EmbeddingTable(rng.normal(size=(4, 3)), np.zeros((4, 3))), list("ABCD"), path)
        _, loaded = load_embeddings_text(path)
        assert loaded.dtype == np.float64 and loaded.shape == (4, 3)
        assert loaded.flags.c_contiguous and loaded.flags.writeable

    def test_text_header_and_comments(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nA 1.0 2.0 3.0\n#coldstart\nB 0.5 0.5 0.5\n")
        keys, vecs = load_embeddings_text(path)
        assert keys == ["A", "B"]
        assert vecs.shape == (2, 3)

    def test_text_bad_row_width(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nA 1.0 2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings_text(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("2 2\nA 1.0 2.0\nA 3.0 4.0\n", 3, id="duplicate-key"),
            pytest.param("1 2\nA 1.0 2.0\n#coldstart\nA 0.5 0.5\n", 4, id="cold-row-reuses-key"),
            pytest.param("2 2\nA 1.0 2.0\nB nan 1.0\n", 3, id="nan"),
            pytest.param("2 2\nA 1.0 inf\nB 1.0 1.0\n", 2, id="inf"),
            pytest.param("2 2\nA 1.0 2.0\nB 1.0 one\n", 3, id="non-numeric"),
            pytest.param("x y\nA 1.0 2.0\n", 1, id="non-integer-header"),
            pytest.param("2 0\nA\n", 1, id="zero-dim-header"),
            pytest.param("-1 2\nA 1.0 2.0\n", 1, id="negative-count-header"),
            pytest.param("2 2 2\nA 1.0 2.0\n", 1, id="three-field-header"),
        ],
    )
    def test_text_bad_file_names_the_line(self, text, line, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"line {line}:"):
            load_embeddings_text(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("3 2\nA 1.0 2.0\nB 3.0 4.0\n", id="above"),
            pytest.param("1 2\nA 1.0 2.0\nB 3.0 4.0\n", id="below"),
            pytest.param("2 2\nA 1.0 2.0\n#coldstart\nB 3.0 4.0\n", id="counts-cold-rows"),
            pytest.param("1 2\nA 1.0 2.0\n#note\nB 3.0 4.0\n", id="other-comment-is-no-marker"),
        ],
    )
    def test_text_header_count_must_match_trained_rows(self, text, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ParseError, match="line 1: header count"):
            load_embeddings_text(path)

    def test_binary_round_trip_is_exact(self, tmp_path, rng):
        table = EmbeddingTable(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
        path = tmp_path / "emb.s2re"
        save_embeddings_binary(table, path)
        data = path.read_bytes()
        header = skipgram.SIDECAR_HEADER.size
        assert skipgram.SIDECAR_HEADER.unpack_from(data) == (b"S2RE", 1, 6, 4)
        assert len(data) == header + 2 * 6 * 4 * 8
        loaded = np.frombuffer(data, dtype="<f8", offset=header).reshape(2, 6, 4)
        assert np.array_equal(loaded[0], table.input_vectors)
        assert np.array_equal(loaded[1], table.output_vectors)
