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
    load_embeddings_binary,
    load_embeddings_text,
    negative_sample,
    nearest_neighbors,
    save_embeddings_binary,
    save_embeddings_text,
    sgns_step,
    train_embeddings,
)


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

            assert neural.grad_check(fn, arrays, h=1e-5) < 1e-4

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
    weights = None
    if config.smoothed_negatives:
        w = vocabulary.counts.astype(np.float64) ** 0.75
        weights = w / w.sum()
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
        negs = negative_sample(pairs[:, 1], v, config.negatives, rng, weights)
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

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_batch_of_one_matches_per_pair_reference(self, monkeypatch, smoothed):
        # einsum and BLAS dot sum in different orders, so equality is to rounding
        corpus, _, vocab = small_synthetic()
        config = SkipgramConfig(dim=8, epochs=2, seed=6, smoothed_negatives=smoothed)
        expected, expected_losses = per_pair_train_embeddings(corpus, vocab, config)
        monkeypatch.setattr(skipgram, "SGNS_BATCH", 1)
        table, losses = train_embeddings(corpus, vocab, config)
        np.testing.assert_allclose(table.input_vectors, expected.input_vectors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.output_vectors, expected.output_vectors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(losses, expected_losses, rtol=0, atol=1e-12)

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

    def test_smoothed_negative_flag_changes_sampling(self):
        corpus, _, vocab = small_synthetic()
        base = SkipgramConfig(dim=8, epochs=1, seed=3)
        smoothed = SkipgramConfig(dim=8, epochs=1, seed=3, smoothed_negatives=True)
        t1, _ = train_embeddings(corpus, vocab, base)
        t2, _ = train_embeddings(corpus, vocab, smoothed)
        assert not np.array_equal(t1.output_vectors, t2.output_vectors)


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


class TestPersistence:
    def test_text_round_trip_is_exact(self, tmp_path, rng):
        vecs = rng.normal(size=(7, 5))
        table = EmbeddingTable(vecs, np.zeros_like(vecs))
        keys = [f"L{i}" for i in range(7)]
        path = tmp_path / "emb.txt"
        save_embeddings_text(table, keys, path)
        loaded_keys, loaded = load_embeddings_text(path)
        assert loaded_keys == keys
        assert np.array_equal(loaded, vecs)

    def test_text_header_and_comments(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nA 1.0 2.0 3.0\n#coldstart\nB 0.5 0.5 0.5\n")
        keys, vecs = load_embeddings_text(path)
        assert keys == ["A", "B"]
        assert vecs.shape == (2, 3)

    def test_text_bad_row_width(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 3\nA 1.0 2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings_text(path)

    def test_binary_round_trip_is_exact(self, tmp_path, rng):
        table = EmbeddingTable(rng.normal(size=(6, 4)), rng.normal(size=(6, 4)))
        path = tmp_path / "emb.s2re"
        save_embeddings_binary(table, path)
        loaded = load_embeddings_binary(path)
        assert np.array_equal(loaded.input_vectors, table.input_vectors)
        assert np.array_equal(loaded.output_vectors, table.output_vectors)

    def test_binary_magic_checked(self, tmp_path):
        path = tmp_path / "bad.s2re"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ParseError, match="magic"):
            load_embeddings_binary(path)
