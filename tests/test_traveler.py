import json
import math
from pathlib import Path

import numpy as np
import pytest

from session2rec import neural, traveler
from session2rec.corpus import LabeledPrefix
from session2rec.errors import ConfigError, ParseError
from session2rec.neural import DenseLayer, dense_backward, dense_forward, sigmoid, weighted_bce
from session2rec.skipgram import EmbeddingTable
from session2rec.traveler import (
    GATES,
    TRAINABLE_KINDS,
    TravelerConfig,
    TravelerExample,
    TravelerModel,
    attention_combine,
    baseline_random,
    build_examples,
    dan_relu_margin,
    embedding_dim,
    example_loss_and_grads,
    init_params,
    load_traveler_model,
    loss_fn_for_gradcheck,
    params_list,
    pool_average,
    predict_probability,
    save_traveler_model,
    train_traveler_model,
    traveler_embedding,
    with_params,
    write_training_log,
)

from conftest import view


def zero_dan(d=4, d_h2=6, d_h1=3, d_f=2):
    return {
        "pool_proj": DenseLayer(np.zeros((d_h2, d)), np.zeros(d_h2), "relu"),
        "hidden": DenseLayer(np.zeros((d_h1, d_h2)), np.zeros(d_h1), "relu"),
        "embed": DenseLayer(np.zeros((d_f, d_h1)), np.zeros(d_f), "relu"),
        "head": DenseLayer(np.zeros((1, d_f)), np.zeros(1), "sigmoid"),
    }


def zero_lstm(d=3, d_h=2):
    params = {gate: DenseLayer(np.zeros((d_h, d_h + d)), np.zeros(d_h), act) for gate, act in GATES}
    params["head"] = DenseLayer(np.zeros((1, d_h)), np.zeros(1), "sigmoid")
    return params


def example(key, viewed, label):
    """A TravelerExample whose prefix holds one placeholder view per row."""
    views = tuple(view(f"L{j}", j) for j in range(len(viewed)))
    return TravelerExample(LabeledPrefix(key, views, label), viewed)


# The per-example kernels that training ran before each kind was batched;
# the batched kernels must match their sums.


def average_forward(params, viewed):
    pooled = viewed.mean(axis=0)
    out, cache = dense_forward(params["head"], pooled)
    return float(out[0]), pooled, cache


def _average_backward(params, cache, d_prob):
    _, dw_head, db_head = dense_backward(params["head"], cache, np.array([d_prob]))
    return [dw_head, db_head]


def dan_forward(params, viewed):
    pooled = viewed.mean(axis=0)
    h2, c1 = dense_forward(params["pool_proj"], pooled)
    h1, c2 = dense_forward(params["hidden"], h2)
    f, c3 = dense_forward(params["embed"], h1)
    out, c4 = dense_forward(params["head"], f)
    return float(out[0]), f, (c1, c2, c3, c4)


def _dan_backward(params, cache, d_prob):
    c1, c2, c3, c4 = cache
    df, dw_head, db_head = dense_backward(params["head"], c4, np.array([d_prob]))
    dh1, dw_embed, db_embed = dense_backward(params["embed"], c3, df)
    dh2, dw_hidden, db_hidden = dense_backward(params["hidden"], c2, dh1)
    _, dw_pool, db_pool = dense_backward(params["pool_proj"], c1, dh2)
    return [dw_pool, db_pool, dw_hidden, db_hidden, dw_embed, db_embed, dw_head, db_head]


def _gate_arrays(params):
    return [a for gate, _ in GATES for a in (params[gate].weights, params[gate].bias)]


def _lstm_scan(params, viewed):
    """Run the gated recurrence one view at a time; returns hidden states
    and per-step caches.  x_t is [h_{t-1}, view_t]; h and c start at zero."""
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


def _lstm_backward_through_time(params, caches, dh_inject):
    """Backprop through one example's recurrence given d loss / d h_t from
    outside it; returns gradients in gate parameter order."""
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


def lstm_forward(params, viewed):
    """Returns (probability, final hidden state, cache)."""
    states, caches = _lstm_scan(params, viewed)
    h_last = states[-1]
    out, head_cache = dense_forward(params["head"], h_last)
    return float(out[0]), h_last, (states, caches, head_cache)


def _lstm_backward(params, cache, d_prob):
    states, caches, head_cache = cache
    dh_last, dw_head, db_head = dense_backward(params["head"], head_cache, np.array([d_prob]))
    dh_inject = [np.zeros_like(states[0]) for _ in states]
    dh_inject[-1] = dh_last
    gate_grads = _lstm_backward_through_time(params, caches, dh_inject)
    return gate_grads + [dw_head, db_head]


def _attention_backward(score_vector, hs, weights, d_context):
    """Gradients of one sequence's attention mix: score vector and per-state."""
    hs = np.asarray(hs)
    d_alpha = hs @ d_context
    d_scores = weights * (d_alpha - float(weights @ d_alpha))
    tanh_h = np.tanh(hs)
    d_score_vec = tanh_h.T @ d_scores
    dh = weights[:, None] * d_context[None, :] + d_scores[:, None] * (
        score_vector[None, :] * (1.0 - tanh_h**2)
    )
    return d_score_vec, dh


def lstm_attention_forward(params, viewed):
    """Returns (probability, context vector, cache)."""
    states, caches = _lstm_scan(params, viewed)
    context, weights = attention_combine(params["score"].weights[0], states)
    out, head_cache = dense_forward(params["head"], context)
    return float(out[0]), context, (states, caches, weights, head_cache)


def _lstm_attention_backward(params, cache, d_prob):
    states, caches, weights, head_cache = cache
    d_context, dw_head, db_head = dense_backward(params["head"], head_cache, np.array([d_prob]))
    d_score_vec, dh_inject = _attention_backward(
        params["score"].weights[0], states, weights, d_context
    )
    gate_grads = _lstm_backward_through_time(params, caches, list(dh_inject))
    return gate_grads + [d_score_vec[None, :], np.zeros(1), dw_head, db_head]


PER_EXAMPLE = {
    "average": (average_forward, _average_backward),
    "dan": (dan_forward, _dan_backward),
    "lstm": (lstm_forward, _lstm_backward),
    "lstm_attention": (lstm_attention_forward, _lstm_attention_backward),
}


def per_example_loss_and_grads(kind, params, viewed, label, positive_weight):
    forward, backward = PER_EXAMPLE[kind]
    prob, _, cache = forward(params, viewed)
    loss, d_prob = weighted_bce(prob, label, positive_weight)
    return loss, backward(params, cache, d_prob)


def _summed_per_example(kind, params, viewed_list, labels, positive_weight):
    """Batch loss over the per-example forward and backward; the gradients
    are summed in example order."""
    forward, backward = PER_EXAMPLE[kind]
    probs, _, caches = zip(*(forward(params, viewed) for viewed in viewed_list))
    loss, d_probs = weighted_bce(np.array(probs), labels, positive_weight)
    summed = [np.zeros_like(a) for a in params_list(params)]
    for cache, d_prob in zip(caches, d_probs):
        summed = [acc + g for acc, g in zip(summed, backward(params, cache, d_prob))]
    return float(loss.sum()), summed


def assert_matches_summed_oracle(kind, params, viewed, labels, weight):
    loss, grads = example_loss_and_grads(kind, params, viewed, labels, weight)
    expected_loss, expected = _summed_per_example(kind, params, viewed, labels, weight)
    assert loss == pytest.approx(expected_loss, rel=0, abs=1e-12)
    assert len(grads) == len(expected)
    for g, e in zip(grads, expected):
        assert g.shape == e.shape
        assert np.allclose(g, e, rtol=0, atol=1e-12)


def random_case(kind, rng, t=None):
    d = int(rng.integers(3, 7))
    config = TravelerConfig(
        input_dim=d, hidden_expand=d + 3, hidden_contract=max(2, d - 1),
        embedding_dim=max(1, d - 2), lstm_hidden=int(rng.integers(2, 6)),
        seed=int(rng.integers(2**31)),
    )
    params = init_params(kind, config, rng)
    t = t if t is not None else int(rng.integers(1, 6))
    viewed = rng.normal(size=(t, d))
    return params, viewed


class TestPooling:
    def test_single_vector_identity(self):
        v = np.array([[1.0, -2.0, 3.0]])
        assert np.array_equal(pool_average([v])[0], v[0])

    def test_opposite_vectors_cancel(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(pool_average([v])[0], np.zeros(2))

    def test_matches_brute_force_mean(self, rng):
        v = rng.normal(size=(7, 5))
        expected = np.array([sum(v[i, j] for i in range(7)) / 7 for j in range(5)])
        assert np.allclose(pool_average([v])[0], expected, atol=1e-12)

    def test_segment_means_of_a_batch(self, rng):
        batch = [rng.normal(size=(int(t), 4)) for t in rng.integers(1, 13, size=30)]
        pooled = pool_average(batch)
        assert pooled.shape == (30, 4)
        for row, viewed in zip(pooled, batch):
            assert np.allclose(row, viewed.mean(axis=0), rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_average([np.zeros((0, 3))])
        with pytest.raises(ValueError):
            pool_average([np.ones((2, 3)), np.zeros((0, 3))])
        with pytest.raises(ValueError):
            pool_average([])


class TestRandomBaseline:
    def test_single_view_forced(self, rng):
        v = np.array([[2.0, 5.0]])
        assert np.array_equal(baseline_random(v, rng), v[0])

    def test_selection_frequencies(self):
        rng = np.random.default_rng(3)
        v = np.eye(3)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            counts += baseline_random(v, rng)
        assert np.all(np.abs(counts / n - 1 / 3) < 0.01)

    def test_deterministic_for_fixed_seed(self):
        v = np.random.default_rng(0).normal(size=(5, 3))
        a = baseline_random(v, np.random.default_rng(77))
        b = baseline_random(v, np.random.default_rng(77))
        assert np.array_equal(a, b)


class TestDanForward:
    def test_all_zero_parameters(self):
        model = TravelerModel("dan", zero_dan(), input_dim=4)
        prob = predict_probability(model, np.ones((3, 4)))
        emb = traveler_embedding(model, np.ones((3, 4)))
        assert prob == 0.5
        assert np.array_equal(emb, np.zeros(2))

    def test_probability_strictly_inside_unit_interval(self, rng):
        for _ in range(20):
            params, viewed = random_case("dan", rng)
            prob = predict_probability(TravelerModel("dan", params, viewed.shape[1]), viewed)
            assert 0.0 < prob < 1.0

    def test_gradients_match_finite_differences(self, rng):
        checked = 0
        while checked < 15:
            params, viewed = random_case("dan", rng)
            if dan_relu_margin(params, viewed) < 1e-3:
                continue
            label = int(rng.integers(2))
            fn = loss_fn_for_gradcheck("dan", params, viewed, label, 1.5)
            arrays = [a.copy() for a in params_list(params)]
            assert neural.grad_check(fn, arrays, h=1e-5) < 1e-4
            checked += 1


class TestBatchedKernels:
    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_batch_equals_sum_of_per_example_results(self, kind, rng):
        for size in (1, 2, 5, 16, 33, 64):
            params, one = random_case(kind, rng)
            listings = rng.normal(size=(6, one.shape[1]))  # few listings, so views repeat
            viewed = [listings[rng.integers(0, 6, size=int(t))] for t in rng.integers(1, 13, size=size)]
            labels = rng.integers(0, 2, size=size)
            weight = 1.0 + 3.0 * rng.random()
            assert_matches_summed_oracle(kind, params, viewed, labels, weight)

    @pytest.mark.parametrize("mix", ("mixed-1-50", "all-length-1", "all-equal", "repeated-prefixes"))
    @pytest.mark.parametrize("kind", ("lstm", "lstm_attention"))
    def test_packed_recurrence_equals_sum_of_per_example_results(self, kind, mix, rng):
        for size in (1, 2, 3, 17, 64):
            params, one = random_case(kind, rng)
            listings = rng.normal(size=(6, one.shape[1]))  # few listings, so views repeat
            if mix == "all-length-1":
                lengths = np.ones(size, dtype=int)
            elif mix == "all-equal":
                lengths = np.full(size, int(rng.integers(2, 20)))
            else:
                lengths = rng.integers(1, 51, size=size)
                lengths[0], lengths[-1] = 50, 1
            viewed = [listings[rng.integers(0, 6, size=int(t))] for t in lengths]
            if mix == "repeated-prefixes":  # equal lengths tie in the packing sort
                viewed = [viewed[int(i)] for i in rng.integers(0, (size + 1) // 2, size=size)]
            labels = rng.integers(0, 2, size=size)
            assert_matches_summed_oracle(kind, params, viewed, labels, 1.0 + 3.0 * rng.random())

    @pytest.mark.parametrize("kind", ("lstm", "lstm_attention"))
    def test_packed_gradients_match_finite_differences(self, kind, rng):
        for _ in range(3):
            params, one = random_case(kind, rng)
            viewed = [rng.normal(size=(t, one.shape[1])) for t in (1, 4, 2)]

            def fn(arrays):
                return example_loss_and_grads(kind, with_params(params, arrays), viewed, [1, 0, 1], 1.5)

            assert neural.grad_check(fn, [a.copy() for a in params_list(params)], h=1e-5) < 1e-4

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_prediction_and_embedding_match_per_example_forward(self, kind, rng):
        forward, _ = PER_EXAMPLE[kind]
        for _ in range(10):
            params, viewed = random_case(kind, rng, t=int(rng.integers(1, 13)))
            model = TravelerModel(kind, params, viewed.shape[1])
            prob, emb, _ = forward(params, viewed)
            assert predict_probability(model, viewed) == pytest.approx(prob, rel=0, abs=1e-12)
            assert np.allclose(traveler_embedding(model, viewed), emb, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_prefix_list_matches_per_example_forward(self, kind, rng, monkeypatch):
        monkeypatch.setattr(traveler, "INFERENCE_ROWS", 8)  # 20 prefixes take three passes
        forward, _ = PER_EXAMPLE[kind]
        params, one = random_case(kind, rng)
        viewed = [rng.normal(size=(int(t), one.shape[1])) for t in rng.integers(1, 30, size=20)]
        model = TravelerModel(kind, params, one.shape[1])
        probs, embs = predict_probability(model, viewed), traveler_embedding(model, viewed)
        assert probs.shape == (20,)
        assert embs.shape == (20, embedding_dim(model))
        for v, prob, emb in zip(viewed, probs, embs):
            expected_prob, expected_emb, _ = forward(params, v)
            assert prob == pytest.approx(expected_prob, rel=0, abs=1e-12)
            assert np.allclose(emb, expected_emb, rtol=0, atol=1e-12)


class TestLstmForward:
    def test_all_zero_parameters(self):
        params = zero_lstm()
        prob, h_last, _ = lstm_forward(params, np.ones((4, 3)))
        assert prob == 0.5
        assert np.array_equal(h_last, np.zeros(2))
        model = TravelerModel("lstm", params, input_dim=3)
        assert predict_probability(model, np.ones((4, 3))) == 0.5
        assert np.array_equal(traveler_embedding(model, np.ones((4, 3))), np.zeros(2))

    def test_single_step_matches_hand_computation(self):
        # d = 1 input, d_h = 2 hidden, hand-evaluated gates for one step
        w = 0.5
        params = {
            "forget": DenseLayer(np.full((2, 3), 0.2), np.array([0.1, -0.1]), "sigmoid"),
            "input": DenseLayer(np.full((2, 3), 0.3), np.array([0.0, 0.2]), "sigmoid"),
            "cell": DenseLayer(np.full((2, 3), -0.4), np.array([0.5, 0.0]), "tanh"),
            "output": DenseLayer(np.full((2, 3), 0.6), np.array([-0.2, 0.3]), "sigmoid"),
            "head": DenseLayer(np.array([[w, -w]]), np.array([0.25]), "sigmoid"),
        }
        x_val = 0.8  # h_prev = 0, so the concatenated input is [0, 0, 0.8]
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        forget = [sig(0.2 * x_val + 0.1), sig(0.2 * x_val - 0.1)]
        gain = [sig(0.3 * x_val + 0.0), sig(0.3 * x_val + 0.2)]
        cand = [math.tanh(-0.4 * x_val + 0.5), math.tanh(-0.4 * x_val + 0.0)]
        out = [sig(0.6 * x_val - 0.2), sig(0.6 * x_val + 0.3)]
        c = [gain[i] * cand[i] for i in range(2)]  # c_prev = 0 kills the forget term
        h = [out[i] * math.tanh(c[i]) for i in range(2)]
        expected_p = sig(w * h[0] - w * h[1] + 0.25)

        prob, h_last, _ = lstm_forward(params, np.array([[x_val]]))
        assert np.allclose(h_last, h, atol=1e-15)
        assert prob == pytest.approx(expected_p, abs=1e-15)
        model = TravelerModel("lstm", params, input_dim=1)
        assert np.allclose(traveler_embedding(model, np.array([[x_val]])), h, atol=1e-15)
        assert predict_probability(model, np.array([[x_val]])) == pytest.approx(expected_p, abs=1e-15)

    def test_gradients_through_five_steps(self, rng):
        for _ in range(10):
            params, viewed = random_case("lstm", rng, t=5)
            fn = loss_fn_for_gradcheck("lstm", params, viewed, int(rng.integers(2)), 2.0)
            arrays = [a.copy() for a in params_list(params)]
            assert neural.grad_check(fn, arrays, h=1e-5) < 1e-4


class TestAttention:
    def test_single_state_degenerates(self, rng):
        score = rng.normal(size=3)
        h = rng.normal(size=(1, 3))
        context, weights = attention_combine(score, h)
        assert np.array_equal(weights, [1.0])
        assert np.array_equal(context, h[0])

    def test_identical_states_give_uniform_weights(self, rng):
        score = rng.normal(size=4)
        h = np.tile(rng.normal(size=4), (6, 1))
        context, weights = attention_combine(score, h)
        assert np.allclose(weights, 1 / 6, atol=1e-12)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.allclose(context, h[0], atol=1e-12)

    def test_matches_brute_force_softmax(self, rng):
        score = rng.normal(size=5)
        h = rng.normal(size=(6, 5))
        context, weights = attention_combine(score, h)
        scores = [float(score @ np.tanh(h[i])) for i in range(6)]
        exp = [math.exp(s) for s in scores]
        expected_w = np.array([e / sum(exp) for e in exp])
        assert np.allclose(weights, expected_w, atol=1e-12)
        assert np.allclose(context, expected_w @ h, atol=1e-12)

    def test_weights_nonnegative_and_normalized(self, rng):
        for _ in range(20):
            d_h = int(rng.integers(2, 6))
            score = rng.normal(size=d_h)
            h = rng.normal(size=(int(rng.integers(1, 8)), d_h))
            _, weights = attention_combine(score, h)
            assert np.all(weights >= 0)
            assert abs(weights.sum() - 1.0) < 1e-12

    def test_padded_steps_get_exactly_zero_weight(self, rng):
        score = rng.normal(size=4)
        sequences = [rng.normal(size=(t, 4)) for t in (5, 1, 3)]
        valid = np.arange(5)[:, None] < np.array([5, 1, 3])
        hs = rng.normal(size=(5, 3, 4))  # padding that must not leak into any row
        for b, seq in enumerate(sequences):
            hs[: len(seq), b] = seq
        context, weights = attention_combine(score, hs, valid)
        assert np.all(weights[~valid] == 0.0)
        for b, seq in enumerate(sequences):
            one_context, one_weights = attention_combine(score, seq)
            assert np.allclose(context[b], one_context, rtol=0, atol=1e-12)
            assert np.allclose(weights[: len(seq), b], one_weights, rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(10):
            params, viewed = random_case("lstm_attention", rng)
            fn = loss_fn_for_gradcheck("lstm_attention", params, viewed, int(rng.integers(2)), 1.0)
            arrays = [a.copy() for a in params_list(params)]
            assert neural.grad_check(fn, arrays, h=1e-5) < 1e-4


class TestPermutationBehaviour:
    def test_dan_and_average_are_order_invariant(self, rng):
        for kind in ("dan", "average"):
            params, viewed = random_case(kind, rng, t=6)
            model = TravelerModel(kind, params, viewed.shape[1])
            prob = predict_probability(model, viewed)
            emb = traveler_embedding(model, viewed)
            for _ in range(5):
                shuffled = viewed[rng.permutation(len(viewed))]
                assert abs(predict_probability(model, shuffled) - prob) < 1e-12
                assert np.allclose(traveler_embedding(model, shuffled), emb, atol=1e-12)

    def test_lstm_and_attention_are_order_sensitive(self, rng):
        for kind in ("lstm", "lstm_attention"):
            found_difference = False
            for _ in range(5):
                params, viewed = random_case(kind, rng, t=5)
                model = TravelerModel(kind, params, viewed.shape[1])
                base = predict_probability(model, viewed)
                flipped = predict_probability(model, viewed[::-1].copy())
                if abs(base - flipped) > 1e-9:
                    found_difference = True
                    break
            assert found_difference, f"{kind} never distinguished any ordering"


def separable_examples(rng, d=8, n=60):
    examples = []
    for i in range(n):
        label = i % 2
        center = np.zeros(d)
        center[0] = 1.0 if label else -1.0
        t = int(rng.integers(1, 6))
        examples.append(example(f"u{i}", center + 0.05 * rng.normal(size=(t, d)), label))
    return examples


class TestTraining:
    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_separable_toy_reaches_high_accuracy(self, kind, rng):
        examples = separable_examples(rng)
        config = TravelerConfig(
            input_dim=8, hidden_expand=12, hidden_contract=6, embedding_dim=4,
            lstm_hidden=6, epochs=50, batch_size=16, seed=3,
        )
        model, trace = train_traveler_model(examples, kind, config)
        correct = sum(
            (predict_probability(model, ex.viewed) >= 0.5) == ex.label for ex in examples
        )
        assert correct / len(examples) >= 0.99
        assert len(trace) == 50

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_matches_per_example_reference_trainer(self, kind, rng):
        examples = separable_examples(rng, n=60)  # batches of 16, 16, 16 and 12
        config = TravelerConfig(
            input_dim=8, hidden_expand=12, hidden_contract=6, embedding_dim=4,
            lstm_hidden=4, epochs=3, batch_size=16, seed=5,
        )
        model, trace = train_traveler_model(examples, kind, config)
        # the per-example loop both trainers ran before they shared one
        w_pos = 1.0  # the toy set is balanced
        ref_rng = np.random.default_rng(config.seed)
        params = init_params(kind, config, ref_rng)
        arrays = params_list(params)
        state = neural.init_optimizer(arrays, step_size=config.learning_rate)
        for epoch in range(config.epochs):
            order = ref_rng.permutation(len(examples))
            epoch_loss = 0.0
            for lo in range(0, len(examples), config.batch_size):
                batch = order[lo : lo + config.batch_size]
                current = with_params(params, arrays)
                summed = [np.zeros_like(a) for a in arrays]
                for i in batch:
                    loss, grads = per_example_loss_and_grads(
                        kind, current, examples[i].viewed, examples[i].label, w_pos
                    )
                    epoch_loss += loss
                    for acc, g in zip(summed, grads):
                        acc += g
                arrays, state = neural.adam_step(arrays, [g * (1.0 / len(batch)) for g in summed], state)
            assert trace[epoch].mean_loss == pytest.approx(epoch_loss / len(examples), rel=1e-12)
        for got, want in zip(params_list(model.params), arrays):
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_positive_weight_doubles_positive_gradients_exactly(self, rng):
        params, viewed = random_case("dan", rng)
        _, g1 = example_loss_and_grads("dan", params, [viewed], [1], 1.0)
        _, g2 = example_loss_and_grads("dan", params, [viewed], [1], 2.0)
        for a, b in zip(g1, g2):
            assert np.array_equal(b, 2.0 * a)
        # a negative example is untouched by the positive weight
        _, n1 = example_loss_and_grads("dan", params, [viewed], [0], 1.0)
        _, n2 = example_loss_and_grads("dan", params, [viewed], [0], 2.0)
        for a, b in zip(n1, n2):
            assert np.array_equal(a, b)

    def test_training_is_deterministic_bytes(self, tmp_path, rng):
        examples = separable_examples(rng, n=30)
        config = TravelerConfig(
            input_dim=8, hidden_expand=12, hidden_contract=6, embedding_dim=4,
            lstm_hidden=4, epochs=3, batch_size=8, seed=9,
        )
        paths = []
        for run in range(2):
            model, _ = train_traveler_model(examples, "dan", config)
            path = tmp_path / f"model{run}.json"
            save_traveler_model(model, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_degenerate_labels_rejected(self, rng):
        examples = [
            example("u", rng.normal(size=(2, 4)), 1) for _ in range(5)
        ]
        config = TravelerConfig(input_dim=4, hidden_expand=6, hidden_contract=3, embedding_dim=2)
        with pytest.raises(ValueError, match="degenerate labels"):
            train_traveler_model(examples, "dan", config)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ConfigError, match="kind"):
            train_traveler_model([], "boosted_trees", TravelerConfig())

    def test_loss_trace_non_increasing_within_tolerance(self, rng):
        examples = separable_examples(rng, n=120)
        config = TravelerConfig(
            input_dim=8, hidden_expand=12, hidden_contract=6, embedding_dim=4,
            epochs=12, batch_size=32, seed=2,
        )
        _, trace = train_traveler_model(examples, "dan", config)
        losses = [entry.mean_loss for entry in trace]
        inversions = [(b - a) / a for a, b in zip(losses, losses[1:]) if b > a]
        assert len(inversions) <= 1
        assert all(x <= 0.02 for x in inversions)

    def test_training_log_format(self, tmp_path, rng):
        examples = separable_examples(rng, n=20)
        config = TravelerConfig(
            input_dim=8, hidden_expand=12, hidden_contract=6, embedding_dim=4,
            epochs=4, batch_size=8, seed=1,
        )
        _, trace = train_traveler_model(examples, "average", config)
        path = tmp_path / "trace.log"
        write_training_log(trace, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        for i, line in enumerate(lines):
            epoch, loss, wall = line.split("\t")
            assert int(epoch) == i
            float(loss), float(wall)


class TestTravelerEmbedding:
    def test_zero_dan_embedding_is_zero(self):
        model = TravelerModel("dan", zero_dan(), input_dim=4)
        emb = traveler_embedding(model, np.ones((3, 4)))
        assert np.array_equal(emb, np.zeros(2))

    def test_average_kind_equals_pool(self, rng):
        params = {"head": DenseLayer(rng.normal(size=(1, 5)), rng.normal(size=1), "sigmoid")}
        model = TravelerModel("average", params, input_dim=5)
        viewed = rng.normal(size=(4, 5))
        assert np.array_equal(traveler_embedding(model, viewed), pool_average([viewed])[0])

    def test_dan_embedding_invariant_to_prefix_permutation(self, rng):
        params, viewed = random_case("dan", rng, t=8)
        model = TravelerModel("dan", params, input_dim=viewed.shape[1])
        base = traveler_embedding(model, viewed)
        for _ in range(20):
            emb = traveler_embedding(model, viewed[rng.permutation(len(viewed))])
            assert np.allclose(emb, base, atol=1e-12)

    def test_random_kind_needs_rng(self, rng):
        model = TravelerModel("random", None, input_dim=3)
        viewed = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="rng"):
            traveler_embedding(model, viewed)
        picked = traveler_embedding(model, viewed, rng=np.random.default_rng(1))
        assert any(np.array_equal(picked, row) for row in viewed)

    def test_empty_prefix_rejected(self):
        model = TravelerModel("dan", zero_dan(), input_dim=4)
        with pytest.raises(ValueError, match="empty"):
            traveler_embedding(model, np.zeros((0, 4)))

    @pytest.mark.parametrize("kind", ("dan", "lstm"))
    def test_empty_prefix_list_and_empty_member_rejected(self, kind):
        model = TravelerModel(kind, zero_dan(d=3) if kind == "dan" else zero_lstm(), input_dim=3)
        with pytest.raises(ValueError, match="no prefixes"):
            predict_probability(model, [])
        with pytest.raises(ValueError, match="empty prefix"):
            traveler_embedding(model, [np.ones((2, 3)), np.zeros((0, 3))])

    def test_random_kind_draws_once_per_prefix_in_list_order(self, rng):
        model = TravelerModel("random", None, input_dim=3)
        viewed = [rng.normal(size=(int(t), 3)) for t in rng.integers(1, 9, size=30)]
        picked = traveler_embedding(model, viewed, rng=np.random.default_rng(5))
        reference = np.random.default_rng(5)
        assert np.array_equal(picked, [baseline_random(v, reference) for v in viewed])

    def test_embedding_dims_per_kind(self, rng):
        config = TravelerConfig(
            input_dim=6, hidden_expand=9, hidden_contract=4, embedding_dim=3, lstm_hidden=5
        )
        dims = {"average": 6, "dan": 3, "lstm": 5, "lstm_attention": 5}
        for kind, expected in dims.items():
            model = TravelerModel(kind, init_params(kind, config, rng), input_dim=6)
            assert embedding_dim(model) == expected
        assert embedding_dim(TravelerModel("random", None, input_dim=6)) == 6


class TestBuildExamples:
    def test_oov_views_dropped_and_empty_skipped(self):
        table = EmbeddingTable(np.arange(8.0).reshape(2, 4), np.zeros((2, 4)))
        prefixes = [
            LabeledPrefix("t1", (view("A", 0), view("Z", 1)), 1),
            LabeledPrefix("t2", (view("Z", 0),), 0),
        ]
        examples = build_examples(prefixes, {"A": 0, "B": 1}, table)
        assert len(examples) == 1
        assert examples[0].label == 1
        assert np.array_equal(examples[0].viewed, table.input_vectors[[0]])


class TestPersistenceRoundTrip:
    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_save_load_preserves_predictions(self, kind, tmp_path, rng):
        params, viewed = random_case(kind, rng)
        model = TravelerModel(kind, params, input_dim=viewed.shape[1], seed=4,
                              provenance={"split": "train"})
        path = tmp_path / f"{kind}.json"
        save_traveler_model(model, path)
        loaded = load_traveler_model(path)
        assert loaded.kind == kind
        assert loaded.provenance == {"split": "train"}
        assert predict_probability(loaded, viewed) == predict_probability(model, viewed)
        assert np.array_equal(
            traveler_embedding(loaded, viewed), traveler_embedding(model, viewed)
        )

    def test_random_model_round_trip(self, tmp_path):
        model = TravelerModel("random", None, input_dim=7, seed=21)
        path = tmp_path / "random.json"
        save_traveler_model(model, path)
        loaded = load_traveler_model(path)
        assert loaded.kind == "random"
        assert loaded.input_dim == 7
        assert loaded.seed == 21


DATA = Path(__file__).parent / "data"


def golden_model(kind):
    """The model each tests/data/traveler_<kind>.json was written from."""
    config = TravelerConfig(
        input_dim=3, hidden_expand=5, hidden_contract=3, embedding_dim=2, lstm_hidden=2, seed=11
    )
    params = init_params(kind, config, np.random.default_rng(11))
    return TravelerModel(kind, params, 3, 11, {"split": "train"})


class TestModelFileLayout:
    """The golden files pin layer order, activations, dims key order and the
    parameter draw order of init_params."""

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_writer_reproduces_golden_bytes(self, kind, tmp_path):
        save_traveler_model(golden_model(kind), tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == (DATA / f"traveler_{kind}.json").read_bytes()

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_load_then_save_reproduces_golden_bytes(self, kind, tmp_path):
        golden = DATA / f"traveler_{kind}.json"
        save_traveler_model(load_traveler_model(golden), tmp_path / "model.json")
        assert (tmp_path / "model.json").read_bytes() == golden.read_bytes()


def _shrink_dan_input(payload):
    payload["dims"]["input_dim"] = 4  # still expands then contracts; weights read 3


def _widen_dan_contraction(payload):
    # consistent shapes, but the contraction (4) exceeds the input (3)
    payload["dims"]["hidden_contract"] = 4
    payload["layers"][1].update(weights=np.zeros((4, 5)).tolist(), bias=[0.0] * 4)
    payload["layers"][2].update(weights=np.zeros((2, 4)).tolist())


BAD_MODEL_FILES = [
    pytest.param("lstm", lambda p: p["layers"][4].update(weights=[[0.1, 0.2, 0.3]]), id="lstm-head-shape"),
    pytest.param("dan", _shrink_dan_input, id="input-dim-disagrees"),
    pytest.param("average", lambda p: p["layers"].append(p["layers"][0]), id="extra-layer"),
    pytest.param("dan", lambda p: p["layers"][1].update(activation="tanh"), id="dan-activation"),
    pytest.param("dan", lambda p: p["layers"].pop(), id="truncated-dan"),
    pytest.param("lstm_attention", lambda p: p.pop("dims"), id="missing-dims"),
    pytest.param("lstm", lambda p: p["dims"].update(lstm_hidden="2"), id="non-integer-dim"),
    pytest.param("dan", _widen_dan_contraction, id="dan-not-expand-contract"),
]


class TestModelFileValidation:
    @pytest.mark.parametrize("kind, mutate", BAD_MODEL_FILES)
    def test_spec_mismatch_is_parse_error(self, kind, mutate, tmp_path):
        payload = json.loads((DATA / f"traveler_{kind}.json").read_text())
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            load_traveler_model(path)


BAD_LAYER_FIELDS = [
    pytest.param(lambda p: p.pop("format_version"), id="missing-format-version"),
    pytest.param(lambda p: p.update(format_version=2), id="format-version-2"),
    pytest.param(lambda p: p.pop("layers"), id="missing-layers"),
    pytest.param(lambda p: p.update(layers={"head": p["layers"][3]}), id="layers-not-a-list"),
    pytest.param(lambda p: p["layers"].__setitem__(0, "relu"), id="layer-not-an-object"),
    pytest.param(lambda p: p["layers"][0].pop("weights"), id="missing-weights"),
    pytest.param(lambda p: p["layers"][0].update(weights="0.5"), id="string-weights"),
    pytest.param(lambda p: p["layers"][3].update(weights=[[0.1], [0.1, 0.2]]), id="ragged-weights"),
    pytest.param(lambda p: p["layers"][1].pop("bias"), id="missing-bias"),
    pytest.param(lambda p: p["layers"][1].update(bias={"b": 1}), id="object-bias"),
    pytest.param(lambda p: p["layers"][2].pop("activation"), id="missing-activation"),
    pytest.param(lambda p: p["layers"][2].update(activation=1), id="numeric-activation"),
]


class TestModelJsonBoundary:
    @pytest.mark.parametrize("mutate", BAD_LAYER_FIELDS)
    def test_bad_field_is_parse_error(self, mutate, tmp_path):
        payload = json.loads((DATA / "traveler_dan.json").read_text())
        mutate(payload)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError):
            neural.load_model_json(path)
        with pytest.raises(ParseError):
            load_traveler_model(path)


class TestTravelerConfigRanges:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("learning_rate", -0.01),
            ("learning_rate", 0.0),
            ("learning_rate", math.inf),
            ("learning_rate", math.nan),
            ("positive_class_weight", 0.0),
            ("positive_class_weight", -2.0),
            ("positive_class_weight", math.inf),
            ("positive_class_weight", math.nan),
            ("lstm_hidden", 0),
        ],
    )
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TravelerConfig(**{name: value})


class TestDivergence:
    def test_names_kind_and_epoch(self, rng):
        examples = separable_examples(rng, n=60)
        config = TravelerConfig(
            input_dim=8, hidden_expand=12, hidden_contract=6, embedding_dim=4,
            epochs=3, batch_size=16, learning_rate=1e300, seed=1,
        )
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"dan training diverged in epoch 1 of 3"):
            train_traveler_model(examples, "dan", config)
