import json
import math
from pathlib import Path

import numpy as np
import pytest

from session2rec import neural
from session2rec.corpus import LabeledPrefix
from session2rec.errors import ConfigError, ParseError
from session2rec.neural import DenseLayer
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
    dan_forward,
    dan_relu_margin,
    embedding_dim,
    example_loss_and_grads,
    init_params,
    load_traveler_model,
    loss_fn_for_gradcheck,
    lstm_forward,
    params_list,
    pool_average,
    predict_probability,
    save_traveler_model,
    train_traveler_model,
    traveler_embedding,
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
        assert np.array_equal(pool_average(v), v[0])

    def test_opposite_vectors_cancel(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(pool_average(v), np.zeros(2))

    def test_matches_brute_force_mean(self, rng):
        v = rng.normal(size=(7, 5))
        expected = np.array([sum(v[i, j] for i in range(7)) / 7 for j in range(5)])
        assert np.allclose(pool_average(v), expected, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_average(np.zeros((0, 3)))


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
        params = zero_dan()
        prob, emb, _ = dan_forward(params, np.ones((3, 4)))
        assert prob == 0.5
        assert np.array_equal(emb, np.zeros(2))

    def test_probability_strictly_inside_unit_interval(self, rng):
        for _ in range(20):
            params, viewed = random_case("dan", rng)
            prob, _, _ = dan_forward(params, viewed)
            assert 0.0 < prob < 1.0

    def test_gradients_match_finite_differences(self, rng):
        checked = 0
        while checked < 15:
            params, viewed = random_case("dan", rng)
            if dan_relu_margin(params, viewed) < 1e-3:
                continue
            label = int(rng.integers(2))
            fn = loss_fn_for_gradcheck("dan", params, viewed, label, 1.5)
            arrays = [a.copy() for a in params_list("dan", params)]
            assert neural.grad_check(fn, arrays, h=1e-5) < 1e-4
            checked += 1


class TestLstmForward:
    def test_all_zero_parameters(self):
        params = zero_lstm()
        prob, h_last, _ = lstm_forward(params, np.ones((4, 3)))
        assert prob == 0.5
        assert np.array_equal(h_last, np.zeros(2))

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

    def test_gradients_through_five_steps(self, rng):
        for _ in range(10):
            params, viewed = random_case("lstm", rng, t=5)
            fn = loss_fn_for_gradcheck("lstm", params, viewed, int(rng.integers(2)), 2.0)
            arrays = [a.copy() for a in params_list("lstm", params)]
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

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(10):
            params, viewed = random_case("lstm_attention", rng)
            fn = loss_fn_for_gradcheck("lstm_attention", params, viewed, int(rng.integers(2)), 1.0)
            arrays = [a.copy() for a in params_list("lstm_attention", params)]
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

    def test_positive_weight_doubles_positive_gradients_exactly(self, rng):
        params, viewed = random_case("dan", rng)
        _, g1 = example_loss_and_grads("dan", params, viewed, 1, 1.0)
        _, g2 = example_loss_and_grads("dan", params, viewed, 1, 2.0)
        for a, b in zip(g1, g2):
            assert np.array_equal(b, 2.0 * a)
        # a negative example is untouched by the positive weight
        _, n1 = example_loss_and_grads("dan", params, viewed, 0, 1.0)
        _, n2 = example_loss_and_grads("dan", params, viewed, 0, 2.0)
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
        assert np.array_equal(traveler_embedding(model, viewed), pool_average(viewed))

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
