import math
from types import SimpleNamespace

import numpy as np
import pytest

from session2rec.neural import (
    ACTIVATIONS,
    DenseLayer,
    adam_step,
    dense_backward,
    dense_forward,
    grad_check,
    sigmoid,
    layer_from_json,
    layer_to_json,
    load_model_json,
    save_model_json,
    stack_backward,
    stack_forward,
    train_minibatch,
    weighted_bce,
)

from conftest import oracle_adam_state, oracle_adam_step, rebinding, train_minibatch_oracle


def random_layer(rng, out_dim, in_dim, activation):
    return DenseLayer(rng.normal(size=(out_dim, in_dim)), rng.normal(size=out_dim), activation)


def activate_grad_oracle(z, kind):
    """The activation's derivative recomputed from the pre-activation z."""
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "sigmoid":
        s = sigmoid(z)
        return s * (1.0 - s)
    if kind == "tanh":
        return 1.0 - np.tanh(z) ** 2
    return np.ones_like(z)


class TestSigmoid:
    """The one logistic rule: 1 / (1 + exp(-x)) to the bit, for arrays and scalars."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_arrays_match_the_formula_bit_for_bit(self, rng, dtype):
        special = [-np.inf, -800.0, -30.0, -5e-324, 0.0, -0.0, 5e-324, 30.0, 800.0, np.inf, np.nan]
        x = np.concatenate([rng.normal(scale=8.0, size=211), special]).astype(dtype).reshape(2, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
            got = sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "x", [0.25, -3, np.float64(1.5), np.float32(-2.5), np.array(4.0)], ids=repr
    )
    def test_scalars_match_the_formula(self, x):
        want = 1.0 / (1.0 + np.exp(-x))
        got = sigmoid(x)
        assert type(got) is type(want) and got == want

    def test_the_input_is_left_as_it_was(self, rng):
        x = rng.normal(size=10)
        before = x.copy()
        sigmoid(x)
        assert x.tobytes() == before.tobytes()


class TestDenseForward:
    def test_zero_parameters_relu(self):
        layer = DenseLayer(np.zeros((3, 4)), np.zeros(3), "relu")
        out, _ = dense_forward(layer, np.ones(4))
        assert np.array_equal(out, np.zeros(3))

    def test_identity_linear(self):
        layer = DenseLayer(np.eye(4), np.zeros(4), "linear")
        x = np.array([1.0, -2.0, 3.0, -4.0])
        out, _ = dense_forward(layer, x)
        assert np.array_equal(out, x)

    def test_matches_direct_recomputation(self, rng):
        layer = random_layer(rng, 8, 5, "tanh")
        x = rng.normal(size=5)
        out, (cached_x, cached_z, cached_a) = dense_forward(layer, x)
        z = np.array([sum(layer.weights[i, j] * x[j] for j in range(5)) + layer.bias[i] for i in range(8)])
        assert np.allclose(out, np.tanh(z), atol=1e-12)
        assert np.allclose(cached_z, z, atol=1e-12)
        assert cached_a is out

    def test_shape_mismatch(self, rng):
        layer = random_layer(rng, 3, 4, "relu")
        with pytest.raises(ValueError, match="shape"):
            dense_forward(layer, np.ones(5))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            DenseLayer(np.zeros((1, 1)), np.zeros(1), "softplus")

    def test_each_activation_keeps_the_bits_of_its_expression(self, rng):
        expressions = {
            "relu": lambda z: np.maximum(z, 0.0),
            "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
            "tanh": np.tanh,
            "linear": lambda z: z,
        }
        assert ACTIVATIONS == tuple(expressions)
        for activation, expression in expressions.items():
            for rows in ((), (9,)):
                layer = random_layer(rng, 5, 3, activation)
                layer.weights[0], layer.bias[0] = 0.0, 0.0  # z == 0 exactly: the relu kink
                out, (_, z, a) = dense_forward(layer, rng.normal(scale=40.0, size=rows + (3,)))
                assert a is out
                assert out.tobytes() == expression(z).tobytes()


class TestDenseBatch:
    def test_single_row_keeps_matrix_vector_bits(self, rng):
        # the per-example LSTM head depends on these exact bits
        for _ in range(200):
            out_dim, in_dim = (int(n) for n in rng.integers(1, 40, size=2))
            layer = random_layer(rng, out_dim, in_dim, "sigmoid")
            x, upstream = rng.normal(size=in_dim), rng.normal(size=out_dim)
            out, cache = dense_forward(layer, x)
            z = layer.weights @ x + layer.bias
            assert np.array_equal(cache[1], z)
            dz = upstream * (out * (1.0 - out))
            dx, dw, db = dense_backward(layer, cache, upstream)
            assert np.array_equal(dx, layer.weights.T @ dz)
            assert np.array_equal(dw, np.outer(dz, x))
            assert np.array_equal(db, dz)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh", "linear"])
    def test_rows_match_per_row_calls(self, activation, rng):
        for batch in (1, 2, 17, 64):
            layer = random_layer(rng, 5, 3, activation)
            x, upstream = rng.normal(size=(batch, 3)), rng.normal(size=(batch, 5))
            out, cache = dense_forward(layer, x)
            dx, dw, db = dense_backward(layer, cache, upstream)
            assert out.shape == (batch, 5) and dx.shape == (batch, 3)
            sum_dw, sum_db = np.zeros_like(dw), np.zeros_like(db)
            for i in range(batch):
                row_out, row_cache = dense_forward(layer, x[i])
                row_dx, row_dw, row_db = dense_backward(layer, row_cache, upstream[i])
                assert np.allclose(out[i], row_out, rtol=0, atol=1e-12)
                assert np.allclose(dx[i], row_dx, rtol=0, atol=1e-12)
                sum_dw += row_dw
                sum_db += row_db
            assert np.allclose(dw, sum_dw, rtol=0, atol=1e-12)
            assert np.allclose(db, sum_db, rtol=0, atol=1e-12)

    def test_batch_width_mismatch(self, rng):
        layer = random_layer(rng, 3, 4, "relu")
        with pytest.raises(ValueError, match="shape"):
            dense_forward(layer, np.ones((2, 5)))


class TestDenseBackward:
    def test_zero_upstream_gives_zero_grads(self, rng):
        layer = random_layer(rng, 3, 4, "sigmoid")
        out, cache = dense_forward(layer, rng.normal(size=4))
        dx, dw, db = dense_backward(layer, cache, np.zeros(3))
        assert not dx.any() and not dw.any() and not db.any()

    def test_linear_adjoint(self, rng):
        layer = random_layer(rng, 3, 4, "linear")
        _, cache = dense_forward(layer, rng.normal(size=4))
        g = rng.normal(size=3)
        dx, _, db = dense_backward(layer, cache, g)
        assert np.allclose(dx, layer.weights.T @ g, atol=1e-15)
        assert np.array_equal(db, g)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh", "linear"])
    def test_matches_pre_activation_oracle_bit_for_bit(self, activation, rng):
        for rows in ((), (1,), (9,)):  # one row, then batches
            for scale in (1.0, 40.0):  # 40 saturates sigmoid and tanh
                layer = random_layer(rng, 5, 3, activation)
                layer.weights[0], layer.bias[0] = 0.0, 0.0  # z == 0 exactly: the relu kink
                x = rng.normal(scale=scale, size=rows + (3,))
                upstream = rng.normal(size=rows + (5,))
                _, cache = dense_forward(layer, x)
                z = x @ layer.weights.T + layer.bias
                dz = upstream * activate_grad_oracle(z, activation)
                flat = dz.reshape(-1, 5)
                want = (dz @ layer.weights, flat.T @ x.reshape(-1, 3), flat.sum(axis=0))
                got = dense_backward(layer, cache, upstream)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_stack_matches_the_dense_backward_chain_bit_for_bit(self, depth, rng):
        widths = [4, 6, 3, 1][-depth - 1 :]
        activations = ["relu", "tanh", "sigmoid"][-depth:]
        layers = [
            random_layer(rng, out_dim, in_dim, activation)
            for in_dim, out_dim, activation in zip(widths, widths[1:], activations)
        ]
        _, caches = stack_forward(layers, rng.normal(size=(7, widths[0])))
        d_out = rng.normal(size=(7, 1))
        upstream, want = d_out, []
        for layer, cache in zip(reversed(layers), reversed(caches)):
            upstream, dw, db = dense_backward(layer, cache, upstream)
            want[:0] = [dw, db]
        got = stack_backward(layers, caches, d_out)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh", "linear"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(hash(activation) % 2**32)
        for _ in range(25):
            out_dim = int(rng.integers(1, 7))
            in_dim = int(rng.integers(1, 7))
            x = rng.normal(size=in_dim)
            while True:
                layer = random_layer(rng, out_dim, in_dim, activation)
                z = layer.weights @ x + layer.bias
                if activation != "relu" or np.abs(z).min() > 1e-3:
                    break  # keep clear of the relu kink
            target = rng.normal(size=out_dim)

            def fn(params):
                trial = DenseLayer(params[0], params[1], activation)
                out, cache = dense_forward(trial, x)
                diff = out - target
                loss = 0.5 * float(diff @ diff)
                _, dw, db = dense_backward(trial, cache, diff)
                return loss, [dw, db]

            err = grad_check(rebinding(fn), [layer.weights.copy(), layer.bias.copy()])
            assert err < 1e-4


class TestWeightedBce:
    def test_positive_at_half_with_weight_two(self):
        loss, _ = weighted_bce(0.5, 1, 2.0)
        assert loss == pytest.approx(2 * math.log(2))

    def test_confident_correct_negative(self):
        loss, _ = weighted_bce(1e-9, 0, 3.0)
        assert 0 <= loss < 1e-6

    def test_weight_one_equals_unweighted_exactly(self, rng):
        # the w+ factor must be a pure multiplier: at w+ = 1 the loss equals
        # the unweighted cross entropy bit for bit
        for _ in range(100):
            p = float(rng.uniform(0.001, 0.999))
            y = int(rng.integers(2))
            loss, grad = weighted_bce(p, y, 1.0)
            reference = -np.log(p) if y == 1 else -np.log1p(-p)
            assert loss == reference

    def test_array_matches_scalar_calls_row_by_row(self, rng):
        p = np.concatenate([rng.uniform(0.0, 1.0, size=200), [0.0, 1.0, 1e-9, 1.0 - 1e-9]])
        y = rng.integers(0, 2, size=len(p))
        for w in (1.0, 2.5):
            losses, grads = weighted_bce(p, y, w)
            assert losses.shape == grads.shape == p.shape
            for i in range(len(p)):
                loss, grad = weighted_bce(float(p[i]), int(y[i]), w)
                assert losses[i] == loss and grads[i] == grad

    def test_invalid_label_in_array(self):
        with pytest.raises(ValueError):
            weighted_bce(np.array([0.5, 0.5]), np.array([1, 2]), 1.0)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            y = int(rng.integers(2))
            w = float(rng.uniform(1.0, 10.0))
            _, grad = weighted_bce(p, y, w)
            h = 1e-7
            up, _ = weighted_bce(p + h, y, w)
            down, _ = weighted_bce(p - h, y, w)
            numeric = (up - down) / (2 * h)
            assert abs(grad - numeric) / max(abs(grad), abs(numeric), 1.0) < 1e-6

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            weighted_bce(0.5, 2, 1.0)


def zero_moments(theta):
    return np.zeros_like(theta), np.zeros_like(theta)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self, rng):
        theta = rng.normal(size=10)
        before = theta.copy()
        moments = zero_moments(theta)
        adam_step(theta, np.zeros(10), moments, 1, 1e-3)
        assert np.array_equal(theta, before)
        assert not any(m.any() for m in moments)

    def test_constant_gradient_limit_is_signed_step(self):
        theta = np.zeros(3)
        grad = np.array([0.5, -2.0, 7.0])
        moments = zero_moments(theta)
        for t in range(1, 501):
            prev = theta.copy()
            adam_step(theta, grad, moments, t, 1e-3)
            step = theta - prev
        assert np.allclose(step, -1e-3 * np.sign(grad), atol=1e-6)

    def test_in_place_contract(self, rng):
        theta, grad = rng.normal(size=5), rng.normal(size=5)
        moments = zero_moments(theta)
        before = [theta.copy(), grad.copy()]
        assert adam_step(theta, grad, moments, 1, 1e-3) is None
        assert not np.array_equal(theta, before[0])
        assert moments[0].all() and moments[1].all()
        assert np.array_equal(grad, before[1])  # the gradient is only read

    def test_gradient_scaling_keeps_sign_pattern(self, rng):
        grad = rng.normal(size=6)
        steps = {}
        for scale in (1.0, 37.5):
            theta = np.zeros(6)
            moments = zero_moments(theta)
            for t in range(1, 301):
                prev = theta.copy()
                adam_step(theta, grad * scale, moments, t, 1e-3)
                delta = theta - prev
            steps[scale] = np.sign(delta)
        assert np.array_equal(steps[1.0], steps[37.5])

    def test_shape_mismatch(self):
        theta = np.zeros(3)
        with pytest.raises(ValueError, match="shape"):
            adam_step(theta, np.zeros(4), zero_moments(theta), 1, 1e-3)

    @pytest.mark.parametrize("size", [1, 37, 3321])
    def test_matches_list_form_oracle_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        theta = rng.normal(size=size)
        moments = zero_moments(theta)
        state = oracle_adam_state([theta], step_size=2e-3)
        want = [theta.copy()]
        for t in range(1, 301):
            # gradients from 1e-8 to 1e3 in magnitude, either sign
            grad = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-8, 3, size=size)
            adam_step(theta, grad, moments, t, 2e-3)
            want, state = oracle_adam_step(want, [grad], state)
            assert theta.tobytes() == want[0].tobytes()
            assert moments[0].tobytes() == state.first_moment[0].tobytes()
            assert moments[1].tobytes() == state.second_moment[0].tobytes()


class TestGradCheck:
    def test_linear_model_quadratic_loss_is_nearly_exact(self, rng):
        x = rng.normal(size=6)
        target = 1.7

        def fn(params):
            (w,) = params
            pred = float(w @ x)
            loss = 0.5 * (pred - target) ** 2
            return loss, [(pred - target) * x]

        assert grad_check(rebinding(fn), [rng.normal(size=6)]) < 1e-8

    def test_detects_wrong_gradient(self, rng):
        x = rng.normal(size=4)

        def fn(params):
            (w,) = params
            loss = 0.5 * float(w @ x) ** 2
            return loss, [float(w @ x) * x * 2.0]  # doubled on purpose

        assert grad_check(rebinding(fn), [rng.normal(size=4)]) > 0.4

    def test_one_working_copy_bumped_and_restored(self, rng):
        x = rng.normal(size=(2, 3))
        params = [rng.normal(size=(2, 3)), rng.normal(size=2)]
        before = [p.copy() for p in params]
        bound = []

        def fn(working):
            w, b = working
            return float(((w * x).sum(axis=1) + b) @ b), [b[:, None] * x, (w * x).sum(axis=1) + 2 * b]

        def bind(working):
            bound.append(working)
            return rebinding(fn)(working)

        assert grad_check(bind, params) < 1e-6
        assert len(bound) == 1
        assert [p.tobytes() for p in params] == [p.tobytes() for p in before]
        assert [w.tobytes() for w in bound[0]] == [p.tobytes() for p in before]  # every entry restored
        assert not any(np.shares_memory(w, p) for w, p in zip(bound[0], params))

    @pytest.mark.parametrize("grad", [np.ones(6), np.ones((2, 2))], ids=["longer", "wrong-shape"])
    def test_gradient_not_shaped_like_parameters(self, grad):
        def fn(params):
            (w,) = params
            return 0.5 * float(w @ w), [grad]

        with pytest.raises(ValueError, match="gradient shapes"):
            grad_check(rebinding(fn), [np.ones(4)])

    def test_non_finite_loss(self):
        def fn(params):
            return float("nan"), [np.zeros(1)]

        with pytest.raises(FloatingPointError):
            grad_check(rebinding(fn), [np.zeros(1)])


def least_squares(rng, n=23, d=3):
    """A linear least-squares problem: rows, targets and initial arrays
    (a (1, d) weight matrix and a (1,) bias)."""
    x = rng.normal(size=(n, d))
    y = x @ rng.normal(size=d) + 0.5
    return x, y, [rng.normal(size=(1, d)), rng.normal(size=1)]


def least_squares_loss(x, y, w, b, batch):
    """Summed squared error of a batch and its gradients in (w, b) order."""
    r = x[batch] @ w[0] + b[0] - y[batch]
    return 0.5 * float(r @ r), [(r @ x[batch])[None, :], np.array([r.sum()])]


class TestTrainMinibatch:
    config = SimpleNamespace(epochs=3, batch_size=5, learning_rate=0.05)  # batches of 5 and a last of 3

    def test_matches_per_array_oracle_bit_for_bit(self, rng):
        x, y, init = least_squares(rng)
        got, trace = train_minibatch(
            init, lambda views: lambda batch: least_squares_loss(x, y, *views, batch),
            len(x), self.config, np.random.default_rng(4), "toy",
        )
        want, losses = train_minibatch_oracle(
            init, lambda arrays, batch: least_squares_loss(x, y, *arrays, batch),
            len(x), self.config, np.random.default_rng(4), "toy",
        )
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.shape for a in got] == [(1, 3), (1,)]
        assert [entry.mean_loss for entry in trace] == losses

    def test_binds_once_and_leaves_the_caller_arrays_alone(self, rng):
        x, y, init = least_squares(rng)
        before = [a.copy() for a in init]
        bound = []

        def bind(views):
            bound.append(views)
            return lambda batch: least_squares_loss(x, y, *views, batch)

        got, _ = train_minibatch(init, bind, len(x), self.config, np.random.default_rng(4), "toy")
        assert len(bound) == 1
        assert [a.tobytes() for a in init] == [a.tobytes() for a in before]
        for out in got:
            assert not any(np.shares_memory(out, a) for a in init + bound[0])
        # the views hold the trained parameters in place
        assert [a.tobytes() for a in bound[0]] == [a.tobytes() for a in got]

    def test_parameter_turning_non_finite_mid_epoch_stops_the_run(self, rng):
        x, y, init = least_squares(rng)
        calls = []

        def bind(views):
            def batch_loss_and_grads(batch):
                calls.append(batch)
                loss, grads = least_squares_loss(x, y, *views, batch)
                if len(calls) == 7:  # the second of the five batches of epoch 2
                    grads[1] = np.array([np.nan])
                return loss, grads

            return batch_loss_and_grads

        with pytest.raises(ValueError, match=r"^toy training diverged in epoch 2 of 3: non-finite"):
            train_minibatch(init, bind, len(x), self.config, np.random.default_rng(4), "toy")
        assert len(calls) == 7  # no batch ran on the non-finite parameters

    def test_gradient_shape_mismatch_rejected(self, rng):
        x, y, init = least_squares(rng)

        def bind(views):
            def batch_loss_and_grads(batch):
                loss, (dw, db) = least_squares_loss(x, y, *views, batch)
                return loss, [dw[0], db]  # (d,) where the weights are (1, d)

            return batch_loss_and_grads

        with pytest.raises(ValueError, match="gradient shapes"):
            train_minibatch(init, bind, len(x), self.config, np.random.default_rng(4), "toy")


class TestModelJson:
    def test_layer_round_trip(self, rng):
        layer = random_layer(rng, 4, 3, "tanh")
        clone = layer_from_json(layer_to_json(layer))
        assert np.array_equal(clone.weights, layer.weights)
        assert np.array_equal(clone.bias, layer.bias)
        assert clone.activation == layer.activation

    def test_model_file_round_trip(self, tmp_path, rng):
        layers = [random_layer(rng, 4, 3, "relu"), random_layer(rng, 1, 4, "sigmoid")]
        path = tmp_path / "model.json"
        save_model_json(path, "dan", {"input_dim": 3}, layers, {"traveler_embedding_dim": 4})
        payload = load_model_json(path)
        assert payload["model_kind"] == "dan"
        assert payload["traveler_embedding_dim"] == 4
        for original, loaded in zip(layers, payload["layers"]):
            assert np.array_equal(original.weights, loaded.weights)
            assert np.array_equal(original.bias, loaded.bias)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 9, "layers": []}')
        with pytest.raises(ValueError, match="format_version"):
            load_model_json(path)
