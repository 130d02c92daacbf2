"""Tests for repro.nn.network.Sequential."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.layers import BatchNorm, Dense, Dropout
from repro.nn.network import Sequential


def make_net(seed=0):
    return Sequential(
        [Dense(8, "tanh"), Dense(4, "relu"), Dense(2, "sigmoid")],
        input_dim=5,
        seed=seed,
    )


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ConfigurationError):
            Sequential([])

    def test_rejects_non_layer(self):
        with pytest.raises(ConfigurationError):
            Sequential([Dense(3), "not-a-layer"])

    def test_lazy_build(self):
        net = Sequential([Dense(3)])
        assert not net.built
        net.build(4, seed=0)
        assert net.built
        assert net.output_dim == 3

    def test_forward_before_build_raises(self):
        with pytest.raises(NotFittedError):
            Sequential([Dense(3)]).forward(np.zeros((1, 4)))

    def test_output_dim_chains(self):
        net = make_net()
        assert net.input_dim == 5
        assert net.output_dim == 2


class TestForward:
    def test_shapes(self):
        net = make_net()
        y = net.forward(np.zeros((7, 5)))
        assert y.shape == (7, 2)

    def test_1d_input_promoted(self):
        net = make_net()
        y = net.forward(np.zeros(5))
        assert y.shape == (1, 2)

    def test_callable_alias(self):
        net = make_net()
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_array_equal(net(x), net.forward(x))

    def test_predict_is_inference_mode(self):
        net = Sequential([Dense(8, "relu"), Dropout(0.9, seed=0), Dense(2)],
                         input_dim=4, seed=0)
        x = np.random.default_rng(1).normal(size=(5, 4))
        a = net.predict(x)
        b = net.predict(x)
        np.testing.assert_array_equal(a, b)  # Dropout off => deterministic.


class TestWeights:
    def test_num_parameters(self):
        net = make_net()
        # (5*8+8) + (8*4+4) + (4*2+2) = 48+36+10
        assert net.num_parameters() == 94

    def test_get_set_roundtrip(self):
        net = make_net(seed=1)
        weights = net.get_weights()
        net2 = make_net(seed=2)
        x = np.random.default_rng(3).normal(size=(4, 5))
        assert not np.allclose(net.predict(x), net2.predict(x))
        net2.set_weights(weights)
        np.testing.assert_allclose(net.predict(x), net2.predict(x))

    def test_set_weights_rejects_missing_key(self):
        net = make_net()
        weights = net.get_weights()
        weights.pop("0.W")
        with pytest.raises(ConfigurationError, match="missing"):
            net.set_weights(weights)

    def test_set_weights_rejects_bad_shape(self):
        net = make_net()
        weights = net.get_weights()
        weights["0.W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError, match="shape"):
            net.set_weights(weights)

    def test_clone_is_independent(self):
        net = make_net()
        twin = net.clone()
        x = np.random.default_rng(0).normal(size=(3, 5))
        np.testing.assert_allclose(net.predict(x), twin.predict(x))
        twin.layers[0].W += 1.0
        assert not np.allclose(net.predict(x), twin.predict(x))


def _train_steps(net, opt, k):
    rng = np.random.default_rng(5)
    for _ in range(k):
        x = rng.normal(size=(6, net.input_dim))
        net.forward(x, training=True)
        net.backward(np.ones((6, net.output_dim)) / 6)
        opt.step(net)


def _assert_packed(net):
    for _li, _name, arr in net.parameters():
        assert np.shares_memory(arr, net.params)


class TestPacking:
    def test_layers_are_views_of_the_packed_vectors(self):
        net = Sequential(
            [Dense(8, "relu"), BatchNorm(), Dense(2)], input_dim=3, seed=0
        )
        _assert_packed(net)
        assert net.params.size == net.num_parameters() == net.grads.size
        for layer in net.layers:
            for name, grad in layer.gradients().items():
                assert np.shares_memory(grad, net.grads)
        flat = np.concatenate([arr.ravel() for _, _, arr in net.parameters()])
        np.testing.assert_array_equal(net.params, flat)

    @pytest.mark.parametrize("how", ["clone", "deepcopy", "pickle"])
    def test_copy_trains_like_the_original(self, how):
        import copy
        import pickle

        from repro.nn.optimizers import Adam

        net = Sequential(
            [Dense(8, "relu"), BatchNorm(), Dense(2, "sigmoid")],
            input_dim=3,
            seed=0,
        )
        opt = Adam(0.05)
        _train_steps(net, opt, 3)
        if how == "clone":
            twin = net.clone()
        elif how == "deepcopy":
            twin = copy.deepcopy(net)
        else:
            twin = pickle.loads(pickle.dumps(net))
        _assert_packed(twin)
        twin_opt = copy.deepcopy(opt)
        before = net.get_weights()
        _train_steps(net, opt, 4)
        _train_steps(twin, twin_opt, 4)
        got, want = twin.get_weights(), net.get_weights()
        assert any(not np.array_equal(want[k], before[k]) for k in want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])


class TestFit:
    def test_loss_decreases_on_regression(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 3))
        w_true = np.array([[1.0], [-2.0], [0.5]])
        y = x @ w_true
        net = Sequential([Dense(16, "tanh"), Dense(1)], input_dim=3, seed=0)
        history = net.fit(x, y, loss="mse", epochs=40, seed=1, learning_rate=0.01)
        assert history[-1] < history[0] * 0.2

    def test_binary_classification_learns(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        y = (x[:, 0] + x[:, 1] > 0).astype(float)
        net = Sequential([Dense(8, "tanh"), Dense(1, "sigmoid")], input_dim=2, seed=0)
        net.fit(x, y, loss="bce", epochs=60, seed=1, learning_rate=0.05)
        acc = ((net.predict(x).ravel() > 0.5) == (y > 0.5)).mean()
        assert acc > 0.9

    def test_history_length(self):
        net = make_net()
        x = np.random.default_rng(0).normal(size=(16, 5))
        y = np.zeros((16, 2))
        history = net.fit(x, y, epochs=7, seed=0)
        assert len(history) == 7

    def test_batchnorm_trains(self):
        net = Sequential(
            [Dense(8, "relu"), BatchNorm(), Dense(1, "sigmoid")],
            input_dim=2,
            seed=0,
        )
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 2))
        y = (x[:, 0] > 0).astype(float)
        history = net.fit(x, y, loss="bce", epochs=30, seed=2, learning_rate=0.02)
        assert history[-1] < history[0]
