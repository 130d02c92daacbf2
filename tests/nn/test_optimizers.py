"""Tests for repro.nn.optimizers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam, RMSProp, get_optimizer


class _Quadratic:
    """A fake packed network: one parameter vector ``w`` (``params``),
    its gradient vector ``grads`` and loss ||w - target||^2."""

    def __init__(self, w0, target):
        self.params = np.array(w0, dtype=float)
        self.grads = np.zeros_like(self.params)
        self.target = np.array(target, dtype=float)

    @property
    def w(self):
        return self.params

    def compute_grad(self):
        self.grads[...] = 2.0 * (self.w - self.target)


def optimize(opt, steps=200, w0=(5.0, -3.0), target=(1.0, 2.0)):
    layer = _Quadratic(w0, target)
    for _ in range(steps):
        layer.compute_grad()
        opt.step(layer)
    return layer


class TestConvergence:
    @pytest.mark.parametrize(
        "opt",
        [SGD(0.05), SGD(0.05, momentum=0.9), SGD(0.05, momentum=0.9, nesterov=True),
         RMSProp(0.05), Adam(0.1)],
        ids=["sgd", "momentum", "nesterov", "rmsprop", "adam"],
    )
    def test_converges_on_quadratic(self, opt):
        layer = optimize(opt)
        np.testing.assert_allclose(layer.w, layer.target, atol=1e-2)

    def test_sgd_single_step_exact(self):
        layer = _Quadratic([2.0], [0.0])
        layer.compute_grad()  # grad = 4
        SGD(0.25).step(layer)
        assert layer.w[0] == pytest.approx(1.0)


class TestState:
    def test_adam_bias_correction_first_step(self):
        # First Adam step should be ~lr in the gradient direction.
        layer = _Quadratic([10.0], [0.0])
        layer.compute_grad()
        Adam(0.5).step(layer)
        assert layer.w[0] == pytest.approx(9.5, abs=1e-6)

    def test_reset_clears_momentum(self):
        opt = SGD(0.1, momentum=0.9)
        layer = _Quadratic([1.0], [0.0])
        layer.compute_grad()
        opt.step(layer)
        assert opt._state
        opt.reset()
        assert not opt._state
        assert opt.iterations == 0

    def test_iteration_counter(self):
        opt = Adam(0.01)
        layer = _Quadratic([1.0], [0.0])
        for _ in range(5):
            layer.compute_grad()
            opt.step(layer)
        assert opt.iterations == 5

    def test_step_skips_layers_without_grads(self):
        net = Sequential([Dense(3)], input_dim=2, seed=0)
        w_before = net.layers[0].W.copy()
        Adam(0.1).step(net)  # No backward ran: gradients are all zero.
        np.testing.assert_array_equal(net.layers[0].W, w_before)

    def test_updates_in_place(self):
        layer = _Quadratic([1.0], [0.0])
        ref = layer.w
        layer.compute_grad()
        Adam(0.1).step(layer)
        assert ref is layer.w  # Identity preserved for serialization.

    def test_network_layers_see_the_update(self):
        # The layers' arrays are views of the packed vector the optimizer
        # steps, so one update moves what forward() reads.
        net = Sequential([Dense(3, "relu"), Dense(1)], input_dim=2, seed=0)
        w_ref = net.layers[0].W
        w_before = w_ref.copy()
        net.forward(np.ones((4, 2)), training=True)
        net.backward(np.ones((4, 1)))
        SGD(0.1).step(net)
        assert net.layers[0].W is w_ref
        assert np.shares_memory(w_ref, net.params)
        assert not np.array_equal(w_ref, w_before)
        np.testing.assert_array_equal(
            w_ref, w_before - 0.1 * net.layers[0].dW
        )

    def test_state_does_not_fit_another_network(self):
        opt = Adam(0.1)
        opt.step(Sequential([Dense(3)], input_dim=2, seed=0))
        with pytest.raises(ConfigurationError):
            opt.step(Sequential([Dense(4)], input_dim=2, seed=0))


class TestValidation:
    def test_rejects_nonpositive_lr(self):
        for cls in (SGD, RMSProp, Adam):
            with pytest.raises(ConfigurationError):
                cls(learning_rate=0.0)

    def test_sgd_rejects_bad_momentum(self):
        with pytest.raises(ConfigurationError):
            SGD(0.1, momentum=1.0)

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ConfigurationError):
            SGD(0.1, momentum=0.0, nesterov=True)

    def test_adam_rejects_bad_betas(self):
        with pytest.raises(ConfigurationError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(0.1, beta2=-0.1)


class TestRegistry:
    def test_lookup_with_kwargs(self):
        opt = get_optimizer("adam", learning_rate=0.123)
        assert isinstance(opt, Adam)
        assert opt.learning_rate == 0.123

    def test_instance_passthrough(self):
        opt = SGD(0.01)
        assert get_optimizer(opt) is opt

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_optimizer("lion")
