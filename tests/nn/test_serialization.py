"""Tests for repro.nn.serialization."""

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.nn.serialization import (
    load_optimizer_state,
    load_weights,
    save_optimizer_state,
    save_weights,
)


def make_net(seed=0, hidden=8):
    return Sequential([Dense(hidden, "relu"), Dense(2)], input_dim=4, seed=seed)


class TestRoundTrip:
    def test_save_load_preserves_predictions(self, tmp_path):
        net = make_net(seed=1)
        path = tmp_path / "weights.npz"
        save_weights(net, path)
        other = make_net(seed=2)
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert not np.allclose(net.predict(x), other.predict(x))
        load_weights(other, path)
        np.testing.assert_allclose(net.predict(x), other.predict(x))

    def test_creates_parent_dirs(self, tmp_path):
        net = make_net()
        path = tmp_path / "deep" / "dir" / "w.npz"
        save_weights(net, path)
        assert path.exists()


class TestFailures:
    def test_unbuilt_network_cannot_save(self, tmp_path):
        net = Sequential([Dense(3)])
        with pytest.raises(SerializationError):
            save_weights(net, tmp_path / "w.npz")

    def test_missing_file(self, tmp_path):
        net = make_net()
        with pytest.raises(SerializationError, match="no such"):
            load_weights(net, tmp_path / "absent.npz")

    def test_architecture_mismatch(self, tmp_path):
        net = make_net(hidden=8)
        path = tmp_path / "w.npz"
        save_weights(net, path)
        wrong = make_net(hidden=16)
        with pytest.raises(SerializationError, match="mismatch"):
            load_weights(wrong, path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError):
            load_weights(make_net(), path)


class TestOptimizerState:
    @staticmethod
    def _stepped(opt, net):
        net.forward(np.ones((3, 4)), training=True)
        net.backward(np.ones((3, 2)))
        opt.step(net)
        return opt

    def test_round_trip_restores_packed_state(self, tmp_path):
        net = make_net()
        opt = self._stepped(Adam(0.01), net)
        path = save_optimizer_state(opt, net, tmp_path / "opt.npz")
        back = load_optimizer_state(Adam(0.01), net, path)
        assert back.iterations == opt.iterations
        assert len(back._state) == len(opt._state) == 2
        for got, want in zip(back._state, opt._state):
            np.testing.assert_array_equal(got, want)

    def test_state_for_another_network_is_rejected(self, tmp_path):
        net = make_net(hidden=8)
        path = save_optimizer_state(
            self._stepped(Adam(0.01), net), net, tmp_path / "opt.npz"
        )
        with pytest.raises(SerializationError, match="shape"):
            load_optimizer_state(Adam(0.01), make_net(hidden=16), path)

    def test_slot_count_mismatch_is_rejected(self, tmp_path):
        net = make_net()
        path = save_optimizer_state(
            self._stepped(SGD(0.1, momentum=0.9), net), net, tmp_path / "opt.npz"
        )
        with pytest.raises(SerializationError, match="state arrays"):
            load_optimizer_state(SGD(0.1), net, path)
