"""Tests for repro.nn.schedules."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam
from repro.nn.schedules import (
    ConstantSchedule,
    CosineDecay,
    ExponentialDecay,
    ScheduledOptimizer,
    StepDecay,
    WarmupSchedule,
    attach_schedule,
)


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule()
        assert s(0) == 1.0
        assert s(10_000) == 1.0

    def test_step_decay(self):
        s = StepDecay(every=10, factor=0.5)
        assert s(0) == 1.0
        assert s(9) == 1.0
        assert s(10) == 0.5
        assert s(25) == 0.25

    def test_exponential(self):
        s = ExponentialDecay(0.9)
        assert s(0) == 1.0
        assert s(2) == pytest.approx(0.81)

    def test_cosine_endpoints(self):
        s = CosineDecay(total=100, floor=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(200) == pytest.approx(0.1)  # Clamped past total.
        assert s(50) == pytest.approx(0.55)

    def test_warmup(self):
        s = WarmupSchedule(warmup=4, base=ConstantSchedule())
        assert s(0) == pytest.approx(0.25)
        assert s(3) == pytest.approx(1.0)
        assert s(10) == 1.0

    def test_warmup_composes(self):
        s = WarmupSchedule(warmup=2, base=StepDecay(every=5, factor=0.5))
        assert s(2) == 1.0       # First post-warmup step.
        assert s(7) == 0.5       # 5 steps after warmup.

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: StepDecay(0),
            lambda: StepDecay(5, factor=0.0),
            lambda: ExponentialDecay(0.0),
            lambda: CosineDecay(0),
            lambda: CosineDecay(10, floor=0.0),
            lambda: WarmupSchedule(0),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            bad()


class TestScheduledOptimizer:
    def test_rate_follows_schedule(self):
        opt = SGD(0.1)
        sched = attach_schedule(opt, StepDecay(every=1, factor=0.5))
        net = Sequential([Dense(2)], input_dim=2, seed=0)
        # Manually drive: first step multiplier 0.5^0=1, second 0.5.
        assert sched.current_rate == pytest.approx(0.1)
        net.grads.fill(1.0)  # Fake backward state.
        before = net.params.copy()
        sched.step(net)
        np.testing.assert_allclose(net.params, before - 0.1)
        assert sched.current_rate == pytest.approx(0.05)

    def test_base_rate_restored_after_step(self):
        opt = Adam(0.01)
        sched = attach_schedule(opt, ExponentialDecay(0.5))
        net = Sequential([Dense(2)], input_dim=2, seed=0)
        net.grads.fill(1.0)
        sched.step(net)
        assert opt.learning_rate == 0.01

    def test_training_with_schedule_converges(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        y = x @ np.array([[1.0], [2.0], [-1.0]])
        net = Sequential([Dense(1)], input_dim=3, seed=0)
        from repro.nn.losses import MeanSquaredError

        loss = MeanSquaredError()
        sched = attach_schedule(SGD(0.1), CosineDecay(total=200))
        for _ in range(200):
            pred = net.forward(x, training=True)
            net.backward(loss.gradient(pred, y))
            sched.step(net)
        assert loss.value(net.forward(x), y) < 0.01

    def test_usable_as_cgan_optimizer(self, toy_dataset):
        from repro.gan import ConditionalGAN

        cgan = ConditionalGAN(
            4,
            2,
            noise_dim=4,
            seed=0,
            g_optimizer=attach_schedule(Adam(2e-3), CosineDecay(total=100)),
            d_optimizer=attach_schedule(Adam(2e-3), CosineDecay(total=100)),
        )
        hist = cgan.train(toy_dataset, iterations=60)
        assert np.all(np.isfinite(hist.d_loss))

    def test_rejects_non_optimizer(self):
        with pytest.raises(ConfigurationError):
            attach_schedule("adam", ConstantSchedule())
        with pytest.raises(ConfigurationError):
            attach_schedule(SGD(0.1), "cosine")
