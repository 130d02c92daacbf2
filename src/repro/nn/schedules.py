"""Learning-rate schedules for the optimizers.

A schedule maps the optimizer's iteration counter to a learning-rate
multiplier.  :func:`attach_schedule` wraps any
:class:`~repro.nn.optimizers.Optimizer` so its effective learning rate
follows the schedule — useful for the long Algorithm 2 runs, where
decaying the rate late in training stabilizes the minimax equilibrium.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.optimizers import Optimizer


class Schedule:
    """Base class: ``multiplier(iteration) -> float in (0, 1]``-ish."""

    def multiplier(self, iteration: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, iteration: int) -> float:
        value = float(self.multiplier(int(iteration)))
        if value <= 0:
            raise ConfigurationError(
                f"schedule produced non-positive multiplier {value} "
                f"at iteration {iteration}"
            )
        return value


class ConstantSchedule(Schedule):
    """No decay (the default behaviour of a bare optimizer)."""

    def multiplier(self, iteration):
        return 1.0


class StepDecay(Schedule):
    """Multiply the rate by *factor* every *every* iterations."""

    def __init__(self, every: int, factor: float = 0.5):
        if every <= 0:
            raise ConfigurationError(f"every must be > 0, got {every}")
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(f"factor must be in (0,1], got {factor}")
        self.every = int(every)
        self.factor = float(factor)

    def multiplier(self, iteration):
        return self.factor ** (iteration // self.every)

    def __repr__(self):
        return f"StepDecay(every={self.every}, factor={self.factor})"


class ExponentialDecay(Schedule):
    """``multiplier = decay ** iteration`` (smooth geometric decay)."""

    def __init__(self, decay: float = 0.999):
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0,1], got {decay}")
        self.decay = float(decay)

    def multiplier(self, iteration):
        return self.decay**iteration

    def __repr__(self):
        return f"ExponentialDecay(decay={self.decay})"


class CosineDecay(Schedule):
    """Cosine annealing from 1 to *floor* over *total* iterations."""

    def __init__(self, total: int, floor: float = 0.05):
        if total <= 0:
            raise ConfigurationError(f"total must be > 0, got {total}")
        if not 0.0 < floor <= 1.0:
            raise ConfigurationError(f"floor must be in (0,1], got {floor}")
        self.total = int(total)
        self.floor = float(floor)

    def multiplier(self, iteration):
        progress = min(iteration / self.total, 1.0)
        cos = 0.5 * (1.0 + np.cos(np.pi * progress))
        return self.floor + (1.0 - self.floor) * cos

    def __repr__(self):
        return f"CosineDecay(total={self.total}, floor={self.floor})"


class WarmupSchedule(Schedule):
    """Linear warm-up over *warmup* iterations, then delegate to *base*."""

    def __init__(self, warmup: int, base: Schedule | None = None):
        if warmup <= 0:
            raise ConfigurationError(f"warmup must be > 0, got {warmup}")
        self.warmup = int(warmup)
        self.base = base or ConstantSchedule()

    def multiplier(self, iteration):
        if iteration < self.warmup:
            return (iteration + 1) / self.warmup
        return self.base.multiplier(iteration - self.warmup)

    def __repr__(self):
        return f"WarmupSchedule(warmup={self.warmup}, base={self.base!r})"


class ScheduledOptimizer:
    """Wrap an optimizer so each step uses a scheduled learning rate.

    The wrapper temporarily rescales ``learning_rate`` around every
    :meth:`step`, so the wrapped optimizer's state handling (momentum,
    Adam moments) is untouched.
    """

    def __init__(self, optimizer: Optimizer, schedule: Schedule):
        if not isinstance(optimizer, Optimizer):
            raise ConfigurationError(f"not an Optimizer: {optimizer!r}")
        if not isinstance(schedule, Schedule):
            raise ConfigurationError(f"not a Schedule: {schedule!r}")
        self.optimizer = optimizer
        self.schedule = schedule
        self.base_rate = optimizer.learning_rate

    @property
    def iterations(self) -> int:
        return self.optimizer.iterations

    @property
    def current_rate(self) -> float:
        return self.base_rate * self.schedule(self.optimizer.iterations)

    def step(self, net) -> None:
        self.optimizer.learning_rate = self.current_rate
        try:
            self.optimizer.step(net)
        finally:
            self.optimizer.learning_rate = self.base_rate

    def reset(self):
        self.optimizer.reset()

    def __repr__(self):
        return (
            f"ScheduledOptimizer({self.optimizer!r}, {self.schedule!r})"
        )


def attach_schedule(optimizer: Optimizer, schedule: Schedule) -> ScheduledOptimizer:
    """Convenience constructor for :class:`ScheduledOptimizer`."""
    return ScheduledOptimizer(optimizer, schedule)
