"""Loss functions with gradients, including the GAN objectives of
Algorithm 2.

Every loss exposes ``value(pred, target)`` (scalar mean over the batch)
and ``gradient(pred, target)`` (d loss / d pred, already divided by the
batch size so optimizer steps are batch-size invariant).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError

_EPS = 1e-12


def _align(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} != target shape {target.shape}")
    return pred, target


class Loss:
    """Base class for losses."""

    name = "base"

    def value(self, pred, target) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def gradient(self, pred, target) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"


class MeanSquaredError(Loss):
    name = "mse"

    def value(self, pred, target):
        pred, target = _align(pred, target)
        return float(np.mean((pred - target) ** 2))

    def gradient(self, pred, target):
        pred, target = _align(pred, target)
        return 2.0 * (pred - target) / pred.size


class MeanAbsoluteError(Loss):
    name = "mae"

    def value(self, pred, target):
        pred, target = _align(pred, target)
        return float(np.mean(np.abs(pred - target)))

    def gradient(self, pred, target):
        pred, target = _align(pred, target)
        return np.sign(pred - target) / pred.size


class BinaryCrossEntropy(Loss):
    """BCE on probabilities in (0, 1) — the discriminator loss of Eq. (2).

    ``value`` clips predictions away from {0,1} to keep logs finite; the
    gradient uses the same clipped values so value/gradient stay consistent
    for gradient checking.
    """

    name = "bce"

    def __init__(self, eps: float = _EPS):
        if eps <= 0:
            raise ConfigurationError(f"eps must be > 0, got {eps}")
        self.eps = float(eps)

    def value(self, pred, target):
        pred, target = _align(pred, target)
        p = np.clip(pred, self.eps, 1.0 - self.eps)
        return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log(1.0 - p)))

    def gradient(self, pred, target):
        pred, target = _align(pred, target)
        p = np.clip(pred, self.eps, 1.0 - self.eps)
        return (p - target) / (p * (1.0 - p)) / pred.size


class GeneratorLossMinimax(Loss):
    """Original minimax generator loss: ``mean(log(1 - D(G(z))))``.

    This is exactly Line 10 of the paper's Algorithm 2 — the generator
    *descends* this quantity.  ``target`` is ignored (kept for interface
    symmetry); *pred* is ``D(G(z|c))``.
    """

    name = "gen_minimax"

    def __init__(self, eps: float = _EPS):
        self.eps = float(eps)

    def value(self, pred, target=None):
        p = np.clip(np.asarray(pred, dtype=np.float64), self.eps, 1.0 - self.eps)
        return float(np.mean(np.log(1.0 - p)))

    def gradient(self, pred, target=None):
        pred = np.asarray(pred, dtype=np.float64)
        p = np.clip(pred, self.eps, 1.0 - self.eps)
        return -1.0 / (1.0 - p) / pred.size


class GeneratorLossNonSaturating(Loss):
    """Non-saturating heuristic: minimize ``-mean(log D(G(z)))``.

    Goodfellow et al. recommend this when D overwhelms G early in
    training; it has the same fixed point as the minimax loss but much
    stronger gradients when ``D(G(z)) ~ 0``.  Exposed as an option on the
    Algorithm 2 trainer (``generator_loss="non_saturating"``).
    """

    name = "gen_non_saturating"

    def __init__(self, eps: float = _EPS):
        self.eps = float(eps)

    def value(self, pred, target=None):
        p = np.clip(np.asarray(pred, dtype=np.float64), self.eps, 1.0 - self.eps)
        return float(-np.mean(np.log(p)))

    def gradient(self, pred, target=None):
        pred = np.asarray(pred, dtype=np.float64)
        p = np.clip(pred, self.eps, 1.0 - self.eps)
        return -1.0 / p / pred.size


def discriminator_loss(d_real: np.ndarray, d_fake: np.ndarray, eps: float = _EPS) -> float:
    """Value of the discriminator objective from Eq. (2) / Algorithm 2 Line 8.

    The discriminator *ascends* ``mean(log D(real)) + mean(log(1 - D(fake)))``;
    we report the negated quantity as a loss (lower = better discriminator)
    so that Figure 7's "D loss rises as G improves" reads naturally.
    """
    d_real = np.clip(np.asarray(d_real, dtype=np.float64), eps, 1.0 - eps)
    d_fake = np.clip(np.asarray(d_fake, dtype=np.float64), eps, 1.0 - eps)
    return float(-(np.mean(np.log(d_real)) + np.mean(np.log(1.0 - d_fake))))


def generator_losses(d_fake: np.ndarray, eps: float = _EPS) -> tuple:
    """``(non-saturating loss, minimax objective)`` of ``D(G(z|c))``.

    The two values :class:`GeneratorLossNonSaturating` and
    :class:`GeneratorLossMinimax` report, from one clip of *d_fake*.
    """
    p = np.clip(np.asarray(d_fake, dtype=np.float64), eps, 1.0 - eps)
    return float(-np.mean(np.log(p))), float(np.mean(np.log(1.0 - p)))


_REGISTRY = {
    cls.name: cls
    for cls in (
        MeanSquaredError,
        MeanAbsoluteError,
        BinaryCrossEntropy,
        GeneratorLossMinimax,
        GeneratorLossNonSaturating,
    )
}


def get_loss(spec) -> Loss:
    """Resolve *spec* (name, class, or instance) to a loss instance."""
    if isinstance(spec, Loss):
        return spec
    if isinstance(spec, type) and issubclass(spec, Loss):
        return spec()
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise ConfigurationError(
                f"unknown loss {spec!r}; choose from {sorted(_REGISTRY)}"
            ) from None
    raise ConfigurationError(f"cannot interpret loss spec: {spec!r}")
