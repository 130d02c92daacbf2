"""First-order optimizers operating on a network's packed vectors.

A built :class:`~repro.nn.network.Sequential` keeps all its parameters in
one contiguous vector (``net.params``) and their gradients in another
(``net.grads``).  :meth:`Optimizer.step` updates ``net.params`` in place
with one elementwise pass, so the layers' parameter arrays — views into
that vector — keep their identity (which the serialization code relies
on).  Optimizer state is one flat array per slot (momentum buffer, Adam
moments) laid out like ``net.params``, plus the step counter
:attr:`Optimizer.iterations`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class Optimizer:
    """Base class: subclasses implement :meth:`update` on packed vectors."""

    #: Number of flat state arrays the update keeps across steps.
    slots = 0

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self._state: list = []
        self._scratch = None
        self.iterations = 0

    def reset(self):
        """Drop accumulated state (momentum buffers, moment estimates)."""
        self._state = []
        self._scratch = None
        self.iterations = 0

    def step(self, net) -> None:
        """Apply one update to *net*'s packed parameter vector.

        *net* is a built :class:`~repro.nn.network.Sequential` (anything
        with flat ``params`` and ``grads`` vectors).  The state slots and
        two scratch vectors are allocated on the first step; every later
        step writes through them, replicating the allocating update
        formulas operation for operation, so trajectories are bitwise
        those of a per-tensor update.
        """
        params, grads = net.params, net.grads
        if not self._state:
            self._state = [np.zeros_like(params) for _ in range(self.slots)]
        elif self._state[0].shape != params.shape:
            raise ConfigurationError(
                f"optimizer state holds {self._state[0].size} parameters, "
                f"network has {params.size}"
            )
        if self._scratch is None or self._scratch[0].shape != params.shape:
            self._scratch = (np.empty_like(params), np.empty_like(params))
        self.iterations += 1
        self.update(params, grads)

    def update(self, param, grad):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(lr={self.learning_rate})"


class SGD(Optimizer):
    """Plain stochastic gradient descent, optionally with momentum.

    Algorithm 2 in the paper is stated in terms of raw stochastic
    gradients, so ``SGD(momentum=0)`` is the most literal reproduction;
    Adam (below) is the practical default.
    """

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0, nesterov: bool = False):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0,1), got {momentum}")
        if nesterov and momentum == 0.0:
            raise ConfigurationError("nesterov requires momentum > 0")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)
        self.slots = 1 if self.momentum else 0

    def update(self, param, grad):
        s1, s2 = self._scratch
        np.multiply(grad, self.learning_rate, out=s1)  # lr * grad
        if self.momentum == 0.0:
            param -= s1
            return
        (buf,) = self._state
        buf *= self.momentum
        buf -= s1
        if self.nesterov:
            np.multiply(buf, self.momentum, out=s2)
            s2 -= s1  # momentum * buf - lr * grad
            param += s2
        else:
            param += buf


class RMSProp(Optimizer):
    """RMSProp with an exponentially decayed squared-gradient average."""

    slots = 1

    def __init__(self, learning_rate: float = 0.001, rho: float = 0.9, eps: float = 1e-8):
        super().__init__(learning_rate)
        if not 0.0 < rho < 1.0:
            raise ConfigurationError(f"rho must be in (0,1), got {rho}")
        self.rho = float(rho)
        self.eps = float(eps)

    def update(self, param, grad):
        s1, s2 = self._scratch
        (acc,) = self._state
        acc *= self.rho
        np.multiply(grad, 1.0 - self.rho, out=s1)
        s1 *= grad  # (1 - rho) * grad * grad
        acc += s1
        np.multiply(grad, self.learning_rate, out=s1)  # lr * grad
        np.sqrt(acc, out=s2)
        s2 += self.eps
        s1 /= s2
        param -= s1


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias-corrected first/second moments.

    The de-facto GAN optimizer; ``beta1=0.5`` is the common GAN setting
    (following DCGAN) and the library default for Algorithm 2.  The
    bias-correction step count is :attr:`iterations`.
    """

    slots = 2

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.5,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ConfigurationError(f"beta1 must be in [0,1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ConfigurationError(f"beta2 must be in [0,1), got {beta2}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def update(self, param, grad):
        s1, s2 = self._scratch
        m, v = self._state
        t = self.iterations
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s1)
        m += s1
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=s1)
        s1 *= grad  # (1 - beta2) * grad * grad
        v += s1
        np.divide(m, 1.0 - self.beta1**t, out=s1)  # m_hat
        s1 *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**t, out=s2)  # v_hat
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2  # lr * m_hat / (sqrt(v_hat) + eps)
        param -= s1


_REGISTRY = {"sgd": SGD, "rmsprop": RMSProp, "adam": Adam}


def get_optimizer(spec, **kwargs) -> Optimizer:
    """Resolve *spec* (name, class, or instance) to an optimizer instance."""
    if isinstance(spec, Optimizer):
        return spec
    if isinstance(spec, type) and issubclass(spec, Optimizer):
        return spec(**kwargs)
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec.lower()](**kwargs)
        except KeyError:
            raise ConfigurationError(
                f"unknown optimizer {spec!r}; choose from {sorted(_REGISTRY)}"
            ) from None
    raise ConfigurationError(f"cannot interpret optimizer spec: {spec!r}")
