"""Sequential network container with explicit training utilities.

:class:`Sequential` chains layers, runs forward/backward, and exposes the
hooks the GAN trainer needs: gradients w.r.t. the *input* (so generator
gradients can flow through a frozen discriminator) and in-place parameter
access for optimizers and serialization.

A built network packs every layer parameter into one contiguous float64
vector, :attr:`Sequential.params`, and every parameter gradient into a
second one, :attr:`Sequential.grads`; the layers' ``W``/``b``/``gamma``/
``beta`` arrays and their gradients are views into them.  An optimizer
step is therefore one elementwise pass over each vector.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.nn.layers import Layer
from repro.nn.losses import get_loss
from repro.nn.optimizers import get_optimizer, Optimizer
from repro.utils.rng import as_rng


class Sequential:
    """An ordered stack of layers forming a feed-forward network.

    Parameters
    ----------
    layers:
        Iterable of :class:`~repro.nn.layers.Layer` instances.
    input_dim:
        Width of the input; triggers building (parameter allocation)
        immediately when given together with *seed*.
    seed:
        RNG seed for weight initialization.
    """

    def __init__(self, layers, *, input_dim: int | None = None, seed=None):
        self.layers = list(layers)
        if not self.layers:
            raise ConfigurationError("Sequential requires at least one layer")
        for layer in self.layers:
            if not isinstance(layer, Layer):
                raise ConfigurationError(f"not a Layer: {layer!r}")
        self.input_dim = None
        self.output_dim = None
        self.params = None
        self.grads = None
        if input_dim is not None:
            self.build(input_dim, seed)

    # -- lifecycle ----------------------------------------------------------
    def build(self, input_dim: int, seed=None) -> "Sequential":
        """Allocate all layer parameters for a given input width."""
        rng = as_rng(seed)
        dim = int(input_dim)
        self.input_dim = dim
        for layer in self.layers:
            dim = layer.build(dim, rng)
        self.output_dim = dim
        self._pack()
        return self

    def _pack(self) -> None:
        """Copy layer parameters and gradients into two packed vectors and
        rebind the layers to views of them (in :meth:`parameters` order)."""
        size = self.num_parameters()
        self.params = np.empty(size, dtype=np.float64)
        self.grads = np.empty(size, dtype=np.float64)
        offset = 0
        for layer in self.layers:
            grads = layer.gradients()
            param_views, grad_views = {}, {}
            for name, arr in layer.parameters().items():
                stop = offset + arr.size
                param_views[name] = self.params[offset:stop].reshape(arr.shape)
                grad_views[name] = self.grads[offset:stop].reshape(arr.shape)
                param_views[name][...] = arr
                grad_views[name][...] = grads[name]
                offset = stop
            layer.bind(param_views, grad_views)

    # copy.deepcopy and pickle copy each view as an independent array, so
    # a copied network re-packs itself: training the copy must update the
    # arrays its forward pass reads.
    def __getstate__(self):
        state = self.__dict__.copy()
        state["params"] = state["grads"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.built:
            self._pack()

    @property
    def built(self) -> bool:
        return self.input_dim is not None

    def _require_built(self):
        if not self.built:
            raise NotFittedError("network has not been built; call build(input_dim)")

    # -- computation --------------------------------------------------------
    def forward(self, x, training: bool = False) -> np.ndarray:
        """Run the full forward pass; caches activations for backward."""
        self._require_built()
        out = np.asarray(x, dtype=np.float64)
        if out.ndim == 1:
            out = out[None, :]
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    # Alias so networks can be called like functions.
    __call__ = forward

    def predict(self, x) -> np.ndarray:
        """Inference-mode forward pass (dropout off, batchnorm running stats)."""
        return self.forward(x, training=False)

    def backward(self, grad_out, *, param_grads=True, input_grad=True):
        """Backpropagate *grad_out* (d loss / d output) through all layers.

        Parameter gradients are written into :attr:`grads` unless
        *param_grads* is false (a frozen network whose optimizer is not
        stepped).  Returns the gradient w.r.t. the network input — the
        GAN trainer feeds this into the generator when the discriminator
        is the head of the composed model — or ``None`` when
        *input_grad* is false and nothing reads it.  Every gradient that
        is computed has the same value either way.
        """
        grad = np.asarray(grad_out, dtype=np.float64)
        first = self.layers[0]
        for layer in reversed(self.layers):
            grad = layer.backward(
                grad, param_grads, input_grad or layer is not first
            )
        return grad

    # -- parameters ---------------------------------------------------------
    def parameters(self) -> list:
        """Flat list of (layer_index, name, array) for all parameters."""
        out = []
        for li, layer in enumerate(self.layers):
            for name, arr in layer.parameters().items():
                out.append((li, name, arr))
        return out

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(arr.size for _, _, arr in self.parameters()))

    def get_weights(self) -> dict:
        """Copy of all parameters keyed ``"{layer}.{name}"``."""
        return {f"{li}.{name}": arr.copy() for li, name, arr in self.parameters()}

    def set_weights(self, weights: dict) -> None:
        """Load parameters previously produced by :meth:`get_weights`."""
        self._require_built()
        own = {f"{li}.{name}": arr for li, name, arr in self.parameters()}
        missing = set(own) - set(weights)
        if missing:
            raise ConfigurationError(f"weights missing keys: {sorted(missing)}")
        for key, arr in own.items():
            new = np.asarray(weights[key], dtype=np.float64)
            if new.shape != arr.shape:
                raise ConfigurationError(
                    f"weight {key!r} has shape {new.shape}, expected {arr.shape}"
                )
            arr[...] = new

    def clone(self) -> "Sequential":
        """Structural copy with independent parameters (same values)."""
        import copy

        twin = copy.deepcopy(self)
        return twin

    # -- simple supervised training (used by tests & baselines) --------------
    def fit(
        self,
        x,
        y,
        *,
        loss="mse",
        optimizer: "Optimizer | str" = "adam",
        epochs: int = 10,
        batch_size: int = 32,
        seed=None,
        learning_rate: float | None = None,
        verbose: bool = False,
    ) -> list:
        """Minimal supervised training loop.

        Exists so the framework can be exercised and benchmarked outside
        the GAN setting (and to train baseline regressors/classifiers for
        the security analysis comparisons).  Returns per-epoch mean loss.
        """
        self._require_built()
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        loss_fn = get_loss(loss)
        opt_kwargs = {"learning_rate": learning_rate} if learning_rate else {}
        opt = get_optimizer(optimizer, **opt_kwargs)
        rng = as_rng(seed)
        history = []
        n = x.shape[0]
        for epoch in range(epochs):
            order = rng.permutation(n)
            losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                pred = self.forward(x[idx], training=True)
                losses.append(loss_fn.value(pred, y[idx]))
                self.backward(loss_fn.gradient(pred, y[idx]), input_grad=False)
                opt.step(self)
            history.append(float(np.mean(losses)))
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.6f}")
        return history

    def __repr__(self):
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}], input_dim={self.input_dim})"
