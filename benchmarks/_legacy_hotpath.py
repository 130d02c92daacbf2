"""Frozen pre-optimization (seed) hot-path implementations.

``bench_hotpath.py`` needs an honest "before" to measure against after
the optimized code replaces the originals in ``src/``.  This module
vendors the seed implementations verbatim (modulo imports):

* the per-scale, per-segment Morlet CWT loop (full complex ``fft``,
  kernel rebuilt for every scale on every call),
* the per-segment feature-extraction loop and the double-extracting
  ``fit().transform()`` chain the seed ``fit_transform`` performed,
* the seed CGAN training loop (Algorithm 2) with its allocating Dense
  layers, sign-masked sigmoid, per-tensor Adam updates and
  ``hstack``/``vstack`` batch assembly.

The training side is self-contained: it subclasses nothing from
``repro`` and imports only numpy, so optimizing the library can never
silently change the "before" it is measured against.  The benchmark
asserts that both sides reach bitwise-equal weights.

Nothing here is exported through the library; it exists only so the
benchmark's "looped"/"before" numbers keep meaning something once the
optimized code is the only implementation in ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.features import MinMaxScaler
from repro.dsp.wavelet import DEFAULT_OMEGA0, frequency_to_scale


# --------------------------------------------------------------------------
# Seed DSP front-end: per-scale kernel rebuild, full complex FFTs.
# --------------------------------------------------------------------------
def legacy_cwt_morlet(x, sample_rate, frequencies, *, omega0=DEFAULT_OMEGA0):
    """Seed ``cwt_morlet``: rebuilds ``psi_hat`` for every scale per call."""
    x = np.asarray(x, dtype=np.float64)
    freqs = np.asarray(frequencies, dtype=np.float64)
    n = len(x)
    scales = frequency_to_scale(freqs, sample_rate, omega0)
    w = 2.0 * np.pi * np.fft.fftfreq(n)
    xf = np.fft.fft(x)
    out = np.empty((len(freqs), n), dtype=np.complex128)
    norm_const = np.pi ** (-0.25)
    for i, s in enumerate(scales):
        sw = s * w
        psi_hat = np.zeros(n, dtype=np.float64)
        pos = w > 0
        psi_hat[pos] = norm_const * np.exp(-0.5 * (sw[pos] - omega0) ** 2)
        psi_hat *= np.sqrt(2.0 * np.pi * s)
        out[i] = np.fft.ifft(xf * psi_hat)
    return out


def legacy_average_band_energy(x, sample_rate, frequencies, *, omega0=DEFAULT_OMEGA0):
    """Seed ``average_band_energy``: full scalogram, then time mean."""
    return np.abs(
        legacy_cwt_morlet(x, sample_rate, frequencies, omega0=omega0)
    ).mean(axis=1)


def legacy_raw_feature_matrix(segments, sample_rate, frequencies):
    """Seed ``raw_feature_matrix``: python loop over segments."""
    return np.vstack(
        [legacy_average_band_energy(seg, sample_rate, frequencies) for seg in segments]
    )


def legacy_fit_transform(segments, sample_rate, frequencies):
    """Seed ``fit_transform`` = ``fit(segments).transform(segments)``.

    The chained form extracted every segment twice — once to fit the
    scaler, once to produce the transformed matrix.  Reproduced here
    faithfully because that doubling is part of the measured "before".
    """
    scaler = MinMaxScaler()
    scaler.fit(legacy_raw_feature_matrix(segments, sample_rate, frequencies))
    return scaler.transform(
        legacy_raw_feature_matrix(segments, sample_rate, frequencies)
    )


# --------------------------------------------------------------------------
# Seed NN hot path: allocating layers, per-tensor Adam, seed Algorithm 2.
# --------------------------------------------------------------------------
_EPS = 1e-12


def _he_uniform(shape, rng):
    limit = np.sqrt(6.0 / shape[0])
    return rng.uniform(-limit, limit, size=shape)


def _glorot_uniform(shape, rng):
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _sigmoid(x):
    """Seed sigmoid: sign-masked gather/scatter evaluation."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


#: name -> (forward(x), derivative(x, y)), as in the seed activations.
_ACTIVATIONS = {
    "relu": (
        lambda x: np.maximum(x, 0.0),
        lambda x, y: (x > 0.0).astype(x.dtype),
    ),
    "leaky_relu": (
        lambda x: np.where(x > 0.0, x, 0.2 * x),
        lambda x, y: np.where(x > 0.0, 1.0, 0.2).astype(x.dtype),
    ),
    "sigmoid": (_sigmoid, lambda x, y: y * (1.0 - y)),
}


class LegacyDense:
    """Seed ``Dense``: fresh arrays for pre-activations and gradients."""

    def __init__(self, units, activation, init=_glorot_uniform):
        self.units = units
        self.act, self.act_grad = _ACTIVATIONS[activation]
        self.init = init

    def build(self, input_dim, rng):
        self.W = self.init((input_dim, self.units), rng)
        self.b = np.zeros(self.units, dtype=np.float64)
        self.dW = self.db = None
        return self.units

    def parameters(self):
        return {"W": self.W, "b": self.b}

    def gradients(self):
        return {"W": self.dW, "b": self.db}

    def forward(self, x):
        self._x = x
        self._pre = x @ self.W + self.b
        self._out = self.act(self._pre)
        return self._out

    def backward(self, grad_out):
        grad_pre = grad_out * self.act_grad(self._pre, self._out)
        self.dW = self._x.T @ grad_pre
        self.db = grad_pre.sum(axis=0)
        return grad_pre @ self.W.T


class LegacySequential:
    """Seed ``Sequential``: a plain list of layers."""

    def __init__(self, layers, input_dim, rng):
        self.layers = layers
        for layer in layers:
            input_dim = layer.build(input_dim, rng)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def get_weights(self):
        return {
            f"{li}.{name}": arr.copy()
            for li, layer in enumerate(self.layers)
            for name, arr in layer.parameters().items()
        }


class LegacyAdam:
    """Seed Adam: one allocating update per ``(layer, name)`` tensor."""

    def __init__(self, learning_rate, beta1=0.5, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._state = {}

    def step(self, layers):
        for li, layer in enumerate(layers):
            grads = layer.gradients()
            for name, param in layer.parameters().items():
                if grads[name] is not None:
                    self.update((li, name), param, grads[name])

    def update(self, key, param, grad):
        m, v, t = self._state.setdefault(
            key, [np.zeros_like(param), np.zeros_like(param), 0]
        )
        t += 1
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        self._state[key][2] = t
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


class LegacyConditionalGAN:
    """Seed CGAN and Algorithm 2 loop: default layer stacks, Adam(2e-3),
    Gaussian noise, non-saturating generator loss, ``k = 1``."""

    def __init__(self, feature_dim, condition_dim, *, noise_dim=16, seed=None):
        self.feature_dim = feature_dim
        self.noise_dim = noise_dim
        init_rng, self._train_rng = (
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(2)
        )
        self.generator = LegacySequential(
            [
                LegacyDense(64, "relu", _he_uniform),
                LegacyDense(64, "relu", _he_uniform),
                LegacyDense(feature_dim, "sigmoid"),
            ],
            noise_dim + condition_dim,
            init_rng,
        )
        self.discriminator = LegacySequential(
            [
                LegacyDense(64, "leaky_relu", _he_uniform),
                LegacyDense(32, "leaky_relu", _he_uniform),
                LegacyDense(1, "sigmoid"),
            ],
            feature_dim + condition_dim,
            init_rng,
        )
        self._g_opt = LegacyAdam(2e-3)
        self._d_opt = LegacyAdam(2e-3)
        self.history = []

    def _d_step(self, real_x, real_c):
        n = real_x.shape[0]
        z = self._train_rng.normal(0.0, 1.0, size=(n, self.noise_dim))
        fake_x = self.generator.forward(np.hstack([z, real_c]))
        d_in = np.vstack(
            [np.hstack([real_x, real_c]), np.hstack([fake_x, real_c])]
        )
        targets = np.vstack([np.full((n, 1), 1.0), np.zeros((n, 1))])
        preds = self.discriminator.forward(d_in)
        p = np.clip(preds, _EPS, 1.0 - _EPS)
        self.discriminator.backward((p - targets) / (p * (1.0 - p)) / p.size)
        self._d_opt.step(self.discriminator.layers)
        d_real = np.clip(preds[:n], _EPS, 1.0 - _EPS)
        d_fake = np.clip(preds[n:], _EPS, 1.0 - _EPS)
        return float(-(np.mean(np.log(d_real)) + np.mean(np.log(1.0 - d_fake))))

    def _g_step(self, cond_batch):
        n = cond_batch.shape[0]
        z = self._train_rng.normal(0.0, 1.0, size=(n, self.noise_dim))
        fake_x = self.generator.forward(np.hstack([z, cond_batch]))
        d_pred = self.discriminator.forward(np.hstack([fake_x, cond_batch]))
        p = np.clip(d_pred, _EPS, 1.0 - _EPS)
        grad_d_in = self.discriminator.backward(-1.0 / p / p.size)
        self.generator.backward(grad_d_in[:, : self.feature_dim])
        self._g_opt.step(self.generator.layers)
        g_objective = float(np.mean(np.log(1.0 - np.clip(d_pred, _EPS, 1.0 - _EPS))))
        g_loss = float(-np.mean(np.log(np.clip(d_pred, _EPS, 1.0 - _EPS))))
        return g_loss, g_objective

    def train(self, dataset, *, iterations, batch_size):
        rng = self._train_rng
        order = rng.permutation(len(dataset))
        features = dataset.features[order]
        conditions = dataset.conditions[order]
        for _ in range(iterations):
            idx = rng.integers(0, len(features), size=batch_size)
            d_loss = self._d_step(features[idx], conditions[idx])
            idx = rng.integers(0, len(features), size=batch_size)
            g_loss, g_objective = self._g_step(conditions[idx])
            self.history.append((d_loss, g_loss, g_objective))
        return self.history


def build_legacy_cgan(feature_dim, condition_dim, *, noise_dim=16, seed=None):
    """The seed CGAN, wired entirely from the vendored components above."""
    return LegacyConditionalGAN(
        feature_dim, condition_dim, noise_dim=noise_dim, seed=seed
    )
