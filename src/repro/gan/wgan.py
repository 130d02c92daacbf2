"""Wasserstein CGAN variant (weight clipping, Arjovsky et al. 2017).

An extension beyond the paper: the original minimax GAN of Algorithm 2
can saturate or oscillate on small datasets; the Wasserstein objective
with a clipped critic trades the probability-of-real interpretation for
smoother training dynamics.  The class subclasses
:class:`~repro.gan.cgan.ConditionalGAN` so every downstream analysis
(Algorithm 3, attackers, detectors) works unchanged.

Differences vs the standard CGAN:

* the discriminator becomes a *critic* with a linear head (scores, not
  probabilities);
* the critic ascends ``E[D(real)] - E[D(fake)]`` and its weights are
  clipped to ``[-clip, clip]`` after every step (the Lipschitz
  surrogate);
* the generator descends ``-E[D(G(z|c))]``;
* recorded ``d_loss`` is the negative critic objective — an estimate of
  (minus) the Wasserstein distance, so it *rises toward 0* as G
  improves, and ``g_loss`` is ``-E[D(fake)]``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gan.cgan import ConditionalGAN
from repro.nn.layers import Dense
from repro.nn.optimizers import RMSProp


def default_critic(hidden=(64, 32)) -> list:
    """Critic stack: LeakyReLU hiddens, *linear* scalar head."""
    layers = [Dense(h, "leaky_relu", kernel_init="he_uniform") for h in hidden]
    layers.append(Dense(1))  # Linear: unbounded scores.
    return layers


class WassersteinConditionalGAN(ConditionalGAN):
    """CGAN trained with the WGAN objective and weight clipping.

    Parameters (beyond :class:`ConditionalGAN`)
    -------------------------------------------
    clip:
        Critic weight-clipping bound (default 0.05).
    """

    def __init__(
        self,
        feature_dim: int,
        condition_dim: int,
        *,
        clip: float = 0.05,
        discriminator_layers=None,
        learning_rate: float = 5e-4,
        g_optimizer=None,
        d_optimizer=None,
        **kwargs,
    ):
        if clip <= 0:
            raise ConfigurationError(f"clip must be > 0, got {clip}")
        kwargs.pop("generator_loss", None)  # WGAN fixes its own objectives.
        super().__init__(
            feature_dim,
            condition_dim,
            discriminator_layers=discriminator_layers or default_critic(),
            # RMSProp is the classic WGAN optimizer (momentum hurts with
            # clipping); callers may still override.
            g_optimizer=g_optimizer or RMSProp(learning_rate),
            d_optimizer=d_optimizer or RMSProp(learning_rate),
            learning_rate=learning_rate,
            **kwargs,
        )
        self.clip = float(clip)

    def _clip_critic(self):
        params = self.discriminator.params
        np.clip(params, -self.clip, self.clip, out=params)

    def _d_step(self, real_x, real_c, *, label_smoothing: float):
        """Critic ascent: maximize E[D(real)] - E[D(fake)], then clip."""
        n = real_x.shape[0]
        z = self.sample_noise(n)
        fake_x = self.generator.forward(np.hstack([z, real_c]), training=True)
        d_in = np.vstack(
            [np.hstack([real_x, real_c]), np.hstack([fake_x, real_c])]
        )
        scores = self.discriminator.forward(d_in, training=True)
        # d objective = mean(real) - mean(fake); we *descend* its negative.
        grad = np.empty_like(scores)
        grad[:n] = -1.0 / n
        grad[n:] = 1.0 / n
        self.discriminator.backward(grad, input_grad=False)
        self._d_opt.step(self.discriminator)
        self._clip_critic()
        critic_objective = float(scores[:n].mean() - scores[n:].mean())
        return -critic_objective  # Reported as a loss (rises toward 0).

    def _g_step(self, cond_batch):
        """Generator descent on -E[D(G(z|c))]."""
        n = cond_batch.shape[0]
        z = self.sample_noise(n)
        fake_x = self.generator.forward(np.hstack([z, cond_batch]), training=True)
        scores = self.discriminator.forward(
            np.hstack([fake_x, cond_batch]), training=True
        )
        grad_d_in = self.discriminator.backward(
            np.full_like(scores, -1.0 / n), param_grads=False
        )
        self.generator.backward(grad_d_in[:, : self.feature_dim], input_grad=False)
        self._g_opt.step(self.generator)
        g_loss = float(-scores.mean())
        # No log(1-D) analogue exists for a critic; report the same value.
        return g_loss, g_loss

    def discriminator_score(self, features, conditions) -> np.ndarray:
        """Critic scores (unbounded; higher = more real-looking)."""
        return super().discriminator_score(features, conditions)

    def __repr__(self):
        return (
            f"WassersteinConditionalGAN(feature_dim={self.feature_dim}, "
            f"condition_dim={self.condition_dim}, clip={self.clip}, "
            f"iterations={self.trained_iterations})"
        )
