"""The one conditional emission model behind every GAN-Sec analysis.

GAN-Sec uses one trained CGAN in two ways: Algorithm 3 and the
side-channel attacker measure how much the physical emission leaks the
cyber condition, and the Section IV-D detector flags emissions that do
not match their claimed condition.  Both rest on the same model: for
each condition ``c``, ``g_size`` draws from ``G(Z | c)`` and one 1-D
Parzen window per analyzed feature fitted to them.

Seed contract: every draw comes from
:func:`~repro.runtime.analysis.analysis_rng` ``(root_entropy, pair, c)``,
a pure function of an integer root, a pair label and the condition.  A
draw is therefore reproducible in any process, independent of the order
conditions are visited in, and addressable through
:class:`~repro.runtime.analysis.ConditionSampleCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.runtime.analysis import ConditionSampleCache, analysis_rng
from repro.security.parzen import ParzenWindow
from repro.utils.rng import as_root_entropy

#: Pair label of models built without one (the attacker, the detector,
#: single-pair Algorithm 3 runs).
DEFAULT_PAIR = "analysis"


@dataclass
class _SamplerRef:
    """Picklable ``(condition, n, rng) -> samples`` handle on a CGAN."""

    cgan: object = field(repr=False)

    def __call__(self, condition, n, rng):
        return self.cgan.generate_for_condition(condition, n, seed=rng)


def as_picklable_sampler(generator_sampler):
    """Normalize into a picklable ``(condition, n, rng) -> samples``.

    A trained :class:`~repro.gan.cgan.ConditionalGAN` is wrapped so that
    jobs carrying it survive the process executor; callables pass
    through unchanged.
    """
    from repro.gan.cgan import ConditionalGAN  # Local import to avoid a cycle.

    if isinstance(generator_sampler, ConditionalGAN):
        generator_sampler.require_trained()
        return _SamplerRef(generator_sampler)
    if callable(generator_sampler):
        return generator_sampler
    raise ConfigurationError(
        "generator_sampler must be a trained ConditionalGAN or a callable "
        "(condition, n, rng) -> samples"
    )


def draw_condition_samples(
    sampler,
    condition,
    n: int,
    *,
    root_entropy: int,
    pair: str,
    cache: ConditionSampleCache | None = None,
) -> np.ndarray:
    """``n`` draws from ``G(Z | condition)`` under the derived-stream contract.

    The optional *cache* is consulted first and refilled on a miss; a
    hit is bitwise equal to regeneration because the stream is a pure
    function of the cache key.
    """
    key = None
    if cache is not None:
        key = cache.key(pair, condition, n, root_entropy)
        generated = cache.get(key)
        if generated is not None:
            return generated
    rng = analysis_rng(root_entropy, pair, condition)
    generated = np.asarray(sampler(condition, n, rng), dtype=float)
    if generated.ndim != 2 or generated.shape[0] != n:
        raise DataError(
            f"sampler returned shape {generated.shape}, expected ({n}, n_features)"
        )
    if cache is not None:
        cache.put(key, generated)
    return generated


def fit_feature_windows(generated: np.ndarray, h: float, feature_indices=None) -> list:
    """One 1-D Parzen window per analyzed feature column of *generated*."""
    cols = generated if feature_indices is None else generated[:, feature_indices]
    return [ParzenWindow(h).fit(cols[:, d]) for d in range(cols.shape[1])]


class ConditionalParzenModel:
    """Per-condition, per-feature Parzen densities fitted to ``G(Z | c)``.

    Parameters
    ----------
    sampler:
        Trained CGAN or ``(condition, n, rng) -> samples`` callable.
    conditions:
        ``(n_conditions, condition_dim)`` matrix of modeled conditions;
        scoring refers to them by row index.
    h / g_size:
        Parzen window width and generator samples per condition.
    feature_indices:
        Feature columns modeled (``None`` = all).
    root_entropy:
        Integer seed root of the per-condition draws; ``None`` draws
        fresh entropy.  A ``Generator`` raises ``ConfigurationError``.
    pair:
        Pair label; part of the RNG derivation and the cache key.
    cache:
        Optional :class:`~repro.runtime.analysis.ConditionSampleCache`.
    """

    def __init__(
        self,
        sampler,
        conditions,
        *,
        h: float = 0.2,
        g_size: int = 200,
        feature_indices=None,
        root_entropy: int | None = None,
        pair: str = DEFAULT_PAIR,
        cache: ConditionSampleCache | None = None,
    ):
        if h <= 0:
            raise ConfigurationError(f"h must be > 0, got {h}")
        if g_size <= 0:
            raise ConfigurationError(f"g_size must be > 0, got {g_size}")
        self._sample = as_picklable_sampler(sampler)
        self.conditions = np.atleast_2d(np.asarray(conditions, dtype=float))
        if self.conditions.shape[0] < 1:
            raise ConfigurationError("need at least one condition")
        self.h = float(h)
        self.g_size = int(g_size)
        self.feature_indices = (
            None if feature_indices is None else np.asarray(feature_indices, dtype=int)
        )
        self.root_entropy = as_root_entropy(root_entropy)
        self.pair = str(pair)
        self.cache = cache
        self._models = None  # per condition: list of per-feature windows

    @property
    def fitted(self) -> bool:
        return self._models is not None

    @property
    def n_conditions(self) -> int:
        return self.conditions.shape[0]

    def fit(self):
        """Draw every condition and fit its per-feature Parzen windows."""
        self._models = [
            fit_feature_windows(
                draw_condition_samples(
                    self._sample,
                    cond,
                    self.g_size,
                    root_entropy=self.root_entropy,
                    pair=self.pair,
                    cache=self.cache,
                ),
                self.h,
                self.feature_indices,
            )
            for cond in self.conditions
        ]
        return self

    def _columns(self, features) -> np.ndarray:
        """Validated ``(rows, n_features)`` block of the modeled columns."""
        if not self.fitted:
            raise NotFittedError(f"{type(self).__name__}.fit() not called")
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if self.feature_indices is not None:
            features = features[:, self.feature_indices]
        expected = len(self._models[0])
        if features.shape[1] != expected:
            raise DataError(
                f"features have {features.shape[1]} columns, models fitted on "
                f"{expected}"
            )
        return features

    def _summed_log_density(self, block, ci, chunk_size) -> np.ndarray:
        # Accumulated feature by feature, in order: every scoring entry
        # point sums exactly this way, so their outputs agree bitwise.
        total = np.zeros(block.shape[0], dtype=float)
        for d, distr in enumerate(self._models[ci]):
            total += distr.score_batch(block[:, d], chunk_size=chunk_size)
        return total

    def condition_indices(self, rows) -> np.ndarray:
        """Row index into :attr:`conditions` of each condition vector in *rows*.

        Raises :class:`~repro.errors.DataError` naming the first row that
        matches no modeled condition.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.conditions.shape[1]:
            raise DataError(
                f"conditions have width {rows.shape[1]}, model has "
                f"{self.conditions.shape[1]}"
            )
        matches = np.all(rows[:, None, :] == self.conditions[None, :, :], axis=2)
        known = matches.any(axis=1)
        if not known.all():
            unknown = rows[int(np.argmin(known))]
            raise DataError(f"condition {unknown.tolist()} is not modeled")
        return matches.argmax(axis=1)

    def log_likelihoods(self, features, *, chunk_size: int | None = None) -> np.ndarray:
        """``(n_rows, n_conditions)`` summed per-feature log densities."""
        features = self._columns(features)
        out = np.empty((features.shape[0], self.n_conditions))
        for ci in range(self.n_conditions):
            out[:, ci] = self._summed_log_density(features, ci, chunk_size)
        return out

    def score_claims(
        self, features, claim_indices, *, chunk_size: int | None = None
    ) -> np.ndarray:
        """Mean per-feature log density of each row under its claimed condition.

        *claim_indices* holds one condition row index per feature row.
        Rows are grouped by claim and each is scored only under its
        claim; rows are independent, so any partition of a batch gives
        bitwise-identical scores.
        """
        features = self._columns(features)
        claims = np.asarray(claim_indices, dtype=int).ravel()
        if features.shape[0] != claims.shape[0]:
            raise DataError(f"{features.shape[0]} rows but {claims.shape[0]} claims")
        if claims.size and (claims.min() < 0 or claims.max() >= self.n_conditions):
            raise DataError(
                f"claim indices must be in [0, {self.n_conditions}), got "
                f"range [{claims.min()}, {claims.max()}]"
            )
        n_feats = features.shape[1]
        scores = np.empty(features.shape[0], dtype=float)
        for ci in range(self.n_conditions):
            mask = claims == ci
            if mask.any():
                scores[mask] = (
                    self._summed_log_density(features[mask], ci, chunk_size) / n_feats
                )
        return scores

    def __repr__(self):
        return (
            f"{type(self).__name__}(pair={self.pair!r}, "
            f"conditions={self.n_conditions}, h={self.h}, g_size={self.g_size}, "
            f"fitted={self.fitted})"
        )
