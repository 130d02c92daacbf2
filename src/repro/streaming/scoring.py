"""Batched per-window likelihood scoring for the streaming detector.

:class:`StreamingScorer` is the shared
:class:`~repro.security.model.ConditionalParzenModel` with the streaming
defaults (root 0, pair ``"stream"``): the offline
:class:`~repro.security.detection.EmissionAttackDetector` and a
streaming scorer built from the same
``(sampler, conditions, h, g_size, root_entropy, pair)`` fit exactly
the same densities and score exactly the same numbers.

Scoring is row-independent: ``score_windows`` over any partition of a
window batch is bitwise identical to one call over the whole batch
(enforced by the streaming property tests).
"""

from __future__ import annotations

import numpy as np

from repro.security.model import ConditionalParzenModel


class StreamingScorer(ConditionalParzenModel):
    """Per-window mean log-likelihood under the *claimed* condition.

    Parameters are those of
    :class:`~repro.security.model.ConditionalParzenModel`; *conditions*
    lists every condition the G-code stream can legitimately claim, and
    windows carry *indices* into it.
    """

    def __init__(
        self,
        sampler,
        conditions,
        *,
        root_entropy: int = 0,
        pair: str = "stream",
        **kwargs,
    ):
        super().__init__(
            sampler, conditions, root_entropy=root_entropy, pair=pair, **kwargs
        )

    def score_windows(
        self, features, claim_indices, *, chunk_size: int | None = None
    ) -> np.ndarray:
        """Mean per-feature log density of each window under its claim.

        *features* are ``(n_windows, n_features)`` extracted (scaled)
        window features; *claim_indices* the per-window condition index
        the G-code stream claims was executing.  Higher = emission
        consistent with the claim (normal); lower = suspicious.
        """
        return self.score_claims(features, claim_indices, chunk_size=chunk_size)
