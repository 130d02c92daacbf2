"""One conditional emission model behind the attacker, detector and stream.

The side-channel attacker, the offline attack detector and the streaming
scorer are three views of :class:`~repro.security.model.ConditionalParzenModel`.
Built from the same ``(sampler, conditions, h, g_size, feature_indices,
root, pair)`` they must produce the same numbers bitwise (``==``), not
merely close ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DataError
from repro.runtime.analysis import ConditionSampleCache, analysis_rng
from repro.security import EmissionAttackDetector, SideChannelAttacker
from repro.security.model import (
    DEFAULT_PAIR,
    ConditionalParzenModel,
    draw_condition_samples,
)
from repro.streaming import StreamingScorer


def mode_sampler(condition, n, rng):
    """Each condition shifts every feature; the width varies per column."""
    condition = np.asarray(condition, dtype=float)
    center = float(np.dot(condition, np.arange(1, len(condition) + 1)))
    return rng.normal(0.25 * center, 0.1, size=(n, 5)) * np.linspace(0.5, 1.5, 5)


@st.composite
def model_cases(draw):
    n_conds = draw(st.integers(2, 3))
    feature_indices = draw(
        st.none()
        | st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True)
    )
    n_rows = draw(st.integers(1, 30))
    rows_rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return {
        "conditions": np.eye(n_conds),
        "h": draw(st.floats(0.05, 1.0)),
        "g_size": draw(st.integers(1, 40)),
        "feature_indices": feature_indices,
        "root": draw(st.integers(0, 2**64 - 1)),
        "features": rows_rng.normal(0.4, 0.4, size=(n_rows, 5)),
        "claims": np.asarray(
            draw(
                st.lists(
                    st.integers(0, n_conds - 1), min_size=n_rows, max_size=n_rows
                )
            )
        ),
    }


class TestOneModel:
    @settings(max_examples=40, deadline=None)
    @given(case=model_cases())
    def test_detector_attacker_and_scorer_agree_bitwise(self, case):
        shared = dict(
            h=case["h"],
            g_size=case["g_size"],
            feature_indices=case["feature_indices"],
        )
        conditions, root = case["conditions"], case["root"]
        # The attacker and detector take no pair label: they model DEFAULT_PAIR.
        scorer = StreamingScorer(
            mode_sampler, conditions, root_entropy=root, pair=DEFAULT_PAIR, **shared
        ).fit()
        detector = EmissionAttackDetector(
            mode_sampler, conditions, seed=root, **shared
        ).fit()
        attacker = SideChannelAttacker(
            mode_sampler, conditions, seed=root, **shared
        ).fit()
        features, claims = case["features"], case["claims"]

        np.testing.assert_array_equal(
            detector.score(features, conditions[claims]),
            scorer.score_windows(features, claims),
        )
        n_features = (
            5 if case["feature_indices"] is None else len(case["feature_indices"])
        )
        log_likes = attacker.log_likelihoods(features)
        for c in range(len(conditions)):
            every_claim_c = np.full(len(features), c)
            np.testing.assert_array_equal(
                log_likes[:, c] / n_features,
                scorer.score_windows(features, every_claim_c),
            )


class TestDraws:
    def test_draw_is_the_derived_stream(self):
        drawn = draw_condition_samples(
            mode_sampler, [1.0, 0.0], 7, root_entropy=3, pair="p"
        )
        expected = mode_sampler([1.0, 0.0], 7, analysis_rng(3, "p", [1.0, 0.0]))
        np.testing.assert_array_equal(drawn, expected)

    def test_cache_hit_returns_the_stored_draw(self):
        cache = ConditionSampleCache()
        first = draw_condition_samples(
            mode_sampler, [1.0, 0.0], 7, root_entropy=3, pair="p", cache=cache
        )
        again = draw_condition_samples(
            mode_sampler, [1.0, 0.0], 7, root_entropy=3, pair="p", cache=cache
        )
        assert again is first
        assert cache.stats()["hits"] == 1

    def test_wrong_sample_shape_raises(self):
        def flat(condition, n, rng):
            return rng.normal(size=n)

        with pytest.raises(DataError, match=r"expected \(4, n_features\)"):
            draw_condition_samples(flat, [1.0], 4, root_entropy=0, pair="p")

    def test_unknown_condition_row_named(self):
        model = ConditionalParzenModel(
            mode_sampler, np.eye(2), g_size=5, root_entropy=0
        )
        with pytest.raises(DataError, match=r"\[0\.5, 0\.5\]"):
            model.condition_indices([[1.0, 0.0], [0.5, 0.5]])
