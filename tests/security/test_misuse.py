"""Misuse-resistance of the public security entry points.

Every public function/class in likelihood.py, detection.py, roc.py,
confidentiality.py, mutual_information.py, report.py and engine.py must
fail loudly and specifically — NotFittedError for untrained models,
ShapeError/DataError for misaligned inputs, ConfigurationError for a
shared Generator where an integer seed root is expected — rather than
producing silently wrong tables.
"""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    ShapeError,
)
from repro.gan import ConditionalGAN
from repro.security import (
    EmissionAttackDetector,
    SideChannelAttacker,
    build_security_report,
    choose_analysis_feature,
    generator_leakage_profile,
    repeated_likelihood_analysis,
    roc_auc,
    roc_curve,
    security_analysis,
    security_analysis_h_sweep,
)
from repro.streaming import StreamingScorer

CONDS = np.array([[1.0, 0.0], [0.0, 1.0]])


def dummy_sampler(condition, n, rng):
    return rng.normal(size=(n, 4))


@pytest.fixture()
def untrained_cgan():
    return ConditionalGAN(4, 2, seed=0)


class TestLikelihoodEntryPoints:
    def test_untrained_cgan_raises(self, untrained_cgan, toy_dataset):
        with pytest.raises(NotFittedError):
            repeated_likelihood_analysis(untrained_cgan, toy_dataset)

    def test_h_sweep_untrained_cgan_raises(self, untrained_cgan, toy_dataset):
        with pytest.raises(NotFittedError):
            security_analysis_h_sweep(untrained_cgan, toy_dataset)

    def test_choose_feature_untrained_cgan_raises(
        self, untrained_cgan, toy_dataset
    ):
        with pytest.raises(NotFittedError):
            choose_analysis_feature(untrained_cgan, toy_dataset)

    def test_engine_untrained_cgan_raises(self, untrained_cgan, toy_dataset):
        with pytest.raises(NotFittedError):
            security_analysis(untrained_cgan, toy_dataset)

    def test_condition_shape_mismatch_raises(self, toy_dataset):
        with pytest.raises(ShapeError):
            repeated_likelihood_analysis(
                dummy_sampler, toy_dataset, conditions=[[1.0, 0.0, 0.0]]
            )

    def test_engine_condition_shape_mismatch_raises(self, toy_dataset):
        with pytest.raises(ShapeError):
            security_analysis(
                dummy_sampler, toy_dataset, conditions=[[1.0, 0.0, 0.0]]
            )


class TestDetectionEntryPoints:
    def test_untrained_cgan_in_constructor_raises(self, untrained_cgan):
        with pytest.raises(NotFittedError):
            EmissionAttackDetector(untrained_cgan, CONDS)

    def test_score_before_fit_raises(self):
        detector = EmissionAttackDetector(dummy_sampler, CONDS, g_size=20)
        with pytest.raises(NotFittedError):
            detector.score(np.zeros((3, 4)), CONDS[0])

    def test_detect_before_calibrate_raises(self):
        detector = EmissionAttackDetector(
            dummy_sampler, CONDS, g_size=20, seed=0
        ).fit()
        with pytest.raises(NotFittedError):
            detector.detect(np.zeros((3, 4)), CONDS[0])

    def test_misaligned_claims_raise(self):
        detector = EmissionAttackDetector(
            dummy_sampler, CONDS, g_size=20, seed=0
        ).fit()
        with pytest.raises(DataError):
            detector.score(np.zeros((3, 4)), CONDS)  # 3 samples, 2 claims

    def test_unknown_claimed_condition_raises(self):
        detector = EmissionAttackDetector(
            dummy_sampler, CONDS, g_size=20, seed=0
        ).fit()
        with pytest.raises(DataError):
            detector.score(np.zeros((1, 4)), [[0.5, 0.5]])

    def test_roc_auc_empty_raises(self):
        with pytest.raises(DataError):
            roc_auc([], [1.0])
        with pytest.raises(DataError):
            roc_auc([1.0], [])


class TestRocEntryPoints:
    def test_empty_scores_raise(self):
        with pytest.raises(DataError):
            roc_curve([], [0.0])
        with pytest.raises(DataError):
            roc_curve([0.0], [])

    def test_threshold_for_fpr_out_of_range(self):
        curve = roc_curve([1.0, 2.0, 3.0], [0.0, 0.5])
        with pytest.raises(ConfigurationError):
            curve.threshold_for_fpr(1.5)

    def test_negative_fpr_budget_rejected(self):
        curve = roc_curve([1.0, 1.0], [0.0])
        with pytest.raises(ConfigurationError):
            curve.threshold_for_fpr(-0.1)


class TestConfidentialityEntryPoints:
    def test_untrained_cgan_in_constructor_raises(self, untrained_cgan):
        with pytest.raises(NotFittedError):
            SideChannelAttacker(untrained_cgan, CONDS)

    def test_log_likelihoods_before_fit_raises(self):
        attacker = SideChannelAttacker(dummy_sampler, CONDS, g_size=20)
        with pytest.raises(NotFittedError):
            attacker.log_likelihoods(np.zeros((2, 4)))

    def test_infer_before_fit_raises(self):
        attacker = SideChannelAttacker(dummy_sampler, CONDS, g_size=20)
        with pytest.raises(NotFittedError):
            attacker.infer(np.zeros((2, 4)))

    def test_single_condition_rejected(self):
        with pytest.raises(ConfigurationError):
            SideChannelAttacker(dummy_sampler, [[1.0, 0.0]])

    def test_feature_width_mismatch_raises(self):
        attacker = SideChannelAttacker(
            dummy_sampler, CONDS, g_size=20, seed=0
        ).fit()
        with pytest.raises(DataError):
            attacker.log_likelihoods(np.zeros((2, 7)))

    def test_evaluate_with_foreign_condition_raises(self, toy_dataset):
        attacker = SideChannelAttacker(
            dummy_sampler,
            [[1.0, 0.0], [0.5, 0.5]],  # does not cover toy's [0,1]
            g_size=20,
            seed=0,
        ).fit()
        with pytest.raises(DataError):
            attacker.evaluate(toy_dataset)


def _generator_seeded_calls():
    """Every ``G(Z | c)`` consumer, called with a Generator as its seed root."""
    gen = np.random.default_rng(0)
    return {
        "security_analysis": lambda ds: security_analysis(
            dummy_sampler, ds, root_entropy=gen
        ),
        "security_analysis_h_sweep": lambda ds: security_analysis_h_sweep(
            dummy_sampler, ds, root_entropy=gen
        ),
        "repeated_likelihood_analysis": lambda ds: repeated_likelihood_analysis(
            dummy_sampler, ds, seed=gen
        ),
        "choose_analysis_feature": lambda ds: choose_analysis_feature(
            dummy_sampler, ds, seed=gen
        ),
        "SideChannelAttacker": lambda ds: SideChannelAttacker(
            dummy_sampler, CONDS, seed=gen
        ),
        "EmissionAttackDetector": lambda ds: EmissionAttackDetector(
            dummy_sampler, CONDS, seed=gen
        ),
        "StreamingScorer": lambda ds: StreamingScorer(
            dummy_sampler, CONDS, root_entropy=gen
        ),
        "generator_leakage_profile": lambda ds: generator_leakage_profile(
            dummy_sampler, CONDS, seed=gen
        ),
        "build_security_report": lambda ds: build_security_report(
            dummy_sampler, ds, seed=gen
        ),
    }


class TestSeedContract:
    @pytest.mark.parametrize("entry_point", sorted(_generator_seeded_calls()))
    def test_generator_as_seed_root_rejected(self, entry_point, toy_dataset):
        # A shared Generator would be consumed in call order; the derived
        # stream contract needs an integer root, so it must fail loudly.
        with pytest.raises(ConfigurationError, match="int or None"):
            _generator_seeded_calls()[entry_point](toy_dataset)
