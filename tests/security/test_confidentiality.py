"""Tests for repro.security.confidentiality."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.gan.cgan import ConditionalGAN
from repro.security.confidentiality import (
    SideChannelAttacker,
    leakage_vs_training_data,
)

CONDS = np.array([[1.0, 0.0], [0.0, 1.0]])


def oracle(cond, n, rng):
    center = 0.2 if cond[0] == 1.0 else 0.8
    return np.clip(rng.normal(center, 0.05, size=(n, 4)), 0, 1)


def blind(cond, n, rng):
    return rng.random((n, 4))


class TestAttacker:
    def test_oracle_attacker_near_perfect(self, toy_dataset):
        attacker = SideChannelAttacker(oracle, CONDS, h=0.1, seed=0).fit()
        report = attacker.evaluate(toy_dataset)
        assert report.accuracy > 0.95
        assert report.leakage_ratio > 1.9

    def test_blind_attacker_near_chance(self, toy_dataset):
        # On clustered data a blind attacker labels each cluster wholesale,
        # so one root's accuracy is ~0, ~0.5 or ~1 by luck.  Chance is a
        # statement about the average: over N roots the mean accuracy has
        # standard error <= 0.5 / sqrt(N) ~= 0.035 at N = 200, so the band
        # below is at least +-4 standard errors around 1 / n_conditions.
        accuracies = [
            SideChannelAttacker(blind, CONDS, h=0.1, g_size=50, seed=root)
            .evaluate(toy_dataset)
            .accuracy
            for root in range(200)
        ]
        assert 0.35 <= np.mean(accuracies) <= 0.65

    def test_confusion_matrix_totals(self, toy_dataset):
        attacker = SideChannelAttacker(oracle, CONDS, h=0.1, seed=0).fit()
        report = attacker.evaluate(toy_dataset)
        assert report.confusion.sum() == len(toy_dataset)

    def test_feature_subset(self, toy_dataset):
        attacker = SideChannelAttacker(
            oracle, CONDS, h=0.1, feature_indices=[0, 1], seed=0
        ).fit()
        report = attacker.evaluate(toy_dataset)
        assert report.accuracy > 0.9

    def test_infer_shapes(self, toy_dataset):
        attacker = SideChannelAttacker(oracle, CONDS, h=0.1, seed=0).fit()
        preds = attacker.infer(toy_dataset.features[:10])
        assert preds.shape == (10,)
        assert set(preds) <= {0, 1}

    def test_unfitted_raises(self, toy_dataset):
        attacker = SideChannelAttacker(oracle, CONDS, h=0.1, seed=0)
        with pytest.raises(NotFittedError):
            attacker.log_likelihoods(toy_dataset.features)

    def test_evaluate_autofits(self, toy_dataset):
        attacker = SideChannelAttacker(oracle, CONDS, h=0.1, seed=0)
        report = attacker.evaluate(toy_dataset)  # No explicit fit().
        assert report.accuracy > 0.9

    def test_unknown_test_label_raises(self, toy_dataset):
        attacker = SideChannelAttacker(
            oracle, np.array([[1.0, 0.0], [0.5, 0.5]]), h=0.1, seed=0
        ).fit()
        with pytest.raises(DataError):
            attacker.evaluate(toy_dataset)

    def test_needs_two_conditions(self):
        with pytest.raises(ConfigurationError):
            SideChannelAttacker(oracle, np.array([[1.0, 0.0]]), h=0.1)

    def test_rejects_bad_h(self):
        with pytest.raises(ConfigurationError):
            SideChannelAttacker(oracle, CONDS, h=0.0)

    def test_report_table(self, toy_dataset):
        report = SideChannelAttacker(oracle, CONDS, h=0.1, seed=0).evaluate(
            toy_dataset
        )
        table = report.to_table()
        assert "accuracy" in table
        assert "Cond1" in table


class TestRealPipeline:
    def test_trained_cgan_beats_chance(self, trained_cgan, case_split):
        _train, test = case_split
        attacker = SideChannelAttacker(
            trained_cgan, test.unique_conditions(), h=0.2, seed=0
        ).fit()
        report = attacker.evaluate(test)
        # Even a briefly trained CGAN leaks well above chance on the
        # simulated printer (paper's core confidentiality finding).
        assert report.accuracy > 1.2 / report.n_conditions


class TestCapabilityStudy:
    def test_fractions_and_monotone_sizes(self, toy_dataset):
        def make():
            return ConditionalGAN(4, 2, noise_dim=4, seed=3)

        results = leakage_vs_training_data(
            make,
            toy_dataset,
            fractions=(0.3, 1.0),
            iterations=150,
            h=0.15,
            seed=0,
        )
        assert len(results) == 2
        (f1, n1, a1), (f2, n2, a2) = results
        assert f1 == 0.3 and f2 == 1.0
        assert n1 < n2
        assert 0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0

    def test_rejects_bad_fraction(self, toy_dataset):
        def make():
            return ConditionalGAN(4, 2, noise_dim=4, seed=3)

        with pytest.raises(ConfigurationError):
            leakage_vs_training_data(
                make, toy_dataset, fractions=(1.5,), iterations=10
            )
