"""Tests for repro.security.baselines."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DataError
from repro.flows.dataset import FlowPairDataset
from repro.security.baselines import (
    EmpiricalConditionalSampler,
    GaussianConditionalSampler,
    NearestCentroidAttacker,
)
from repro.security.confidentiality import SideChannelAttacker
from repro.security.engine import security_analysis


def rng():
    return np.random.default_rng(0)


class TestEmpiricalSampler:
    def test_samples_come_from_condition_pool(self, toy_dataset):
        sampler = EmpiricalConditionalSampler(toy_dataset)
        cond = toy_dataset.unique_conditions()[0]
        out = sampler(cond, 50, rng())
        pool = {tuple(r) for r in
                toy_dataset.subset_for_condition(cond).features}
        assert all(tuple(r) in pool for r in out)

    def test_jitter_spreads(self, toy_dataset):
        cond = toy_dataset.unique_conditions()[0]
        clean = EmpiricalConditionalSampler(toy_dataset)(cond, 200, rng())
        jittered = EmpiricalConditionalSampler(toy_dataset, jitter=0.1)(
            cond, 200, rng()
        )
        assert jittered.std() > clean.std()

    def test_rejects_negative_jitter(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            EmpiricalConditionalSampler(toy_dataset, jitter=-0.1)

    def test_unknown_condition(self, toy_dataset):
        sampler = EmpiricalConditionalSampler(toy_dataset)
        with pytest.raises(DataError):
            sampler(np.array([0.5, 0.5]), 5, rng())

    def test_usable_in_algorithm3(self, toy_dataset):
        sampler = EmpiricalConditionalSampler(toy_dataset, jitter=0.02)
        res = security_analysis(
            sampler, toy_dataset, h=0.1, g_size=100, root_entropy=0
        )
        # A direct resampler of the data is a (near-)oracle: big margins.
        assert np.all(res.margin().mean(axis=1) > 0.05)


class TestGaussianSampler:
    def test_matches_moments(self, toy_dataset):
        sampler = GaussianConditionalSampler(toy_dataset)
        cond = toy_dataset.unique_conditions()[0]
        real = toy_dataset.subset_for_condition(cond).features
        out = sampler(cond, 2000, rng())
        np.testing.assert_allclose(out.mean(axis=0), real.mean(axis=0), atol=0.02)

    def test_usable_as_attacker_model(self, toy_dataset):
        sampler = GaussianConditionalSampler(toy_dataset)
        attacker = SideChannelAttacker(
            sampler, toy_dataset.unique_conditions(), h=0.1, seed=0
        ).fit()
        assert attacker.evaluate(toy_dataset).accuracy > 0.9

    def test_rejects_bad_min_std(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            GaussianConditionalSampler(toy_dataset, min_std=0.0)


class TestNearestCentroid:
    def test_high_accuracy_on_separable_data(self, toy_dataset):
        attacker = NearestCentroidAttacker(toy_dataset)
        assert attacker.accuracy(toy_dataset) > 0.95

    def test_needs_two_conditions(self):
        ds = FlowPairDataset(np.random.rand(5, 3), np.tile([1.0], (5, 1)))
        with pytest.raises(DataError):
            NearestCentroidAttacker(ds)

    def test_unseen_condition_raises(self, toy_dataset):
        attacker = NearestCentroidAttacker(toy_dataset)
        bad = FlowPairDataset(np.random.rand(3, 4), np.tile([0.5, 0.5], (3, 1)))
        with pytest.raises(DataError):
            attacker.accuracy(bad)

    def test_infer_shape(self, toy_dataset):
        attacker = NearestCentroidAttacker(toy_dataset)
        preds = attacker.infer(toy_dataset.features[:7])
        assert preds.shape == (7,)
