"""Human-readable security reports combining all analyses.

:func:`build_security_report` runs the confidentiality, likelihood, and
mutual-information analyses against one trained CGAN and assembles a
plain-text report a CPPS designer can read — the artifact GAN-Sec's
methodology ultimately produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.dataset import FlowPairDataset
from repro.security.confidentiality import LeakageReport, SideChannelAttacker
from repro.security.engine import security_analysis
from repro.security.likelihood import LikelihoodResult
from repro.security.mutual_information import (
    condition_entropy_bits,
    feature_leakage_profile,
)
from repro.utils.rng import as_root_entropy
from repro.utils.tables import format_table


@dataclass
class SecurityReport:
    """Structured result bundle for one flow pair."""

    pair_name: str
    likelihood: LikelihoodResult
    leakage: LeakageReport
    mi_profile: np.ndarray
    condition_entropy: float
    detection: "DetectionReport | None" = None

    @property
    def leaked_bits_upper_bound(self) -> float:
        """The strongest single-feature MI — a lower bound on what the
        full spectrum leaks, an upper bound for a one-feature attacker."""
        return float(self.mi_profile.max())

    def verdict(self) -> str:
        """Coarse qualitative verdict for the designer."""
        ratio = self.leakage.leakage_ratio
        if ratio >= 2.0:
            return "SEVERE leakage: emissions reveal the cyber signal"
        if ratio >= 1.3:
            return "MODERATE leakage: emissions partially reveal the cyber signal"
        return "LOW leakage: emissions are close to uninformative"

    def to_text(self, *, condition_names=None) -> str:
        lines = [
            f"=== GAN-Sec security report: {self.pair_name} ===",
            "",
            "-- Confidentiality (side-channel attack) --",
            self.leakage.to_table(condition_names=condition_names),
            "",
            "-- Algorithm 3 likelihood analysis --",
            self.likelihood.to_table(condition_names=condition_names),
            "",
            "-- Information leakage --",
            format_table(
                [
                    ["condition entropy (bits)", self.condition_entropy],
                    ["max single-feature MI (bits)", self.leaked_bits_upper_bound],
                    ["mean feature MI (bits)", float(self.mi_profile.mean())],
                ],
                ["metric", "value"],
            ),
        ]
        if self.detection is not None:
            lines += [
                "",
                "-- Integrity/availability detection (axis-swap attack) --",
                self.detection.summary(),
            ]
        lines += [
            "",
            f"VERDICT: {self.verdict()}",
        ]
        return "\n".join(lines)


def build_security_report(
    cgan,
    test_set: FlowPairDataset,
    *,
    pair_name: str = "F_energy | F_signal",
    h: float = 0.2,
    g_size: int = 200,
    feature_indices=None,
    include_detection: bool = False,
    seed=None,
    likelihood: LikelihoodResult | None = None,
) -> SecurityReport:
    """Run the full analysis suite for one trained CGAN + test set.

    With ``include_detection=True`` the report also evaluates the dual
    use: an :class:`~repro.security.detection.EmissionAttackDetector`
    against an axis-swap integrity attack synthesized from the test set
    (needs at least two distinct conditions).

    *seed* is the integer root of every generator draw in the report
    (``None`` = fresh entropy).  *likelihood* injects a precomputed
    Algorithm 3 result — :meth:`~repro.pipeline.gansec.GANSec.analyze`
    computes the tables for a whole batch of pairs in one engine fan-out
    and hands each pair's table in here; otherwise the engine runs here.
    """
    seed = as_root_entropy(seed)
    conditions = test_set.unique_conditions()
    if likelihood is None:
        likelihood = security_analysis(
            cgan,
            test_set,
            conditions=conditions,
            feature_indices=feature_indices,
            h=h,
            g_size=g_size,
            root_entropy=seed,
        )
    attacker = SideChannelAttacker(
        cgan,
        conditions,
        h=h,
        feature_indices=feature_indices,
        g_size=g_size,
        seed=seed,
    ).fit()
    leakage = attacker.evaluate(test_set)
    mi_profile = feature_leakage_profile(test_set)
    detection = None
    if include_detection:
        from repro.security.attacks import axis_swap_attack
        from repro.security.detection import EmissionAttackDetector

        detector = EmissionAttackDetector(
            cgan,
            conditions,
            h=h,
            feature_indices=feature_indices,
            g_size=g_size,
            seed=seed,
        ).fit()
        attack_features, attack_claims = axis_swap_attack(test_set, seed=seed)
        detection = detector.evaluate(test_set, attack_features, attack_claims)
    return SecurityReport(
        pair_name=pair_name,
        likelihood=likelihood,
        leakage=leakage,
        mi_profile=mi_profile,
        condition_entropy=condition_entropy_bits(test_set.conditions),
        detection=detection,
    )
