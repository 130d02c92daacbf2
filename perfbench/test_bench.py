"""Self-tests of the benchmark at smoke size.

Run from the repository root::

    python3 -m unittest perfbench/test_bench.py

They check the contract of ``BENCHMARK.json`` against what ``run.py``
prints, and that the output checks count broken outputs as failed
operations: a score one ulp off the offline oracle, a tampered artifact in
a run directory, and a rerun that executes more than analyze and report.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import run  # noqa: E402
from repro.pipeline import invalidate_stage  # noqa: E402
from repro.streaming import StreamingScorer  # noqa: E402
from workloads import (  # noqa: E402
    SMOKE,
    WORKLOADS,
    AnalyzeSweep,
    Context,
    ExperimentCold,
    Loop,
    StreamReplay,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class _Smoke(unittest.TestCase):
    def setUp(self):
        self.ctx = self.fresh_context()

    def fresh_context(self) -> Context:
        run.OUT.mkdir(exist_ok=True)
        tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.addCleanup(tmp.cleanup)
        return Context(work_dir=Path(tmp.name), scale=SMOKE)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(
            set(BENCHMARK),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(WORKLOADS))
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in BENCHMARK["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertRegex(metric["unit"], UNIT)
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in BENCHMARK["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            self.assertRegex(metric["unit"], UNIT)
        setup = {m["name"]: m for m in BENCHMARK["end_to_end"]}["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))


class MetricsEmittedTest(_Smoke):
    """Every named metric comes out, with the unit BENCHMARK.json gives it."""

    def _check(self, workload: str, trace: bool, key: str):
        metrics = run.measure(workload, 3, 0.0, trace, self.ctx, {"test": True})
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        self.assertEqual(set(metrics), set(expected))
        for name, entry in metrics.items():
            self.assertEqual(entry["unit"], expected[name], name)
            self.assertTrue(np.isfinite(entry["value"]), name)
        self.assertGreater(self.ctx.attempted, 0)
        self.assertEqual(self.ctx.failed, 0, self.ctx.notes)
        return metrics

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.ctx = self.fresh_context()
                metrics = self._check(workload, False, "end_to_end")
                for name, entry in metrics.items():
                    self.assertGreater(entry["value"], 0, name)

    def test_per_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.ctx = self.fresh_context()
                metrics = self._check(workload, True, "per_layer")
                if workload == "analyze-sweep":
                    # 2 of 5 stages execute per rerun, 3 are skipped; the traced
                    # set-up and the traced cycle each sweep two run directories.
                    reruns = 2 * 2 * len(SMOKE.sweep_h) * len(SMOKE.sweep_g)
                    cold = 2 * 5
                    self.assertEqual(metrics["pipeline.stages_executed"]["value"], cold + 2 * reruns)
                    self.assertEqual(metrics["pipeline.stages_skipped"]["value"], 3 * reruns)


class FailureAccountingTest(_Smoke):
    def test_score_one_ulp_off_is_failed(self):
        workload = StreamReplay(self.ctx, 5)
        workload.setup()
        original = StreamingScorer.score_windows
        calls = []

        def perturbed(scorer, *args, **kwargs):
            scores = original(scorer, *args, **kwargs)
            if not calls:
                scores = scores.copy()
                scores[0] = np.nextafter(scores[0], np.inf)
            calls.append(1)
            return scores

        StreamingScorer.score_windows = perturbed
        try:
            workload.cycle(Loop())
        finally:
            StreamingScorer.score_windows = original
        self.assertEqual(self.ctx.failed, 1, self.ctx.notes)
        self.assertIn("mismatched=1", self.ctx.notes[0])

    def test_tampered_artifact_is_failed(self):
        def tamper(run_dir):
            with open(run_dir / "analysis.json", "a") as fh:
                fh.write(" ")

        self.ctx.after_run = tamper
        ExperimentCold(self.ctx, 5).setup()
        self.assertEqual((self.ctx.attempted, self.ctx.failed), (1, 1))

    def test_rerun_executing_more_than_analyze_is_failed(self):
        workload = AnalyzeSweep(self.ctx, 5)
        workload.setup()
        self.assertEqual(self.ctx.failed, 0, self.ctx.notes)
        invalidated = []

        def invalidate_once(run_dir):
            if not invalidated:
                invalidated.append(invalidate_stage(run_dir, "record"))

        self.ctx.after_run = invalidate_once
        workload.cycle(Loop())
        # After the first rerun record is invalidated, so the second
        # re-executes every stage.
        self.assertEqual(self.ctx.failed, 1, self.ctx.notes)


if __name__ == "__main__":
    unittest.main()
