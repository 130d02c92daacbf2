"""Tests for repro.pipeline.gansec (the Figure 4 end-to-end driver)."""

import pytest

from repro.errors import ConfigurationError, DataError, NotFittedError
from repro.manufacturing import GCODE_FLOW, printer_architecture
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig

KEY = FlowPairKey("F18", GCODE_FLOW)


@pytest.fixture(scope="module")
def fast_config():
    return GANSecConfig(cgan=CGANConfig(iterations=150), seed=0)


@pytest.fixture(scope="module")
def pipeline_run(case_dataset, fast_config):
    pipe = GANSec(printer_architecture(), fast_config)
    data = {KEY: case_dataset}
    reports = pipe.run(data)
    return pipe, reports


class TestGraphStep:
    def test_graph_generated_from_data_keys(self, case_dataset, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        res = pipe.generate_graph({KEY: case_dataset})
        assert res.graph.number_of_nodes() == 13
        trainable = {fp.names for fp in res.trainable_pairs}
        assert (GCODE_FLOW, "F18") in trainable


class TestTrainStep:
    def test_rejects_unknown_pair_dataset(self, case_dataset, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        with pytest.raises(DataError):
            pipe.train_models(
                {KEY: case_dataset},
                pairs=[FlowPairKey("F2", "F3")],
            )

    def test_rejects_pruned_pair(self, case_dataset, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        # Graph generated when only F18/F1 have data: the thermal pair
        # (F19, F20) is pruned, so a later attempt to train it must fail.
        pipe.generate_graph({KEY: case_dataset})
        with pytest.raises(ConfigurationError, match="pruned"):
            pipe.train_models({FlowPairKey("F19", "F20"): case_dataset})

    def test_split_sizes(self, pipeline_run, case_dataset):
        pipe, _ = pipeline_run
        model = pipe.models[KEY]
        assert len(model.train_set) + len(model.test_set) == len(case_dataset)
        assert model.cgan.is_trained


class TestRunEvents:
    def test_run_emits_training_then_analysis(self, case_dataset, fast_config):
        from repro.runtime.events import EventBus

        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        pipe = GANSec(printer_architecture(), fast_config)
        reports = pipe.run({KEY: case_dataset}, bus=bus)
        kinds = [e.kind for e in events]
        assert kinds[0] == "TrainingStarted"
        assert kinds[-1] == "AnalysisCompleted"
        finished = kinds.index("TrainingFinished")
        assert kinds[finished + 1] == "AnalysisStarted"
        assert "PairTrained" in kinds[:finished]
        assert "ConditionScored" in kinds[finished:]
        assert not [k for k in kinds if k.startswith("Stage")]
        assert KEY in reports


class TestAnalyzeStep:
    def test_reports_produced(self, pipeline_run):
        _pipe, reports = pipeline_run
        report = reports[KEY]
        assert report.leakage.accuracy >= 0.0
        assert "VERDICT" in report.to_text()

    def test_analyze_before_train_raises(self, fast_config):
        pipe = GANSec(printer_architecture(), fast_config)
        with pytest.raises(NotFittedError):
            pipe.analyze()

    def test_analyze_unknown_pair_raises(self, pipeline_run):
        pipe, _ = pipeline_run
        with pytest.raises(DataError):
            pipe.analyze(FlowPairKey("F14", GCODE_FLOW))

    def test_summary_text(self, pipeline_run):
        pipe, _ = pipeline_run
        text = pipe.summary()
        assert "trainable" in text
        assert "analyzed" in text
