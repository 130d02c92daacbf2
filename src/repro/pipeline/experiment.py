"""Declarative experiment runner: a resumable, staged run graph.

One call reproduces the whole case study and leaves a self-contained
artifact directory behind — the dataset, the trained model, the loss
history, the G_CPPS graph, and the security report — so results can be
inspected, diffed, and re-analyzed without rerunning anything:

::

    experiment/
      config.json          # the exact configuration that ran
      manifest.json        # per-stage fingerprints, digests, timings
      dataset.npz          # recorded (features | conditions)    [record]
      graph.dot            # G_CPPS (Graphviz)                   [graph]
      model/               # trained CGAN                        [train]
      history.csv          # Algorithm 2 loss traces             [train]
      report.txt           # Algorithm 3 + attacker + MI report  [analyze]
      analysis.json        # headline analysis numbers           [analyze]
      summary.json         # machine-readable summary            [report]
      checkpoints/         # transient mid-training checkpoints

The pipeline runs as an explicit :class:`~repro.pipeline.rungraph.RunGraph`
of fingerprinted stages over a content-addressed
:class:`~repro.artifacts.store.ArtifactStore`.  Re-running into the same
directory skips every stage whose configuration and upstream artifacts
are unchanged (warm resume); an interrupted training run continues from
its latest periodic checkpoint, bitwise-identical to a run that was
never interrupted.  Pass ``resume=False`` to force a fresh run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.artifacts.manifest import RunManifest
from repro.artifacts.store import ArtifactStore
from repro.errors import ConfigurationError
from repro.manufacturing.architecture import (
    GCODE_FLOW,
    monitored_flow_names,
    printer_architecture,
)
from repro.pipeline.config import AnalysisConfig, CGANConfig
from repro.pipeline.gansec import GANSec, GANSecConfig
from repro.pipeline.pairs import FlowPairKey
from repro.pipeline.rungraph import RunGraph
from repro.pipeline.stages import ExperimentRunContext, build_experiment_stages
from repro.utils.atomic import atomic_write_text


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one case-study experiment."""

    name: str = "case-study"
    seed: int = 0
    n_moves_per_axis: int = 30
    sample_rate: float = 12000.0
    n_bins: int = 100
    emission_flow: str = "F18"
    iterations: int = 2000
    batch_size: int = 32
    k_disc: int = 1
    h: float = 0.2
    g_size: int = 200
    test_fraction: float = 0.25
    workers: int = 1
    analysis_workers: int = 1
    chunk_size: int | None = None
    trace: bool = False
    #: Optional directory for the on-disk raw-feature cache; repeated
    #: experiments over identical recorded audio skip CWT extraction.
    feature_cache: str | None = None
    #: Cadence (in Algorithm 2 iterations) of crash-recovery training
    #: checkpoints; 0 disables them.  Like the other scheduling knobs,
    #: this never affects results — only how much work an interrupted
    #: run can skip when resumed.
    checkpoint_every: int = 500

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.analysis_workers < 1:
            raise ConfigurationError(
                f"analysis_workers must be >= 1, got {self.analysis_workers}"
            )
        if self.checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.emission_flow not in monitored_flow_names():
            raise ConfigurationError(
                f"emission_flow must be one of {monitored_flow_names()[1:]}, "
                f"got {self.emission_flow!r}"
            )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load a config written as JSON (e.g. a run's ``config.json``).

        Unknown keys are rejected by name instead of exploding inside
        the dataclass constructor, so a typo'd or newer-format config
        fails with an actionable message.
        """
        path = Path(path)
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"experiment config {path} must hold a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown experiment config key(s) in {path}: "
                + ", ".join(unknown)
            )
        return cls(**data)


@dataclass
class ExperimentResult:
    """Handle to a finished experiment's artifacts and headline numbers."""

    directory: Path
    config: ExperimentConfig
    summary: dict = field(default_factory=dict)

    def report_text(self) -> str:
        return (self.directory / "report.txt").read_text()


def _build_pipeline(config: ExperimentConfig) -> GANSec:
    return GANSec(
        printer_architecture(),
        GANSecConfig(
            cgan=CGANConfig(
                iterations=config.iterations,
                batch_size=config.batch_size,
                k_disc=config.k_disc,
            ),
            analysis=AnalysisConfig(
                h=config.h,
                g_size=config.g_size,
                test_fraction=config.test_fraction,
                chunk_size=config.chunk_size,
            ),
            seed=config.seed,
            workers=config.workers,
            analysis_workers=config.analysis_workers,
        ),
    )


def run_experiment(
    config: ExperimentConfig, out_dir, *, bus=None, resume: bool = True
) -> ExperimentResult:
    """Execute the experiment described by *config* into *out_dir*.

    The run is a staged graph (record → graph → train → analyze →
    report) over an artifact store: with *resume* (the default), stages
    whose fingerprints match the run directory's manifest — same config
    slice, same upstream artifacts, outputs verified on disk — are
    skipped, and an interrupted training run continues from its latest
    checkpoint.  ``resume=False`` re-runs everything.  Either way the
    artifacts are byte-for-byte what a single uninterrupted run
    produces.

    *bus* is an optional :class:`~repro.runtime.events.EventBus` for
    live instrumentation (training, analysis, and stage lifecycle
    events); when ``config.trace`` is set the events are additionally
    written to ``<out_dir>/trace.jsonl``.
    """
    from repro.runtime.events import EventBus
    from repro.runtime.reporters import JsonlTraceWriter

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        out_dir / "config.json", json.dumps(asdict(config), indent=2)
    )

    if bus is None:
        bus = EventBus()
    trace_writer = None
    if config.trace:
        trace_writer = JsonlTraceWriter(out_dir / "trace.jsonl", atomic=True)
        bus.subscribe(trace_writer.handle)

    store = ArtifactStore(out_dir)
    manifest = RunManifest.load(out_dir)
    pair = FlowPairKey(config.emission_flow, GCODE_FLOW)
    pipeline = _build_pipeline(config)
    stages, group_runners, pair_for_stage = build_experiment_stages(
        config, pipeline, pair
    )
    context = ExperimentRunContext(
        config=config,
        store=store,
        manifest=manifest,
        pipeline=pipeline,
        pair=pair,
        bus=bus,
        pair_for_stage=pair_for_stage,
    )
    graph = RunGraph(
        stages,
        store,
        manifest,
        bus=bus,
        resume=resume,
        group_runners=group_runners,
    )
    try:
        graph.execute(context)
    finally:
        if trace_writer is not None:
            bus.unsubscribe(trace_writer.handle)
            trace_writer.close()

    summary = context.values.get("summary")
    if summary is None:  # the report stage was skipped: reuse its artifact
        summary = store.read_json("summary.json")
    return ExperimentResult(directory=out_dir, config=config, summary=summary)


def experiment_status(out_dir) -> list:
    """Per-stage status of a run directory, for ``experiment status``.

    Returns one dict per manifest record: stage name, short
    fingerprint, recorded duration, output paths, and whether every
    output still verifies against its digest on disk.
    """
    out_dir = Path(out_dir)
    store = ArtifactStore(out_dir)
    manifest = RunManifest.load(out_dir)
    rows = []
    for name in manifest.names():
        record = manifest.get(name)
        rows.append(
            {
                "stage": name,
                "fingerprint": record.fingerprint[:12],
                "seconds": record.seconds,
                "outputs": sorted(rec.path for rec in record.outputs.values()),
                "verified": all(
                    store.verify(rec) for rec in record.outputs.values()
                ),
            }
        )
    return rows


def invalidate_stage(out_dir, stage: str) -> bool:
    """Drop *stage*'s manifest record so the next resume re-runs it
    (and, through the fingerprint cascade, everything downstream).
    Returns whether a record existed."""
    manifest = RunManifest.load(Path(out_dir))
    removed = manifest.remove(stage)
    if removed:
        manifest.save()
    return removed
