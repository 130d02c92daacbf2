"""The three benchmark workloads, their output checks and their numbers.

Every workload is a closed loop of checked *operations* after an untimed
set-up, driven only through the public ``repro`` API:

``experiment-cold``
    operation = ``run_experiment(ExperimentConfig(seed=s))`` into a fresh
    run directory, all defaults.  One cycle runs the reference seed,
    ``--seed`` and four seeds derived from it.
``analyze-sweep``
    operation = a rerun of ``run_experiment`` into a run directory made by
    the set-up, at one point of the Parzen grid (h x g_size); only the
    analyze and report stages may execute.  One cycle sweeps the whole grid
    in the reference seed's directory and in ``--seed``'s; the latency is
    that of one sweep.
``stream-replay``
    operation = one closed-loop, max-rate replay of the monitored trace
    through ``StreamSession`` (pass a).  One cycle is three closed-loop
    passes and one open-loop pass at 8x real time (pass b) whose per-window
    detection latency the latency metrics report.

Why a fixed reference seed: the peak memory and the record-stage time of
the printer simulation depend on how the length of each simulated trace
factors (its microphone filter is one FFT over the whole trace), which
changes from seed to seed by up to 3x.  Every workload therefore also
processes ``REF_SEED`` — the largest working set seen over seeds 0-39 —
after its ``--seed`` inputs, on the larger heap, so that the process peak
and the seed-to-seed spread stay comparable across runs, while the rest of
each run's inputs come from ``--seed``.
"""

from __future__ import annotations

import contextlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import pipeline, streaming
from repro.dsp.features import FrequencyFeatureExtractor
from repro.pipeline import ExperimentConfig, experiment_status
from repro.runtime.events import EventBus
from repro.streaming import StreamSession, inject_claim_attack

# Wrapped entry points are called through their package (``pipeline.x``,
# ``streaming.x``) so the traced run's wrappers see the calls.

REF_SEED = 15
#: Parzen widths of the analyze sweep (8 values from 0.05 to 0.5).
SWEEP_H = tuple(float(h) for h in np.linspace(0.05, 0.5, 8))
#: ``repro stream`` defaults.
WINDOW, HOP, CHUNK, BATCH_WINDOWS = 600, 300, 1024, 32
#: Open-loop replay rate of pass (b), in multiples of real time.
PACED_SPEEDUP = 8.0


@dataclass(frozen=True)
class Scale:
    """Input sizes; :data:`FULL` is the benchmark, :data:`SMOKE` the self-tests."""

    experiment: dict = field(default_factory=dict)  # ExperimentConfig overrides
    sweep_h: tuple = SWEEP_H
    sweep_g: tuple = (200, 800)
    stream_moves: int = 30
    stream_g_size: int = 128


FULL = Scale()
SMOKE = Scale(
    experiment={"n_moves_per_axis": 4, "iterations": 40},
    sweep_h=SWEEP_H[:2],
    sweep_g=(50, 100),
    stream_moves=3,
    stream_g_size=32,
)


def derived_seeds(seed: int, n: int) -> list:
    """*n* input seeds derived from the workload seed (the first is *seed*)."""
    extra = np.random.SeedSequence(seed).generate_state(n - 1) if n > 1 else []
    return [int(seed)] + [int(s) for s in extra]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


class AudioMeter:
    """Counts the seconds of audio featurized by ``fit_transform`` while installed.

    This is the input size behind ``stream.realtime_x`` on the experiment
    workloads (the recorded segments a dataset is built from); it adds one
    Python call per featurized dataset.
    """

    def __init__(self):
        self.seconds = 0.0
        self._original = None

    def __enter__(self):
        original = self._original = FrequencyFeatureExtractor.__dict__["fit_transform"]
        meter = self

        def fit_transform(extractor, segments):
            meter.seconds += sum(len(s) for s in segments) / extractor.sample_rate
            return original(extractor, segments)

        FrequencyFeatureExtractor.fit_transform = fit_transform
        return self

    def __exit__(self, *exc):
        FrequencyFeatureExtractor.fit_transform = self._original
        return False


@dataclass
class Context:
    """What a workload needs besides its seed; ``after_run`` is a test seam
    called with each run directory between the run and its checks."""

    work_dir: Path
    scale: Scale = FULL
    tracer: object = None
    after_run: object = None
    meter: AudioMeter = field(default_factory=AudioMeter)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def bus(self, sink: list) -> EventBus:
        bus = EventBus()
        bus.subscribe(sink.append)
        if self.tracer is not None:
            bus.subscribe(self.tracer.on_event)
        return bus

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="run-", dir=self.work_dir))

    def count(self, ok: bool, what: str, n: int = 1, bad: int | None = None) -> None:
        self.attempted += n
        bad = (0 if ok else n) if bad is None else bad
        self.failed += bad
        if bad:
            self.notes.append(what)

    @contextlib.contextmanager
    def traced(self, tracer):
        """Install *tracer* for the ``with`` body."""
        self.tracer = tracer
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracer = None

    def root(self, name: str):
        """A root span around one operation when tracing, else a no-op."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)


@dataclass
class Loop:
    """Per-operation numbers of one timed loop."""

    walls: list = field(default_factory=list)  # seconds per operation
    audio: list = field(default_factory=list)  # audio seconds per operation
    latencies_ms: list = field(default_factory=list)
    closed: list = field(default_factory=list)  # stream pass (a): (metrics, source)
    paced: list = field(default_factory=list)  # stream pass (b): (metrics, source, arrival, batches)

    def metrics(self) -> dict:
        return {
            "experiment.wall_s": statistics.fmean(self.walls),
            "sweep.reruns_per_s": len(self.walls) / sum(self.walls),
            "stream.realtime_x": sum(self.audio) / sum(self.walls),
            "stream.latency_p50_ms": percentile(self.latencies_ms, 50),
            "stream.latency_p99_ms": percentile(self.latencies_ms, 99),
        }


def _stage_events(events) -> tuple:
    executed = [e.stage for e in events if e.kind == "StageCompleted"]
    skipped = [e.stage for e in events if e.kind == "StageSkipped"]
    return executed, skipped


def run_loop(cycle, seconds: float | None, cycles: int | None, loop: Loop) -> Loop:
    """Run whole cycles until *cycles* ran, or until *seconds* elapsed."""
    start = time.perf_counter()
    done = 0
    while True:
        cycle(loop)
        done += 1
        if cycles is not None and done >= cycles:
            return loop
        if cycles is None and time.perf_counter() - start >= seconds:
            return loop


# -- experiment-cold ----------------------------------------------------------
class ExperimentCold:
    """Cold experiments into fresh run directories (closed loop, one analyst)."""

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        # The reference seed runs last, on the largest heap, so that its
        # peak (the largest record working set) sets the process peak.
        self.seeds = derived_seeds(seed, 5) + [REF_SEED]
        self.reference: dict = {}  # seed -> summary.json bytes of its first run

    def _one(self, seed: int) -> tuple:
        ctx = self.ctx
        out_dir = ctx.fresh_dir()
        events: list = []
        config = ExperimentConfig(seed=seed, **ctx.scale.experiment)
        audio0 = ctx.meter.seconds
        with ctx.root("bench.op"):
            start = time.perf_counter()
            pipeline.run_experiment(config, out_dir, bus=ctx.bus(events))
            wall = time.perf_counter() - start
        audio = ctx.meter.seconds - audio0
        if ctx.after_run is not None:
            ctx.after_run(out_dir)
        executed, skipped = _stage_events(events)
        rows = experiment_status(out_dir)
        summary = (out_dir / "summary.json").read_bytes()
        first = self.reference.setdefault(seed, summary)
        ok = (
            len(executed) == 5
            and not skipped
            and len(rows) == 5
            and all(r["verified"] for r in rows)
            and summary == first
        )
        ctx.count(ok, f"experiment seed={seed}: executed={executed} "
                      f"skipped={skipped} verified={[r['verified'] for r in rows]} "
                      f"summary_match={summary == first}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, audio

    def setup(self) -> list:
        """The reference experiment, untimed: warms in-process caches."""
        start = time.perf_counter()
        self._one(REF_SEED)
        return [time.perf_counter() - start]

    def cycle(self, loop: Loop) -> None:
        for seed in self.seeds:
            wall, audio = self._one(seed)
            loop.walls.append(wall)
            loop.audio.append(audio)
            loop.latencies_ms.append(wall * 1e3)


# -- analyze-sweep ------------------------------------------------------------
class AnalyzeSweep:
    """Reruns over a Parzen grid into existing run directories (closed loop)."""

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.seeds = (seed, REF_SEED)  # reference last, as in ExperimentCold
        self.grid = [(h, g) for h in ctx.scale.sweep_h for g in ctx.scale.sweep_g]
        self.reference: dict = {}  # (seed, h, g) -> summary.json bytes
        self.run_dirs: dict = {}  # seed -> run directory
        self.audio: dict = {}  # seed -> featurized audio seconds of its dataset

    def _cold(self, seed: int) -> float:
        ctx = self.ctx
        out_dir = self.run_dirs[seed] = ctx.fresh_dir()
        events: list = []
        audio0 = ctx.meter.seconds
        start = time.perf_counter()
        pipeline.run_experiment(
            ExperimentConfig(seed=seed, **ctx.scale.experiment), out_dir,
            bus=ctx.bus(events),
        )
        wall = time.perf_counter() - start
        self.audio[seed] = ctx.meter.seconds - audio0
        executed, _ = _stage_events(events)
        rows = experiment_status(out_dir)
        ctx.count(
            len(executed) == 5 and all(r["verified"] for r in rows),
            f"sweep set-up seed={seed}: executed={executed}",
        )
        return wall

    def setup(self) -> list:
        """Cold experiments for ``--seed`` and the reference seed (the
        returned set-up times), then one untimed warm-up sweep into each
        run directory: the first reruns after a cold run are up to 2x slower."""
        walls = [self._cold(seed) for seed in self.seeds]
        for seed in self.seeds:
            self._sweep(seed)
        return walls

    def _rerun(self, seed: int, h: float, g: int) -> float:
        ctx = self.ctx
        run_dir = self.run_dirs[seed]
        events: list = []
        config = ExperimentConfig(seed=seed, h=h, g_size=g, **ctx.scale.experiment)
        with ctx.root("bench.op"):
            start = time.perf_counter()
            pipeline.run_experiment(config, run_dir, bus=ctx.bus(events))
            wall = time.perf_counter() - start
        if ctx.after_run is not None:
            ctx.after_run(run_dir)
        executed, skipped = _stage_events(events)
        summary = (run_dir / "summary.json").read_bytes()
        first = self.reference.setdefault((seed, h, g), summary)
        ok = (
            sorted(s.split("[", 1)[0] for s in executed) == ["analyze", "report"]
            and sorted(s.split("[", 1)[0] for s in skipped) == ["graph", "record", "train"]
            and summary == first
        )
        ctx.count(ok, f"rerun seed={seed} h={h:.4f} g={g}: executed={executed} "
                      f"skipped={skipped} summary_match={summary == first}")
        return wall

    def _sweep(self, seed: int) -> list:
        return [self._rerun(seed, h, g) for h, g in self.grid]

    def cycle(self, loop: Loop) -> None:
        """One sweep of the grid per run directory."""
        for seed in self.seeds:
            walls = self._sweep(seed)
            loop.walls.extend(walls)
            loop.audio.extend([self.audio[seed]] * len(walls))
            loop.latencies_ms.append(sum(walls) * 1e3)


# -- stream-replay ------------------------------------------------------------
class PacedSource:
    """Chunk source for :class:`StreamSession` that stamps each chunk's due time.

    With *rate* (samples per second) the schedule is open loop: chunk *k* is
    due at ``start + end_k / rate`` and a late chunk is sent at once, never
    re-basing the schedule, so a stall shows as latency of later windows.
    Without *rate* chunks are due when produced (closed loop, max rate).
    ``blocked`` is the time the producer spent handing chunks to the session
    (inside the bounded queue's ``put``).
    """

    def __init__(self, samples: np.ndarray, chunk: int, rate: float | None = None):
        self.samples = samples
        self.chunk = chunk
        self.rate = rate
        self.due: list = []
        self.lag: list = []
        self.blocked = 0.0

    def __iter__(self):
        start = time.perf_counter()
        for lo in range(0, len(self.samples), self.chunk):
            hi = min(lo + self.chunk, len(self.samples))
            if self.rate:
                due = start + hi / self.rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.lag.append(time.perf_counter() - due)
            else:
                due = time.perf_counter()
            self.due.append(due)
            handed = time.perf_counter()
            yield self.samples[lo:hi]
            self.blocked += time.perf_counter() - handed


class StreamReplay:
    """Detector calibration, then closed-loop and open-loop trace replays."""

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.seed = seed

    def _build(self, seed: int) -> dict:
        scale = self.ctx.scale
        scenario = streaming.synthetic_printer_stream(n_moves_per_axis=scale.stream_moves, seed=seed)
        attacked = inject_claim_attack(scenario, n_spans=2, seed=seed)
        calibration = streaming.calibrate_stream_monitor(
            scenario.samples,
            scenario.sample_rate,
            scenario.claims,
            window_size=WINDOW,
            hop_size=HOP,
            g_size=scale.stream_g_size,
            root_entropy=seed,
        )
        return {"scenario": attacked, "calibration": calibration}

    def setup(self) -> list:
        """Scenario + calibration for ``--seed``, then for the reference
        seed (last, as in ExperimentCold); the stream replays ``--seed``'s."""
        walls = []
        for seed in (self.seed, REF_SEED):
            start = time.perf_counter()
            built = self._build(seed)
            walls.append(time.perf_counter() - start)
            if seed == self.seed:
                self.scenario = built["scenario"]
                self.calibration = built["calibration"]
        del built
        scores, _starts, alarms = streaming.offline_stream_scores(
            self.scenario.samples, self.scenario.claims, self.calibration,
            window_size=WINDOW, hop_size=HOP,
        )
        self.ref_scores = np.asarray(scores, dtype=np.float64)
        self.ref_alarms = list(alarms)
        self.duration = len(self.scenario.samples) / self.scenario.sample_rate
        return walls

    def _pass(self, rate: float | None) -> tuple:
        """One replay; returns ``(metrics, source, arrival per window, batches)``."""
        ctx = self.ctx
        events: list = []
        arrival: dict = {}
        batches: list = []

        def on_scored(event):
            if event.kind == "WindowBatchScored":
                now = time.perf_counter()
                batches.append(event)
                for i in range(event.first_window, event.first_window + event.n_windows):
                    arrival[i] = now

        bus = ctx.bus(events)
        bus.subscribe(on_scored)
        source = PacedSource(self.scenario.samples, CHUNK, rate)
        session = StreamSession(
            source,
            extractor=self.calibration.extractor,
            scorer=self.calibration.scorer,
            claims=self.scenario.claims,
            detector=self.calibration.make_detector(),
            window_size=WINDOW,
            hop_size=HOP,
            sample_rate=self.scenario.sample_rate,
            batch_windows=BATCH_WINDOWS,
            policy="block",
            bus=bus,
            name="bench",
        )
        with ctx.root("bench.op" if rate is None else "bench.paced"):
            metrics = session.run()
        self._check(metrics, "closed" if rate is None else "paced")
        return metrics, source, arrival, batches

    def _check(self, metrics, label: str) -> None:
        """Every window must be scored, and bitwise equal to the offline oracle."""
        ref = self.ref_scores
        got = np.asarray(metrics.scores, dtype=np.float64)
        if len(got) == len(ref):
            mismatched = int(np.count_nonzero(got.view(np.uint64) != ref.view(np.uint64)))
        else:
            mismatched = len(ref)
        alarm_diff = len(set(metrics.alarms) ^ set(self.ref_alarms))
        bad = min(
            len(ref),
            mismatched + alarm_diff + metrics.windows_dropped + metrics.windows_failed
            + (len(ref) if metrics.error else 0),
        )
        self.ctx.count(
            bad == 0,
            f"{label} pass: mismatched={mismatched} alarm_diff={alarm_diff} "
            f"dropped={metrics.windows_dropped} failed={metrics.windows_failed} "
            f"error={bool(metrics.error)}",
            n=len(ref),
            bad=bad,
        )

    def window_due(self, source: PacedSource, index: int) -> float:
        """Due time of the chunk carrying window *index*'s last sample."""
        return source.due[(index * HOP + WINDOW - 1) // CHUNK]

    def cycle(self, loop: Loop) -> None:
        """Three closed-loop passes, then one open-loop pass."""
        for _ in range(3):
            metrics, source, _arrival, _batches = self._pass(None)
            loop.walls.append(metrics.wall_seconds)
            loop.audio.append(self.duration)
            loop.closed.append((metrics, source))
        rate = PACED_SPEEDUP * self.scenario.sample_rate
        metrics, source, arrival, batches = self._pass(rate)
        loop.latencies_ms.extend(
            (t - self.window_due(source, i)) * 1e3 for i, t in sorted(arrival.items())
        )
        loop.paced.append((metrics, source, arrival, batches))


WORKLOADS = {
    "experiment-cold": ExperimentCold,
    "analyze-sweep": AnalyzeSweep,
    "stream-replay": StreamReplay,
}
