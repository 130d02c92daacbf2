"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload experiment-cold --seed 1 --seconds 20 --trace 0

Workloads: ``experiment-cold``, ``analyze-sweep``, ``stream-replay`` (see
``workloads.py`` and ``README.md``).  With ``--trace 0`` the last line holds
the end-to-end metrics, measured untraced.  With ``--trace 1`` the workload's
fixed work runs once untraced and once traced, the last line holds the
per-layer metrics, and the spans are written as JSON lines to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl``.

The program runs from ``src/``; nothing is installed.  BLAS is pinned to
one thread before numpy loads, and every executor is serial, so the only
threads are a stream session's producer and consumer.
"""

from __future__ import annotations

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import WORK_LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    WORKLOADS,
    Context,
    Loop,
    run_loop,
    peak_rss_mb,
    percentile,
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "experiment.wall_s": "s",
    "sweep.reruns_per_s": "1/s",
    "stream.realtime_x": "x",
    "stream.latency_p50_ms": "ms",
    "stream.latency_p99_ms": "ms",
}


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(args) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _end_to_end(setup_walls: list, loop: Loop) -> dict:
    metrics = loop.metrics()
    metrics["setup_s"] = statistics.median(setup_walls)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def _stage_seconds(tracer: Tracer) -> dict:
    out = {f"pipeline.stage_s.{s}": 0.0 for s in ("record", "graph", "train", "analyze", "report")}
    for _when, kind, event in tracer.events:
        if kind == "StageCompleted":
            out[f"pipeline.stage_s.{event.stage.split('[', 1)[0]}"] += event.seconds
    return out


def _stream_layer(loop: Loop, workload) -> dict:
    sessions = [m for m, _s in loop.closed] + [p[0] for p in loop.paced]
    waits, services, lags = [], [], []
    for _metrics, source, arrival, batches in loop.paced:
        lags.extend(lag * 1e3 for lag in source.lag)
        services.extend(b.seconds * 1e3 for b in batches)
        for batch in batches:
            first = batch.first_window
            start = arrival[first] - batch.seconds  # batch featurization began
            waits.extend(
                (start - workload.window_due(source, i)) * 1e3
                for i in range(first, first + batch.n_windows)
            )
    return {
        "streaming.batches": sum(m.batches for m in sessions),
        "streaming.windows_scored": sum(m.windows_scored for m in sessions),
        "streaming.windows_dropped": sum(m.windows_dropped for m in sessions),
        "streaming.windows_failed": sum(m.windows_failed for m in sessions),
        "streaming.window_wait_p50_ms": percentile(waits, 50),
        "streaming.batch_service_p50_ms": percentile(services, 50),
        "streaming.producer_blocked_s": sum(s.blocked for _m, s in loop.closed),
        "loadgen.lag_p99_ms": percentile(lags, 99),
    }


#: Per-layer metric -> (span name, field): "s" inclusive seconds, "calls",
#: or "count" (the span's per-call count, see ``tracing.WRAPPED``).
SPAN_METRICS = {
    "manufacturing.render_s": ("manufacturing.render", "s"),
    "manufacturing.synthesize_segment_s": ("manufacturing.synthesize_segment", "s"),
    "manufacturing.synthesize_segment.calls": ("manufacturing.synthesize_segment", "calls"),
    "manufacturing.microphone_s": ("manufacturing.microphone", "s"),
    "manufacturing.microphone_samples": ("manufacturing.microphone", "count"),
    "dsp.extract_s": ("dsp.extract", "s"),
    "dsp.segments": ("dsp.extract", "count"),
    "dsp.transform_s": ("dsp.transform", "s"),
    "dsp.windows": ("dsp.transform", "count"),
    "dsp.filterbank_lookups": ("dsp.filterbank_lookup", "calls"),
    "dsp.filterbank_builds": ("dsp.filterbank_build", "calls"),
    "graph.generate_s": ("graph.generate", "s"),
    "gan.train_s": ("gan.train", "s"),
    "gan.iterations": ("gan.train", "count"),
    "gan.generate_s": ("gan.generate", "s"),
    "gan.generate_rows": ("gan.generate", "count"),
    "gan.load_s": ("gan.load", "s"),
    "nn.forward_s": ("nn.forward", "s"),
    "nn.forward.calls": ("nn.forward", "calls"),
    "nn.backward_s": ("nn.backward", "s"),
    "nn.backward.calls": ("nn.backward", "calls"),
    "nn.optimizer_step_s": ("nn.optimizer_step", "s"),
    "nn.optimizer_step.calls": ("nn.optimizer_step", "calls"),
    "security.algorithm3_s": ("security.algorithm3", "s"),
    "security.parzen_fit_s": ("security.parzen_fit", "s"),
    "security.parzen_fit.calls": ("security.parzen_fit", "calls"),
    "security.parzen_score_s": ("security.parzen_score", "s"),
    "security.parzen_score.calls": ("security.parzen_score", "calls"),
    "security.parzen_score.rows": ("security.parzen_score", "count"),
    "security.attacker_s": ("security.attacker", "s"),
    "security.mi_s": ("security.mi", "s"),
    "security.detector_update_s": ("security.detector_update", "s"),
    "security.detector_update.calls": ("security.detector_update", "calls"),
    "artifacts.put_s": ("artifacts.put", "s"),
    "artifacts.put.calls": ("artifacts.put", "calls"),
    "artifacts.put.bytes": ("artifacts.put", "count"),
    "artifacts.verify_s": ("artifacts.verify", "s"),
    "artifacts.verify.calls": ("artifacts.verify", "calls"),
    "flows.load_dataset_s": ("flows.load_dataset", "s"),
    "streaming.push_s": ("streaming.push", "s"),
    "streaming.push.calls": ("streaming.push", "calls"),
    "streaming.score_s": ("streaming.score", "s"),
    "streaming.calibrate_s": ("streaming.calibrate", "s"),
}


def _per_layer(tracer: Tracer, workload, base: Loop, traced: Loop) -> dict:
    totals = tracer.totals()
    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        calls, seconds = totals.get(span, (0, 0.0))
        out[metric] = {"s": seconds, "calls": calls, "count": tracer.counts.get(span, 0)}[field]
    out.update(_stage_seconds(tracer))
    out["pipeline.stages_executed"] = sum(k == "StageCompleted" for _t, k, _e in tracer.events)
    out["pipeline.stages_skipped"] = sum(k == "StageSkipped" for _t, k, _e in tracer.events)
    out["runtime.events"] = len(tracer.events)
    out.update(_stream_layer(traced, workload))
    self_time = tracer.self_seconds()
    for layer in WORK_LAYERS + ("pipeline",):
        out[f"self_s.{layer}"] = self_time.get(layer, 0.0)
    out["trace.attributed_frac"] = tracer.attributed_fraction("bench.op")
    out["trace.overhead_pct"] = 100.0 * (sum(traced.walls) - sum(base.walls)) / sum(base.walls)
    out["trace.spans"] = len(tracer.spans)
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.startswith(("self_s.", "pipeline.stage_s.")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def measure(
    workload_name: str, seed: int, seconds: float, trace: bool, ctx: Context, header: dict
) -> dict:
    """Set up and time one workload; returns the ``metrics`` object."""
    workload = WORKLOADS[workload_name](ctx, seed)
    with ctx.meter:
        if not trace:
            setup_walls = workload.setup()
            return _end_to_end(setup_walls, run_loop(workload.cycle, seconds, None, Loop()))

        tracer = Tracer(f"{workload_name}:{seed}:{os.getpid()}")
        with ctx.traced(tracer):
            workload.setup()
        base = run_loop(workload.cycle, None, 1, Loop())
        with ctx.traced(tracer):
            traced = run_loop(workload.cycle, None, 1, Loop())
    tracer.write_jsonl(OUT / f"trace-{workload_name}-seed{seed}.jsonl", header)
    values = _per_layer(tracer, workload, base, traced)
    return {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"runs-{os.getpid()}"
    work_dir.mkdir()
    ctx = Context(work_dir=work_dir, scale=FULL)
    header = {"provenance": provenance(args)}
    try:
        metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace), ctx, header)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for note in ctx.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps(header))
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
