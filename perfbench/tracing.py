"""In-memory span tracing of the ``repro`` layers, from outside the program.

The benchmark never edits ``src/``.  Instead :class:`Tracer` replaces the
public functions and methods listed in :data:`WRAPPED` with thin wrappers
that record one span per call (name, start, end, parent span, run id and
thread) plus per-call counts, and subscribes to the program's own
``EventBus`` events.  :meth:`Tracer.uninstall` puts every original back, so
one process can time the same work untraced and traced and report the
difference as the tracing overhead.

A span's *layer* is the text before the first dot of its name; a layer's
self time is the duration of its spans minus the time covered by their
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict


def _first_arg_rows(args, _kwargs, _result):
    return len(args[1])


def _result_rows(_args, _kwargs, result):
    return len(result)


def _record_bytes(_args, _kwargs, record):
    return record.size


# (module, owner, attribute, span name, count fn(args, kwargs, result) or None).
# ``owner`` is a class name in the module, or None for a module-level function.
WRAPPED = [
    ("repro.manufacturing.traces", None, "record_case_study_dataset", "manufacturing.record", None),
    ("repro.manufacturing.acoustics", "AcousticSynthesizer", "render", "manufacturing.render", None),
    ("repro.manufacturing.acoustics", "AcousticSynthesizer", "synthesize_segment", "manufacturing.synthesize_segment", None),
    ("repro.manufacturing.acoustics", "ContactMicrophone", "apply", "manufacturing.microphone",
     _first_arg_rows),
    ("repro.dsp.features", "FrequencyFeatureExtractor", "fit_transform", "dsp.extract",
     _first_arg_rows),
    ("repro.dsp.features", "FrequencyFeatureExtractor", "transform", "dsp.transform",
     _first_arg_rows),
    ("repro.dsp.filterbank", None, "get_filter_bank", "dsp.filterbank_lookup", None),
    ("repro.dsp.filterbank", "MorletFilterBank", "__init__", "dsp.filterbank_build", None),
    ("repro.graph.builder", None, "generate", "graph.generate", None),
    ("repro.gan.cgan", "ConditionalGAN", "train", "gan.train",
     lambda a, k, r: k.get("iterations", 0)),
    ("repro.gan.cgan", "ConditionalGAN", "generate", "gan.generate", _result_rows),
    ("repro.gan.serialization", None, "load_cgan", "gan.load", None),
    ("repro.gan.serialization", None, "save_cgan", "gan.save", None),
    ("repro.nn.network", "Sequential", "forward", "nn.forward", None),
    ("repro.nn.network", "Sequential", "backward", "nn.backward", None),
    ("repro.nn.optimizers", "Optimizer", "step", "nn.optimizer_step", None),
    ("repro.security.engine", None, "run_security_analysis", "security.algorithm3", None),
    ("repro.security.report", None, "build_security_report", "security.report", None),
    ("repro.security.parzen", "ParzenWindow", "fit", "security.parzen_fit", None),
    ("repro.security.parzen", "ParzenWindow", "score_batch", "security.parzen_score",
     _result_rows),
    ("repro.security.confidentiality", "SideChannelAttacker", "fit", "security.attacker", None),
    ("repro.security.confidentiality", "SideChannelAttacker", "evaluate", "security.attacker", None),
    ("repro.security.mutual_information", None, "feature_leakage_profile", "security.mi", None),
    ("repro.security.sequence", "CusumDetector", "update", "security.detector_update", None),
    ("repro.security.sequence", "EwmaDetector", "update", "security.detector_update", None),
    ("repro.artifacts.store", "ArtifactStore", "put_bytes", "artifacts.put", _record_bytes),
    ("repro.artifacts.store", "ArtifactStore", "put_file", "artifacts.put", _record_bytes),
    ("repro.artifacts.store", "ArtifactStore", "put_tree", "artifacts.put", _record_bytes),
    ("repro.artifacts.store", "ArtifactStore", "verify", "artifacts.verify", None),
    ("repro.artifacts.manifest", "RunManifest", "save", "artifacts.manifest_save", None),
    ("repro.flows.io", None, "load_dataset", "flows.load_dataset", None),
    ("repro.flows.io", None, "save_dataset", "flows.save_dataset", None),
    ("repro.pipeline.experiment", None, "run_experiment", "pipeline.run_experiment", None),
    ("repro.pipeline.rungraph", "RunGraph", "execute", "pipeline.execute", None),
    ("repro.pipeline.gansec", "GANSec", "train_models", "pipeline.train_models", None),
    ("repro.pipeline.gansec", "GANSec", "analyze", "pipeline.analyze", None),
    ("repro.runtime.training", None, "run_training_job", "runtime.training_job", None),
    ("repro.runtime.analysis", None, "run_analysis_job", "runtime.analysis_job", None),
    ("repro.streaming.replay", None, "synthetic_printer_stream", "streaming.scenario", None),
    ("repro.streaming.calibration", None, "calibrate_stream_monitor", "streaming.calibrate", None),
    ("repro.streaming.calibration", None, "offline_stream_scores", "streaming.offline", None),
    ("repro.streaming.session", "StreamSession", "run", "streaming.session", None),
    ("repro.streaming.windowing", "StreamWindower", "push", "streaming.push", None),
    ("repro.streaming.scoring", "StreamingScorer", "score_windows", "streaming.score",
     _result_rows),
]

#: Layers whose spans count as attributed work (``pipeline`` and ``bench``
#: spans are orchestration and roots, not a layer's own work).
WORK_LAYERS = (
    "manufacturing", "dsp", "graph", "gan", "nn", "security",
    "artifacts", "flows", "runtime", "streaming",
)


class Tracer:
    """Records spans and events in memory while installed."""

    def __init__(self, run_id: str = ""):
        self.spans: list = []  # (id, parent, name, start, end, thread, run)
        self.counts: dict = defaultdict(int)
        self.events: list = []  # (arrival time, kind, event)
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (the benchmark's roots)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append(
                (sid, parent, name, start, time.perf_counter(), threading.get_ident(), self.run_id)
            )

    def _wrap(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                tracer.counts[name] += count(args, kwargs, result)
            return result

        return wrapper

    # -- install / uninstall ----------------------------------------------
    def install(self) -> None:
        """Wrap every entry of :data:`WRAPPED`, including the aliases other
        ``repro`` modules bound with ``from ... import``."""
        if self._patches:
            return
        for module_name, owner_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            if owner_name:
                targets = [owner]
            else:
                targets = [
                    m for key, m in list(sys.modules.items())
                    if key.startswith("repro") and m is not None
                ]
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- events -----------------------------------------------------------
    def on_event(self, event) -> None:
        """``EventBus`` subscriber: keep every event with its arrival time."""
        self.events.append((time.perf_counter(), event.kind, event))

    # -- analysis ---------------------------------------------------------
    def totals(self) -> dict:
        """``name -> [calls, inclusive seconds]``."""
        out: dict = defaultdict(lambda: [0, 0.0])
        for _sid, _parent, name, start, end, _thread, _run in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return out

    def self_seconds(self) -> dict:
        """``layer -> self seconds`` over every recorded span."""
        child_time: dict = defaultdict(float)
        for _sid, parent, _name, start, end, _thread, _run in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict = defaultdict(float)
        for sid, _parent, name, start, end, _thread, _run in self.spans:
            layers[name.split(".", 1)[0]] += (end - start) - child_time[sid]
        return layers

    def attributed_fraction(self, root_name: str) -> float:
        """Share of the wall time of all *root_name* spans covered by their
        outermost descendant spans from :data:`WORK_LAYERS`."""
        by_id = {s[0]: s for s in self.spans}
        roots = {s[0]: s for s in self.spans if s[2] == root_name}
        if not roots:
            return 0.0
        covered = 0.0
        for sid, parent, name, start, end, _thread, _run in self.spans:
            if name.split(".", 1)[0] not in WORK_LAYERS:
                continue
            # Outermost work span: walk up through orchestration spans only.
            node = parent
            while node is not None and node not in roots:
                if by_id[node][2].split(".", 1)[0] in WORK_LAYERS:
                    break
                node = by_id[node][1]
            if node in roots:
                covered += end - start
        wall = sum(end - start for _i, _p, _n, start, end, _t, _r in roots.values())
        return covered / wall if wall > 0 else 0.0

    def write_jsonl(self, path, header: dict) -> None:
        """Spans and events as JSON lines (times in seconds, process clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "header", **header}) + "\n")
            for sid, parent, name, start, end, thread, run in self.spans:
                fh.write(json.dumps({
                    "type": "span", "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "thread": thread, "run": run,
                }) + "\n")
            for when, kind, event in self.events:
                fh.write(json.dumps({
                    "type": "event", "time": when, "kind": kind,
                    "event": event.to_dict(),
                }, default=str) + "\n")
