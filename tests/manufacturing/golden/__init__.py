"""Golden regression fixture for the record stage.

``fixture.json`` pins the output of one seed-pinned
:func:`~repro.manufacturing.traces.record_case_study_dataset` call: the
scaled CWT features, the exact condition rows, the segment count and
each printed run's audio length.  Acoustic synthesis, the microphone
filter and feature extraction all feed it, so a change anywhere in the
record stage that moves a downstream number fails loudly here first.

Regenerate (only after an intentional numerical change) with::

    PYTHONPATH=src python -m tests.manufacturing.golden --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.manufacturing.traces import record_case_study_dataset

FIXTURE_PATH = Path(__file__).parent / "fixture.json"

#: Everything that pins the recording.  Changing any of these requires
#: regenerating the fixture.
GOLDEN_SEED = 20190325
GOLDEN_MOVES = 4


def compute_golden() -> dict:
    """Record the pinned calibration suite and summarize its output."""
    dataset, _extractor, _encoder, runs = record_case_study_dataset(
        n_moves_per_axis=GOLDEN_MOVES, seed=GOLDEN_SEED
    )
    return {
        "seed": GOLDEN_SEED,
        "moves": GOLDEN_MOVES,
        "n_segments": int(len(dataset)),
        "audio_lengths": [int(len(run.audio.samples)) for run in runs],
        "conditions": dataset.conditions.tolist(),
        "features": dataset.features.tolist(),
    }


def load_fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def write_fixture() -> Path:
    data = compute_golden()
    FIXTURE_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return FIXTURE_PATH


def compare(fresh: dict, pinned: dict) -> list:
    """Mismatch descriptions between a fresh recording and the fixture."""
    failures = []
    for key in ("seed", "moves", "n_segments", "audio_lengths", "conditions"):
        if fresh[key] != pinned[key]:
            failures.append(f"{key}: {fresh[key]} != {pinned[key]}")
    got = np.asarray(fresh["features"])
    want = np.asarray(pinned["features"])
    if got.shape != want.shape:
        failures.append(f"features: shape {got.shape}, expected {want.shape}")
    elif not np.allclose(got, want, rtol=1e-9, atol=1e-12):
        failures.append(f"features: max abs diff {np.abs(got - want).max():g}")
    return failures
