"""Golden regression fixture for the train stage (Algorithm 2).

``fixture.json`` pins a seed-pinned CGAN training run at the real
experiment shape — 100 features, 3 conditions, batch 32, generator
64-64, discriminator 64-32, noise 16, built by
:func:`~repro.runtime.training.build_pair_cgan` from the default
:class:`~repro.pipeline.config.CGANConfig` — plus one
:class:`~repro.gan.wgan.WassersteinConditionalGAN` run.  For each run it
records the SHA-256 of the final weights, of ``history.csv`` and of
both optimizer-state files, so any bitwise drift in the training
trajectory, the loss bookkeeping or the on-disk optimizer format fails
loudly.

``checkpoint/`` holds the checkpoint the CGAN run writes halfway.  A
fresh run must write it byte for byte, and resuming from the committed
copy must reach the same final digests as the uninterrupted run — so
checkpoints written by earlier code keep loading and resuming bitwise.

Regenerate (only after an intentional numerical change) with::

    PYTHONPATH=src python -m tests.gan.golden --regen
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.flows.dataset import FlowPairDataset
from repro.gan.serialization import (
    _CKPT_FILES,
    restore_training_checkpoint,
    save_training_checkpoint,
)
from repro.gan.wgan import WassersteinConditionalGAN
from repro.nn.serialization import save_optimizer_state
from repro.pipeline.config import CGANConfig
from repro.runtime.training import build_pair_cgan

GOLDEN_DIR = Path(__file__).parent
FIXTURE_PATH = GOLDEN_DIR / "fixture.json"
CHECKPOINT_DIR = GOLDEN_DIR / "checkpoint"

#: Everything that pins the runs.  Changing any of these requires
#: regenerating the fixture.
GOLDEN_SEED = 20190325
FEATURE_DIM = 100
CONDITION_DIM = 3
N_ROWS = 150
ITERATIONS = 300
CHECKPOINT_AT = 150
WGAN_ITERATIONS = 200


def golden_dataset() -> FlowPairDataset:
    rng = np.random.default_rng(GOLDEN_SEED)
    features = rng.uniform(size=(N_ROWS, FEATURE_DIM))
    conditions = np.tile(np.eye(CONDITION_DIM), (N_ROWS // CONDITION_DIM, 1))
    return FlowPairDataset(features, conditions)


def build_cgan():
    """The experiment-shaped CGAN the golden run trains."""
    return build_pair_cgan(CGANConfig(), FEATURE_DIM, CONDITION_DIM, GOLDEN_SEED)


def _train(cgan, iterations, **kwargs):
    cfg = CGANConfig()
    cgan.train(
        golden_dataset(),
        iterations=iterations,
        batch_size=cfg.batch_size,
        k_disc=cfg.k_disc,
        label_smoothing=cfg.label_smoothing,
        **kwargs,
    )
    return cgan


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_model(cgan) -> dict:
    """Per-component SHA-256 digests of a trained model's final state."""
    h = hashlib.sha256()
    for net in (cgan.generator, cgan.discriminator):
        weights = net.get_weights()
        for key in sorted(weights):
            h.update(key.encode())
            h.update(weights[key].tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cgan.history.to_csv(tmp / "history.csv")
        save_optimizer_state(cgan._g_opt, cgan.generator, tmp / "opt_generator.npz")
        save_optimizer_state(
            cgan._d_opt, cgan.discriminator, tmp / "opt_discriminator.npz"
        )
        return {
            "weights": h.hexdigest(),
            "history": _sha256(tmp / "history.csv"),
            "opt_generator": _sha256(tmp / "opt_generator.npz"),
            "opt_discriminator": _sha256(tmp / "opt_discriminator.npz"),
        }


def run_uninterrupted(checkpoint_dir: Path):
    """Train the CGAN in one call, checkpointing halfway into *checkpoint_dir*."""
    cgan = build_cgan()

    def on_checkpoint(state):
        save_training_checkpoint(cgan, state, checkpoint_dir)

    return _train(
        cgan,
        ITERATIONS,
        checkpoint_every=CHECKPOINT_AT,
        on_checkpoint=on_checkpoint,
    )


def run_resumed(checkpoint_dir: Path):
    """Restore a fresh CGAN from *checkpoint_dir* and finish the run."""
    cgan = build_cgan()
    state = restore_training_checkpoint(cgan, checkpoint_dir)
    return _train(cgan, ITERATIONS, resume=state)


def run_wgan():
    cgan = WassersteinConditionalGAN(
        FEATURE_DIM, CONDITION_DIM, noise_dim=16, seed=GOLDEN_SEED
    )
    return _train(cgan, WGAN_ITERATIONS)


def checkpoint_digests(directory: Path) -> dict:
    return {name: _sha256(directory / name) for name in _CKPT_FILES}


def compute_golden(checkpoint_dir: Path) -> dict:
    """Fresh digests; the halfway checkpoint is written to *checkpoint_dir*."""
    cgan = run_uninterrupted(checkpoint_dir)
    return {
        "seed": GOLDEN_SEED,
        "iterations": ITERATIONS,
        "checkpoint_at": CHECKPOINT_AT,
        "wgan_iterations": WGAN_ITERATIONS,
        "cgan": digest_model(cgan),
        "checkpoint": checkpoint_digests(checkpoint_dir),
        "wgan": digest_model(run_wgan()),
    }


def load_fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def write_fixture() -> Path:
    if CHECKPOINT_DIR.exists():
        shutil.rmtree(CHECKPOINT_DIR)
    data = compute_golden(CHECKPOINT_DIR)
    FIXTURE_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return FIXTURE_PATH


def compare(fresh: dict, pinned: dict) -> list:
    """Mismatch descriptions between fresh digests and the fixture."""
    failures = []
    for key in sorted(pinned):
        if fresh.get(key) != pinned[key]:
            failures.append(f"{key}: {fresh.get(key)} != {pinned[key]}")
    return failures


def check() -> list:
    """All mismatches: fresh run, its checkpoint, and the resumed run."""
    pinned = load_fixture()
    with tempfile.TemporaryDirectory() as tmp:
        failures = compare(compute_golden(Path(tmp)), pinned)
    resumed = digest_model(run_resumed(CHECKPOINT_DIR))
    failures += [f"resumed {line}" for line in compare(resumed, pinned["cgan"])]
    return failures
