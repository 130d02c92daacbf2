"""Golden regression: Algorithm 2 training must reproduce the fixture.

The fixture pins an experiment-shaped CGAN run (final weights,
``history.csv`` and both optimizer-state files), the checkpoint it
writes halfway, the same run resumed from the committed checkpoint, and
one Wasserstein CGAN run.  Intentional numerical changes regenerate it
with ``PYTHONPATH=src python -m tests.gan.golden --regen``.
"""

from tests.gan.golden import (
    CHECKPOINT_DIR,
    FIXTURE_PATH,
    checkpoint_digests,
    digest_model,
    load_fixture,
    run_resumed,
    run_uninterrupted,
    run_wgan,
)


def _pinned():
    assert FIXTURE_PATH.exists(), (
        "missing train golden fixture; run "
        "PYTHONPATH=src python -m tests.gan.golden --regen"
    )
    return load_fixture()


def test_uninterrupted_run_matches_fixture(tmp_path):
    pinned = _pinned()
    cgan = run_uninterrupted(tmp_path)
    assert digest_model(cgan) == pinned["cgan"]
    # The halfway checkpoint is written byte for byte as pinned.
    assert checkpoint_digests(tmp_path) == pinned["checkpoint"]


def test_resume_from_committed_checkpoint_matches_fixture():
    pinned = _pinned()
    assert checkpoint_digests(CHECKPOINT_DIR) == pinned["checkpoint"]
    assert digest_model(run_resumed(CHECKPOINT_DIR)) == pinned["cgan"]


def test_wasserstein_run_matches_fixture():
    assert digest_model(run_wgan()) == _pinned()["wgan"]
