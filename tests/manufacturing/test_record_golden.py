"""Golden regression: the record stage must reproduce the fixture.

The fixture pins the features, conditions, segment count and audio
lengths of one seed-pinned ``record_case_study_dataset`` call, so silent
drift in acoustic synthesis, the microphone filter or CWT extraction
fails loudly.  Intentional changes regenerate it with
``PYTHONPATH=src python -m tests.manufacturing.golden --regen``.
"""

from tests.manufacturing.golden import (
    FIXTURE_PATH,
    compare,
    compute_golden,
    load_fixture,
)


def test_recording_matches_fixture():
    assert FIXTURE_PATH.exists(), (
        "missing record golden fixture; run "
        "PYTHONPATH=src python -m tests.manufacturing.golden --regen"
    )
    assert compare(compute_golden(), load_fixture()) == []
