"""Record-stage golden-fixture maintenance CLI.

Check the committed fixture against a fresh run::

    PYTHONPATH=src python -m tests.manufacturing.golden

Regenerate after an intentional numerical change::

    PYTHONPATH=src python -m tests.manufacturing.golden --regen
"""

from __future__ import annotations

import argparse
import sys

from tests.manufacturing.golden import (
    FIXTURE_PATH,
    compare,
    compute_golden,
    load_fixture,
    write_fixture,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.manufacturing.golden")
    parser.add_argument(
        "--regen",
        action="store_true",
        help="overwrite the committed fixture with a fresh recording",
    )
    args = parser.parse_args(argv)

    if args.regen:
        path = write_fixture()
        print(f"record golden fixture regenerated -> {path}")
        return 0

    if not FIXTURE_PATH.exists():
        print(f"no fixture at {FIXTURE_PATH}; run with --regen to create it")
        return 1
    failures = compare(compute_golden(), load_fixture())
    if failures:
        print("record golden fixture MISMATCH:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"record golden fixture OK ({FIXTURE_PATH})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
