"""Train-stage golden-fixture maintenance CLI.

Check the committed fixture against fresh runs::

    PYTHONPATH=src python -m tests.gan.golden

Regenerate after an intentional numerical change::

    PYTHONPATH=src python -m tests.gan.golden --regen
"""

from __future__ import annotations

import argparse
import sys

from tests.gan.golden import FIXTURE_PATH, check, write_fixture


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.gan.golden")
    parser.add_argument(
        "--regen",
        action="store_true",
        help="overwrite the committed fixture and checkpoint with fresh runs",
    )
    args = parser.parse_args(argv)

    if args.regen:
        path = write_fixture()
        print(f"train golden fixture regenerated -> {path}")
        return 0

    if not FIXTURE_PATH.exists():
        print(f"no fixture at {FIXTURE_PATH}; run with --regen to create it")
        return 1
    failures = check()
    if failures:
        print("train golden fixture MISMATCH:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"train golden fixture OK ({FIXTURE_PATH})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
