"""Print the lines of every ``stpn-rca bench`` suite that reads no data file.

    python tools/suite_lines.py [--pin FILE]

Runs the eight suites other than ``tep`` in the order of ``bench.SUITES``,
with the six-mode desk bundle built once and shared by ``dataset1-desk`` and
``false-alarm``, and prints each suite's report without its run time: a
``[name] PASS`` (or ``FAIL``) header, then the suite's check and figure
lines. Exits 1 when a suite fails.

    python tools/suite_lines.py --pin tests/data/suite_lines.txt

also writes the lines to that file, behind one ``#`` line naming the Python,
numpy and BLAS versions they were made with; ``tests/test_acceptance.py``
compares every suite it runs with that file. A change that moves a suite
line regenerates it this way; a failed run writes no file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def pinned_lines(path: Path) -> tuple[str, dict[str, list[str]]]:
    """The environment line of a pinned file, and each suite's lines."""
    environment, *rest = path.read_text().splitlines()
    suites: dict[str, list[str]] = {}
    for line in rest:
        if line.startswith("["):
            suites[line[1 : line.index("]")]] = lines = []
        else:
            lines.append(line[2:])
    return environment[2:], suites


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pin", type=Path, help="also write the lines to this file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "src"))
    sys.path.insert(0, str(REPO / "tools"))
    from output_digests import environment

    from stpnrca import bench

    desk = bench.build_desk_context()
    lines, failed = [], False
    for name in bench.SUITES:
        if name == "tep":
            continue
        shared = [desk] if name in ("dataset1-desk", "false-alarm") else []
        result = bench.run_suite(name, *shared)
        failed |= not result.passed
        lines.append(f"[{name}] {'PASS' if result.passed else 'FAIL'}")
        lines += ["  " + line for line in result.lines]
    print(*lines, sep="\n")
    if args.pin and not failed:
        args.pin.write_text("".join(f"{line}\n" for line in [f"# {environment()}", *lines]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
