#!/usr/bin/env python3
"""Fail when any test call in a pytest ``--durations`` report is too slow.

Reads pytest's terminal output from a file, finds the ``slowest N
durations`` section and exits non-zero if any ``call`` phase there took
longer than :data:`MAX_SECONDS`, the tier-1 per-test budget::

    python -m pytest -q --durations=15 | tee pytest-durations.txt
    python tools/check_durations.py pytest-durations.txt

Setup and teardown phases are listed but not gated.  A report without a
durations section is an error, so the gate cannot pass silently when the
flag goes missing.  Standard library only.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable

#: Budget per test call, in seconds.
MAX_SECONDS = 10.0

#: One line of the durations section: ``4.08s call     tests/x.py::test``.
_LINE = re.compile(r"^\s*(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S.*?)\s*$")
_HEADER = re.compile(r"=+ slowest (\d+ )?durations =+")


def slow_calls(lines: Iterable[str]) -> tuple[bool, list[tuple[float, str]]]:
    """``(found a durations section, [(seconds, test id) over budget])``."""
    found = False
    slow = []
    for line in lines:
        if _HEADER.search(line):
            found = True
            continue
        if not found:
            continue
        match = _LINE.match(line)
        if match and match.group(2) == "call":
            seconds = float(match.group(1))
            if seconds > MAX_SECONDS:
                slow.append((seconds, match.group(3)))
    return found, slow


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_durations.py PYTEST_OUTPUT", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        found, slow = slow_calls(handle)
    if not found:
        print("no '--durations' section in the pytest output", file=sys.stderr)
        return 2
    for seconds, test in slow:
        print(
            f"over the {MAX_SECONDS:g} s budget: {seconds:.2f}s {test}",
            file=sys.stderr,
        )
    if slow:
        return 1
    print(f"every listed test call is within {MAX_SECONDS:g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
