#!/usr/bin/env python3
"""Standalone entry for the repo's AST lint rules.

Equivalent to ``python -m repro lint`` but runnable before the package
is importable from the default path (CI checkouts, pre-commit hooks)::

    python tools/lint_rules.py            # lint src/repro with all rules
    python tools/lint_rules.py --list     # print the rule catalog
    python tools/lint_rules.py --rule determinism-imports --rule set-iteration

Exits non-zero on any violation.  The rules themselves live in
``src/repro/check/lint.py`` -- this file only locates the source tree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.check.lint import (  # noqa: E402  (path bootstrap above)
    format_report,
    list_rules,
    run_lint,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=str(SRC / "repro"),
        help="source root to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named rule(s); repeat the flag for several",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list the rule catalog and exit",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for name, doc in list_rules():
            print(f"{name}: {doc}")
        return 0
    report = run_lint(root=args.root, rules=args.rule)
    print(format_report(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
