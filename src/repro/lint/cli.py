"""Command-line front end: ``repro lint [paths]`` (or ``python -m repro.lint``).

Exit codes follow lint convention: ``0`` clean (or after
``--write-baseline``), ``1`` findings remain, ``2`` usage error.

Examples
--------
::

    repro lint                     # lint src/repro
    repro lint src/repro/sweep     # one subpackage
    repro lint --format json       # machine-readable report
    repro lint --list-rules        # what each code means
    repro lint --baseline .reprolint-baseline.json \
        --write-baseline           # grandfather current findings
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import List

from repro.lint.diagnostics import (
    apply_baseline,
    load_baseline,
    render_json,
    write_baseline,
)
from repro.lint.engine import ALL_RULES, expand_paths, lint_paths

#: Linted when no paths are given, resolved against the cwd.
DEFAULT_TARGET = "src/repro"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro lint`` flags and handler."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        metavar="FILE",
        help="JSON baseline of grandfathered findings; matching findings "
        "are suppressed (one per baseline entry)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule code and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: 'text' (one line per finding, default) or "
        "'json' (byte-stable document for CI artifacts)",
    )
    parser.set_defaults(func=lambda args: _lint(parser, args))


def _print_rules() -> None:
    for rule in ALL_RULES:
        print(f"{rule.code}  {rule.title}")
        print(textwrap.indent(textwrap.fill(rule.rationale, width=74), "      "))


def _lint(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the linter; return the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0

    paths: List[Path] = args.paths or [Path(DEFAULT_TARGET)]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(map(str, missing))}")
    if args.write_baseline and args.baseline is None:
        parser.error("--write-baseline requires --baseline FILE")

    findings = lint_paths(paths)
    checked = len(expand_paths(paths))

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(
            f"reprolint: wrote baseline with {len(findings)} finding(s) "
            f"to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline is not None:
        if not args.baseline.exists():
            parser.error(f"baseline file not found: {args.baseline}")
        findings = apply_baseline(findings, load_baseline(args.baseline))

    if args.format == "json":
        sys.stdout.write(render_json(findings, checked))
    else:
        for diag in findings:
            print(diag.render())
    if findings:
        print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"reprolint: clean ({checked} files)", file=sys.stderr)
    return 0
