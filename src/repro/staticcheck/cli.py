"""Command-line entry point: ``python -m repro.staticcheck`` / ``repro lint``.

Exit codes::

    0   clean: no findings
    1   violations: any finding
    2   usage / IO error (unreadable path)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .engine import run
from .registry import rule_classes
from .reporters import render_json, render_text

__all__ = ["main", "build_parser", "lint_command", "add_lint_arguments"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck",
        description=(
            "AST-based invariant linter for the repro codebase: "
            "determinism, numpy kernel hygiene, fork/atomic-IO safety, "
            "obs discipline."
        ),
    )
    add_lint_arguments(parser)
    return parser


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint flags (shared with the ``repro lint`` subcommand)."""
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE (atomically) instead of stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def _list_rules() -> str:
    lines: List[str] = []
    for cls in rule_classes().values():
        scope = cls.scope or "all"
        lines.append(f"{cls.code}  {cls.slug}  [{cls.family}, scope={scope}]")
        lines.append(f"      {cls.summary}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    return lint_command(parser.parse_args(argv))


def lint_command(args: argparse.Namespace) -> int:
    """Shared implementation behind ``repro lint`` and ``python -m``.

    ``args`` needs: paths, format, output, list_rules.
    """
    if args.list_rules:
        print(_list_rules())
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro.staticcheck: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    result = run(paths)
    render = render_json if args.format == "json" else render_text
    report = render(result)

    if args.output:
        from ..ioutil import atomic_write

        atomic_write(Path(args.output), report)
    else:
        print(report)
    return 0 if not result.findings else 1
