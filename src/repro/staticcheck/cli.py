"""Command-line entry point: ``python -m repro.staticcheck`` / ``repro lint``.

Exit codes::

    0   clean (no findings, or all findings baselined and no stale cells)
    1   violations: new findings and/or stale baseline entries
    2   usage / IO error (bad baseline file, unreadable path)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import baseline as baseline_mod
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
        "--baseline", metavar="FILE", default=None,
        help="compare findings against a ratcheting baseline file",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline to match current findings and exit 0",
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

    ``args`` needs: paths, format, baseline, update_baseline, output,
    list_rules.
    """
    if args.list_rules:
        print(_list_rules())
        return 0

    if args.update_baseline and not args.baseline:
        print(
            "repro.staticcheck: --update-baseline requires --baseline",
            file=sys.stderr,
        )
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro.staticcheck: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    result = run(paths)

    comparison = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        if args.update_baseline:
            from ..ioutil import atomic_write

            content = baseline_mod.dump(
                baseline_mod.counts_for(result.findings)
            )
            atomic_write(baseline_path, content)
            print(
                f"baseline updated: {baseline_path} "
                f"({len(result.findings)} findings across "
                f"{len(baseline_mod.counts_for(result.findings))} cells)"
            )
            return 0
        try:
            known = baseline_mod.load(baseline_path)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"repro.staticcheck: bad baseline: {exc}", file=sys.stderr)
            return 2
        comparison = baseline_mod.compare(result.findings, known)

    render = render_json if args.format == "json" else render_text
    report = render(result, comparison)

    if args.output:
        from ..ioutil import atomic_write

        atomic_write(Path(args.output), report)
    else:
        print(report)

    if comparison is not None:
        return 0 if comparison.clean else 1
    return 0 if not result.findings else 1
