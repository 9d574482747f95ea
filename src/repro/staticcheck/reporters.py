"""Render lint results as human text or machine JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from .engine import RunResult
from .findings import Finding
from .registry import rule_classes

__all__ = ["render_text", "render_json"]


def _finding_lines(findings: List[Finding]) -> List[str]:
    out: List[str] = []
    for f in findings:
        out.append(f"{f.location()}: {f.rule} {f.message}")
        if f.snippet:
            out.append(f"    {f.snippet.strip()}")
    return out


def render_text(result: RunResult) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = _finding_lines(result.findings)
    counts = result.by_rule()
    total = len(result.findings)
    summary = (
        f"{total} finding{'s' if total != 1 else ''} in "
        f"{result.files_scanned} files"
    )
    if counts:
        summary += " (" + ", ".join(
            f"{rule}:{n}" for rule, n in counts.items()
        ) + ")"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: RunResult) -> str:
    """Machine-readable report (stable key order, newline-terminated)."""
    payload: Dict[str, object] = {
        "files_scanned": result.files_scanned,
        "files_skipped": result.files_skipped,
        "parse_errors": result.parse_errors,
        "rules": {
            cls.code: cls.describe() for cls in rule_classes().values()
        },
        "counts": result.by_rule(),
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
