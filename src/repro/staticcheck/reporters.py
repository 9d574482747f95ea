"""Render lint results as human text or machine JSON."""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .baseline import Comparison
from .engine import RunResult
from .findings import Finding
from .registry import rule_classes

__all__ = ["render_text", "render_json"]


def _finding_lines(findings: List[Finding], tag: str = "") -> List[str]:
    out: List[str] = []
    for f in findings:
        suffix = f" [{tag}]" if tag else ""
        out.append(f"{f.location()}: {f.rule} {f.message}{suffix}")
        if f.snippet:
            out.append(f"    {f.snippet.strip()}")
    return out


def render_text(
    result: RunResult, comparison: Optional[Comparison] = None
) -> str:
    """Human-readable report; baseline-aware when a comparison is given."""
    lines: List[str] = []
    if comparison is None:
        lines.extend(_finding_lines(result.findings))
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

    if comparison.new:
        lines.append("new findings (not in baseline):")
        lines.extend(_finding_lines(comparison.new))
    if comparison.stale:
        lines.append("stale baseline entries (debt paid down — shrink "
                      "the baseline with --update-baseline):")
        for rule, path, allowed, current in comparison.stale:
            lines.append(
                f"  {path}: {rule} baseline allows {allowed}, "
                f"found {current}"
            )
    verdict = "clean" if comparison.clean else "FAILED"
    lines.append(
        f"{verdict}: {len(comparison.new)} new, {comparison.baselined} "
        f"baselined, {len(comparison.stale)} stale "
        f"({result.files_scanned} files scanned)"
    )
    return "\n".join(lines)


def render_json(
    result: RunResult, comparison: Optional[Comparison] = None
) -> str:
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
    if comparison is not None:
        payload["baseline"] = {
            "clean": comparison.clean,
            "new": [f.to_dict() for f in comparison.new],
            "baselined": comparison.baselined,
            "stale": [
                {
                    "rule": rule,
                    "path": path,
                    "baseline_count": allowed,
                    "current_count": current,
                }
                for rule, path, allowed, current in comparison.stale
            ],
        }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
