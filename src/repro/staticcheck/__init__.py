"""repro.staticcheck — AST-based invariant linter for this codebase.

The reproduction's claims rest on invariants no unit test can watch
everywhere at once: bit-replayable determinism from a seed, int64/float64
kernel dtype discipline, spawn-only fork safety with atomic whole-file
writes, and no-op-singleton observability.  This package checks them
statically; any finding fails the run.

Use it three ways::

    repro lint src/repro
    python -m repro.staticcheck src/repro --format=json
    from repro.staticcheck import run  # programmatic

See ``docs/static-analysis.md`` for the rule catalogue and suppression
syntax.
"""

from .engine import RunResult, run
from .findings import Finding, Module, Rule
from .registry import all_rules, get_rule, register, rule_classes

__all__ = [
    "Finding",
    "Module",
    "Rule",
    "RunResult",
    "run",
    "register",
    "all_rules",
    "rule_classes",
    "get_rule",
]
