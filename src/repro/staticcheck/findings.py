"""Finding and rule primitives for the invariant linter.

A :class:`Finding` is one rule violation at one source location; a
:class:`Rule` is a pluggable AST check producing findings.  Per-file
rules implement ``check``; cross-file rules set ``project_rule`` and
emit from ``finalize_project`` — see
:class:`~repro.staticcheck.rules.obs_discipline.MetricNameCollision`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import CallGraph
    from .index import ProjectIndex

__all__ = ["Finding", "Module", "Rule"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # posix path relative to the scan root
    line: int  # 1-based
    col: int  # 0-based (ast convention)
    rule: str  # rule code, e.g. "D101"
    message: str
    snippet: str = ""  # the stripped source line, for reports

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class Module:
    """One parsed source file plus everything rules need to inspect it.

    ``scopes`` classifies the module (``deterministic``, ``kernel``,
    ``persistence``, ``executor``, ``fabric``, ``obs``, ``runtime``)
    from its path
    and any ``# staticcheck: scope=...`` pragma; rules declare the scope
    they apply to.  ``suppressions`` maps line numbers to the rule codes
    suppressed there (``None`` = all rules).
    """

    path: str  # absolute filesystem path
    relpath: str  # posix path relative to the scan root
    source: str
    tree: ast.Module
    lines: List[str]
    scopes: FrozenSet[str]
    #: line -> suppressed codes (None = every rule) from inline pragmas
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(
        default_factory=dict
    )
    #: child AST node -> parent AST node, for context-sensitive rules
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: dotted-name aliases from imports (``np`` -> ``numpy``, ...)
    aliases: Dict[str, str] = field(default_factory=dict)

    def suppressed(self, line: int, code: str) -> bool:
        """Whether an inline pragma suppresses ``code`` on ``line``."""
        if line not in self.suppressions:
            return False
        codes = self.suppressions[line]
        return codes is None or code in codes

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(
        self, node: ast.AST, rule: str, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.relpath,
            line=line,
            col=col,
            rule=rule,
            message=message,
            snippet=self.snippet(line),
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set the class attributes and implement :meth:`check`, or
    — for rules needing whole-project context — set ``project_rule``
    and implement :meth:`finalize_project`.
    """

    #: stable short code, e.g. ``"D101"`` (letter = family)
    code: ClassVar[str] = ""
    #: human slug, e.g. ``"unseeded-rng"``
    slug: ClassVar[str] = ""
    #: family name: determinism | numpy | forksafety | obs
    family: ClassVar[str] = ""
    #: one-line description for ``--list-rules`` and the docs
    summary: ClassVar[str] = ""
    #: why violating this undermines the reproduction's claims
    rationale: ClassVar[str] = ""
    #: module scope this rule applies to (None = every module)
    scope: ClassVar[Optional[str]] = None

    def applies(self, module: Module) -> bool:
        return self.scope is None or self.scope in module.scopes

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        raise NotImplementedError

    #: whole-program rules run exclusively from :meth:`finalize_project`
    #: (their :meth:`check` never fires); per-file rules leave this False
    project_rule: ClassVar[bool] = False

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        """Yield findings from the whole-program index.

        Runs once per lint with the :class:`ProjectIndex` built over
        *every* scanned file and its
        :class:`CallGraph`.  Unlike :meth:`check`, this
        hook sees cross-file structure: class inventories, lock fields,
        thread-entry seeding and resolved call edges.
        """
        return iter(())

    @classmethod
    def describe(cls) -> Dict[str, str]:
        return {
            "code": cls.code,
            "slug": cls.slug,
            "family": cls.family,
            "summary": cls.summary,
            "scope": cls.scope or "all",
        }


def walk_with_parents(
    tree: ast.Module,
) -> Tuple[List[ast.AST], Dict[ast.AST, ast.AST]]:
    """All nodes of ``tree`` plus a child -> parent map."""
    parents: Dict[ast.AST, ast.AST] = {}
    nodes: List[ast.AST] = [tree]
    stack: List[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            nodes.append(child)
            stack.append(child)
    return nodes, parents
