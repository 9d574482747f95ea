"""Observability-discipline rules (family O).

``repro.obs`` keeps its < 2% disabled-overhead contract only while
instrumented code follows the pattern PR 2 established: spans are
context-managed (so an exception can never leak an open span and skew
every enclosing duration), metric names are globally consistent, and
collection objects are only created by :mod:`repro.obs` itself — code
elsewhere must go through the ``get_metrics()``/``get_tracer()`` no-op
singletons.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from ..astutil import dotted_name, resolve_call
from ..findings import Finding, Module, Rule
from ..registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import CallGraph
    from ..index import ProjectIndex

__all__ = ["SpanContext", "MetricNameCollision", "DirectObsConstruction"]


def _is_tracer_receiver(func: ast.Attribute, module: Module) -> bool:
    """Whether ``<recv>.span(...)`` plausibly targets a tracer.

    Heuristic: the receiver is a ``get_tracer()`` call, or a name/attr
    whose final segment mentions ``tracer``.  This keeps the rule away
    from unrelated ``span`` methods (e.g. a range object's ``span()``), whose
    call sites take no arguments anyway.
    """
    recv = func.value
    if isinstance(recv, ast.Call):
        name = resolve_call(recv, module.aliases)
        return name is not None and name.rpartition(".")[2] == "get_tracer"
    name = dotted_name(recv)
    if name is None:
        return False
    return "tracer" in name.rpartition(".")[2].lower()


@register
class SpanContext(Rule):
    code = "O401"
    slug = "span-context"
    family = "obs"
    summary = (
        "tracer span opened without a with-statement (no guaranteed "
        "close on exceptions)"
    )
    rationale = (
        "A span that is entered but never exited corrupts the tracer's "
        "depth counter, mis-nests every later span and leaks the open "
        "duration into enclosing stages.  `with tracer.span(...)` "
        "closes on every path, including exceptions."
    )
    scope = None

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and _is_tracer_receiver(node.func, module)
            ):
                continue
            parent = module.parent(node)
            if isinstance(parent, (ast.withitem, ast.Return)):
                continue
            yield module.finding(
                node, self.code,
                "tracer span not used as a context manager; write "
                "`with ....span(...):` so it closes on every exit path",
            )


@register
class MetricNameCollision(Rule):
    code = "O402"
    slug = "metric-name-collision"
    family = "obs"
    summary = (
        "one metric name registered as different instrument kinds "
        "across the codebase"
    )
    rationale = (
        "MetricsRegistry keys counters, gauges and histograms in "
        "separate namespaces, so the same name used as two kinds "
        "produces two silently diverging series under one name in "
        "every metrics dump and report."
    )
    scope = None
    #: index-driven: metric sites come from each FileSummary
    project_rule = True

    _KINDS = ("counter", "gauge", "histogram")

    def check(self, module: Module) -> Iterator[Finding]:
        return iter(())

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        #: metric name -> kind -> [(relpath, line, col, snippet)]
        sites: Dict[str, Dict[str, List[Tuple[str, int, int, str]]]] = {}
        for relpath in sorted(project.files):
            for raw in project.files[relpath].metric_sites:
                name, kind, line, col, snippet = raw
                if kind not in self._KINDS:
                    continue
                sites.setdefault(str(name), {}).setdefault(
                    str(kind), []
                ).append((relpath, int(line), int(col), str(snippet)))
        for name in sorted(sites):
            kinds = sites[name]
            if len(kinds) < 2:
                continue
            # The majority kind is taken as intended; every site of the
            # other kinds is a finding (ties break toward the first kind
            # in _KINDS order so output is deterministic).
            ranked = sorted(
                kinds,
                key=lambda k: (-len(kinds[k]), self._KINDS.index(k)),
            )
            canonical = ranked[0]
            anchor_rel, anchor_line, _c, _s = kinds[canonical][0]
            for kind in ranked[1:]:
                for relpath, line, col, snippet in kinds[kind]:
                    yield Finding(
                        path=relpath,
                        line=line,
                        col=col,
                        rule=self.code,
                        message=(
                            f"metric {name!r} registered as a {kind} "
                            f"here but as a {canonical} at "
                            f"{anchor_rel}:{anchor_line}"
                        ),
                        snippet=snippet,
                    )


@register
class DirectObsConstruction(Rule):
    code = "O403"
    slug = "direct-obs-construction"
    family = "obs"
    summary = (
        "MetricsRegistry/Tracer constructed outside repro.obs instead "
        "of using the no-op singletons"
    )
    rationale = (
        "Instrumented code must read get_metrics()/get_tracer() so that "
        "disabled mode stays a shared falsy no-op (the < 2% overhead "
        "contract) and enabling observability swaps every caller at "
        "once.  A privately constructed registry records into a silo "
        "nobody exports."
    )
    scope = None

    _CLASSES = {"MetricsRegistry", "Tracer", "NullRegistry", "NullTracer"}

    def check(self, module: Module) -> Iterator[Finding]:
        if "obs" in module.scopes:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, module.aliases)
            if name is None:
                continue
            if name.rpartition(".")[2] in self._CLASSES:
                yield module.finding(
                    node, self.code,
                    f"direct {name.rpartition('.')[2]}() construction "
                    "outside repro.obs; use obs.get_metrics()/"
                    "get_tracer() (or obs.enable()) instead",
                )
