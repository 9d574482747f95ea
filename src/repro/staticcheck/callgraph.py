"""Conservative call graph + lock/thread analyses over a ProjectIndex.

The index (:mod:`repro.staticcheck.index`) records *what each file
declares* — this module joins those declarations across files:

* **call resolution** — a call site's ``cexpr`` becomes a node key:
  ``self.m()`` resolves within the enclosing class (walking base
  classes), ``self.attr.m()`` through attribute type annotations,
  ``get_metrics().counter(...).inc()`` through return-type annotations,
  and dotted names through the module table.  Resolution is
  *conservative*: anything ambiguous resolves to nothing, never to a
  wrong target.
* **thread reachability** — BFS from thread-entry seeds
  (``threading.Thread(target=...)``, handler-class methods,
  ``Thread.run`` overrides) over resolved call edges.  A method in the
  reachable set may execute off the main thread.
* **entry-lock propagation** — a private method (``_``-prefixed) whose
  every in-class call site holds lock ``L`` is analyzed as holding
  ``L`` itself.  This is what lets ``coordinator.handle`` take the lock
  once and dispatch to ``_handle_lease`` &co. without tripping C601.
* **lock identity** — the textual lock ``self.coordinator._lock`` seen
  in one file and ``self._lock`` seen in another normalize to the same
  ``(relpath, Class, attr)`` identity, so "common lock" checks work
  across files.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .index import CExpr, ClassSummary, FuncSummary, ProjectIndex, TExpr

__all__ = ["CallGraph", "NodeKey"]

#: ``"relpath::Class.method"`` or ``"relpath::function"``
NodeKey = str

#: propagation rounds for entry-lock fixpoint (call chains deeper than
#: this through private helpers keep their syntactic locks only)
_LOCK_ROUNDS = 4


def node_key(relpath: str, cls: Optional[str], func: str) -> NodeKey:
    if cls is None:
        return f"{relpath}::{func}"
    return f"{relpath}::{cls}.{func}"


class CallGraph:
    """Resolution + reachability over one :class:`ProjectIndex`."""

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        #: node key -> (relpath, class name | None, FuncSummary)
        self.nodes: Dict[NodeKey, Tuple[str, Optional[str], FuncSummary]]
        self.nodes = {}
        for relpath in sorted(project.files):
            summary = project.files[relpath]
            for fname in sorted(summary.functions):
                self.nodes[node_key(relpath, None, fname)] = (
                    relpath, None, summary.functions[fname]
                )
            for cname in sorted(summary.classes):
                cls = summary.classes[cname]
                for mname in sorted(cls.methods):
                    self.nodes[node_key(relpath, cname, mname)] = (
                        relpath, cname, cls.methods[mname]
                    )
        self._edges: Optional[Dict[NodeKey, List[Tuple[Dict[str, Any], Optional[NodeKey]]]]] = None
        self._thread_reachable: Optional[Set[NodeKey]] = None
        self._entry_locks: Optional[Dict[NodeKey, FrozenSet[str]]] = None

    # -- type resolution -----------------------------------------------------

    def type_info(
        self, texpr: TExpr, relpath: str, cls: Optional[str]
    ) -> Optional[Dict[str, Any]]:
        """Public alias of :meth:`_type_info` for the rules."""
        return self._type_info(texpr, relpath, cls)

    def class_for_name(
        self, name: str, prefer_relpath: str
    ) -> Optional[Tuple[str, ClassSummary]]:
        """Public alias of :meth:`_class_for_name` for the rules."""
        return self._class_for_name(name, prefer_relpath)

    def _type_info(
        self, texpr: TExpr, relpath: str, cls: Optional[str]
    ) -> Optional[Dict[str, Any]]:
        """``{"name", "elem"}`` of a type expression, or None."""
        kind = texpr[0]
        if kind == "self":
            return {"name": cls, "elem": None} if cls else None
        if kind == "name":
            return {"name": texpr[1], "elem": None}
        if kind == "attr":
            base = self._type_info(texpr[1], relpath, cls)
            if base is None or base["name"] is None:
                return None
            owner = self._class_for_name(base["name"], relpath)
            if owner is None:
                return None
            return self._attr_type(owner[0], owner[1], texpr[2])
        if kind == "ret":
            target = self.resolve_call(texpr[1], relpath, cls)
            if target is None:
                # constructor? `ClassName(...)` types as ClassName
                ctor = self._constructor_type(texpr[1], relpath)
                if ctor is not None:
                    return {"name": ctor, "elem": None}
                return None
            func = self.nodes[target][2]
            return func.returns
        if kind == "elem":
            base_texpr = texpr[1]
            if base_texpr[0] == "attr":
                owner_info = self._type_info(
                    base_texpr[1], relpath, cls
                )
                if owner_info is None or owner_info["name"] is None:
                    return None
                owner = self._class_for_name(owner_info["name"], relpath)
                if owner is None:
                    return None
                info = self._attr_type(owner[0], owner[1], base_texpr[2])
                if info is not None and info.get("elem"):
                    return {"name": info["elem"], "elem": None}
            else:
                info = self._type_info(base_texpr, relpath, cls)
                if info is not None and info.get("elem"):
                    return {"name": info["elem"], "elem": None}
            return None
        return None

    def _class_for_name(
        self, name: str, prefer_relpath: str
    ) -> Optional[Tuple[str, ClassSummary]]:
        """Resolve a class *name* — same-file beats global uniqueness."""
        local = self.project.files[prefer_relpath].classes.get(name) if (
            prefer_relpath in self.project.files
        ) else None
        if local is not None:
            return prefer_relpath, local
        return self.project.class_by_name(name)

    def _attr_type(
        self, relpath: str, cls: ClassSummary, attr: str
    ) -> Optional[Dict[str, Any]]:
        """Annotated/inferred type of an attribute, walking bases."""
        seen: Set[str] = set()
        stack: List[Tuple[str, ClassSummary]] = [(relpath, cls)]
        while stack:
            rp, c = stack.pop()
            if c.name in seen:
                continue
            seen.add(c.name)
            info = c.attr_types.get(attr)
            if info is not None:
                return info
            for base in c.bases:
                parent = self._class_for_name(
                    base.rpartition(".")[2], rp
                )
                if parent is not None:
                    stack.append(parent)
        return None

    def _constructor_type(
        self, cexpr: CExpr, relpath: str
    ) -> Optional[str]:
        """Class name when a call expression is a known constructor."""
        if cexpr[0] != "dotted":
            return None
        tail = cexpr[1].rpartition(".")[2]
        if self._class_for_name(tail, relpath) is not None:
            return tail
        return None

    # -- call resolution -----------------------------------------------------

    def find_method(
        self, relpath: str, clsname: str, method: str
    ) -> Optional[NodeKey]:
        """Method lookup on a class, walking base classes in-tree."""
        seen: Set[str] = set()
        stack: List[Tuple[str, ClassSummary]] = []
        start = self._class_for_name(clsname, relpath)
        if start is not None:
            stack.append(start)
        while stack:
            rp, cls = stack.pop(0)
            if cls.name in seen:
                continue
            seen.add(cls.name)
            if method in cls.methods:
                return node_key(rp, cls.name, method)
            for base in cls.bases:
                parent = self._class_for_name(base.rpartition(".")[2], rp)
                if parent is not None:
                    stack.append(parent)
        return None

    def resolve_call(
        self, cexpr: CExpr, relpath: str, cls: Optional[str]
    ) -> Optional[NodeKey]:
        """Node key of a call target, or None (external / ambiguous)."""
        if cexpr[0] == "dotted":
            dotted = cexpr[1]
            head, _, tail = dotted.rpartition(".")
            if not head:
                # bare name: same-module function, else unique class? No —
                # a bare-name call is a constructor or local; functions
                # in the same module are called bare too.
                summary = self.project.files.get(relpath)
                if summary is not None and dotted in summary.functions:
                    return node_key(relpath, None, dotted)
                return None
            mod = self.project.resolve_module(head)
            if mod is not None and tail in self.project.files[mod].functions:
                return node_key(mod, None, tail)
            # ClassName.method spelled as a dotted attribute path
            owner = self._class_for_name(head.rpartition(".")[2], relpath)
            if owner is not None:
                return self.find_method(owner[0], owner[1].name, tail)
            return None
        if cexpr[0] == "method":
            info = self._type_info(cexpr[1], relpath, cls)
            if info is None or not info.get("name"):
                return None
            owner = self._class_for_name(str(info["name"]), relpath)
            if owner is None:
                return None
            return self.find_method(owner[0], owner[1].name, cexpr[2])
        return None

    def resolved_target_name(
        self, cexpr: CExpr, relpath: str, cls: Optional[str]
    ) -> Optional[str]:
        """Dotted target for externals; ``Class.method`` for typed calls."""
        if cexpr[0] == "dotted":
            return str(cexpr[1])
        if cexpr[0] == "method":
            info = self._type_info(cexpr[1], relpath, cls)
            if info is not None and info.get("name"):
                return f"{info['name']}.{cexpr[2]}"
        return None

    # -- edges ---------------------------------------------------------------

    def edges(
        self,
    ) -> Dict[NodeKey, List[Tuple[Dict[str, Any], Optional[NodeKey]]]]:
        """node -> [(call site, resolved target | None)]."""
        if self._edges is None:
            out: Dict[
                NodeKey, List[Tuple[Dict[str, Any], Optional[NodeKey]]]
            ] = {}
            for key, (relpath, cls, func) in self.nodes.items():
                sites: List[Tuple[Dict[str, Any], Optional[NodeKey]]] = []
                for site in func.calls:
                    sites.append(
                        (site, self.resolve_call(site["t"], relpath, cls))
                    )
                out[key] = sites
            self._edges = out
        return self._edges

    # -- thread reachability -------------------------------------------------

    def thread_seeds(self) -> Set[NodeKey]:
        seeds: Set[NodeKey] = set()
        for relpath, cls, func in self.project.thread_entries():
            seeds.add(node_key(relpath, cls, func))
        # method-form Thread targets need receiver-type resolution
        for relpath, summary in self.project.files.items():
            for site in summary.thread_targets:
                target = site["t"]
                if target[0] != "method":
                    continue
                resolved = self.resolve_call(
                    target, relpath, site.get("cls")
                )
                if resolved is not None:
                    seeds.add(resolved)
        return {s for s in seeds if s in self.nodes}

    def thread_reachable(self) -> Set[NodeKey]:
        """Every node reachable from a thread entry point."""
        if self._thread_reachable is None:
            self._thread_reachable = self._reach(self.thread_seeds())
        return self._thread_reachable

    def handler_reachable(self) -> Set[NodeKey]:
        """Nodes reachable from HTTP handler-class methods only (C605)."""
        seeds: Set[NodeKey] = set()
        for relpath, clsname in self.project.handler_classes():
            cls = self.project.files[relpath].classes[clsname]
            for method in cls.methods:
                seeds.add(node_key(relpath, clsname, method))
        return self._reach(seeds)

    def _reach(self, seeds: Set[NodeKey]) -> Set[NodeKey]:
        out = set(seeds)
        frontier = list(seeds)
        edges = self.edges()
        while frontier:
            current = frontier.pop()
            for _site, target in edges.get(current, ()):
                if target is not None and target not in out:
                    out.add(target)
                    frontier.append(target)
        return out

    # -- lock identity + propagation ----------------------------------------

    def lock_id(
        self, text: str, relpath: str, cls: Optional[str], func: str
    ) -> Optional[str]:
        """Canonical identity of a textual lock expression.

        ``self._lock`` inside ``FabricCoordinator`` and
        ``self.coordinator._lock`` inside a class whose ``coordinator``
        attribute is typed ``FabricCoordinator`` both normalize to
        ``coordinator.py::FabricCoordinator._lock``.
        """
        parts = text.split(".")
        if parts[0] == "self" and len(parts) >= 2:
            current = self._class_for_name(cls, relpath) if cls else None
            for attr in parts[1:-1]:
                if current is None:
                    return None
                info = self._attr_type(current[0], current[1], attr)
                if info is None or not info.get("name"):
                    return None
                current = self._class_for_name(
                    str(info["name"]), current[0]
                )
            if current is None:
                return None
            return f"{current[0]}::{current[1].name}.{parts[-1]}"
        # module-level or local lock: identity is positional
        if len(parts) == 1:
            return f"local::{relpath}::{cls or ''}::{func}::{text}"
        return f"{relpath}::{text}"

    def held_ids(
        self,
        held: List[str],
        relpath: str,
        cls: Optional[str],
        func: str,
    ) -> FrozenSet[str]:
        out: Set[str] = set()
        for text in held:
            lid = self.lock_id(text, relpath, cls, func)
            if lid is not None:
                out.add(lid)
        return frozenset(out)

    def entry_locks(self) -> Dict[NodeKey, FrozenSet[str]]:
        """Locks provably held on *every* call path into a method.

        Only private (``_``-prefixed) methods called exclusively from
        within their own class participate — public methods can always
        be called lock-free from outside the analyzed tree.
        """
        if self._entry_locks is not None:
            return self._entry_locks
        # call sites into each candidate: (caller key, site held-ids)
        callers: Dict[NodeKey, List[Tuple[NodeKey, FrozenSet[str]]]] = {}
        eligible: Set[NodeKey] = set()
        for key, (relpath, cls, func) in self.nodes.items():
            if cls is None or not func.name.startswith("_"):
                continue
            if func.name.startswith("__"):
                continue
            eligible.add(key)
        edges = self.edges()
        external_callers: Set[NodeKey] = set()
        for caller_key, sites in edges.items():
            caller_rel, caller_cls, _f = self.nodes[caller_key]
            for site, target in sites:
                if target is None or target not in eligible:
                    continue
                target_cls = self.nodes[target][1]
                if caller_cls != target_cls:
                    external_callers.add(target)
                    continue
                held = self.held_ids(
                    list(site["held"]), caller_rel, caller_cls,
                    self.nodes[caller_key][2].name,
                )
                callers.setdefault(target, []).append((caller_key, held))
        result: Dict[NodeKey, FrozenSet[str]] = {
            key: frozenset() for key in self.nodes
        }
        for _round in range(_LOCK_ROUNDS):
            changed = False
            for key in eligible:
                if key in external_callers or key not in callers:
                    continue
                if key in self.thread_seeds():
                    continue
                sets = [
                    held | result[caller]
                    for caller, held in callers[key]
                ]
                merged: FrozenSet[str] = sets[0]
                for s in sets[1:]:
                    merged = merged & s
                if merged != result[key]:
                    result[key] = merged
                    changed = True
            if not changed:
                break
        self._entry_locks = result
        return result

    def effective_held(
        self, key: NodeKey, site_held: List[str]
    ) -> FrozenSet[str]:
        """Locks held at a site: syntactic + caller-propagated."""
        relpath, cls, func = self.nodes[key]
        syntactic = self.held_ids(site_held, relpath, cls, func.name)
        return syntactic | self.entry_locks().get(key, frozenset())

    # -- convenience iterators ----------------------------------------------

    def iter_nodes(
        self,
    ) -> Iterator[Tuple[NodeKey, str, Optional[str], FuncSummary]]:
        for key in sorted(self.nodes):
            relpath, cls, func = self.nodes[key]
            yield key, relpath, cls, func
