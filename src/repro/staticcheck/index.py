"""Whole-program project index: per-file symbol summaries.

The per-file rules see one :class:`~repro.staticcheck.findings.Module`
at a time; the C-family concurrency rules need to know what *every*
file declares — which classes exist, which attributes they carry, which
of those are ``threading`` locks, which methods run on which threads,
and who calls whom.  This module builds that knowledge as one
:class:`FileSummary` per file plus a :class:`ProjectIndex` over all of
them.

Summaries are plain data (no AST nodes): the whole-program rules
consume summaries only, never a file's syntax tree.

Two tiny sub-languages encode cross-file references:

* a **type expression** (``texpr``) names the static type of an
  expression: ``["self"]`` (instance of the enclosing class),
  ``["name", "FabricCoordinator"]``, ``["attr", T, "guard"]`` (the type
  of attribute ``guard`` on ``T``), ``["ret", C]`` (the return type of
  call ``C``) and ``["elem", T]`` (the value type of a subscripted
  container).
* a **call expression** (``cexpr``) names a call target:
  ``["dotted", "time.sleep"]`` for import-resolved dotted calls and
  ``["method", T, "inc"]`` for method calls on a typed receiver.

Resolution of both happens in :mod:`repro.staticcheck.callgraph`, where
the whole index is visible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .astutil import dotted_name, resolve
from .findings import Module

__all__ = [
    "FileSummary",
    "ClassSummary",
    "FuncSummary",
    "ProjectIndex",
    "build_summary",
    "module_name_for",
]

#: JSON-shaped type / call expressions (see module docstring)
TExpr = List[Any]
CExpr = List[Any]

#: method names whose call mutates the receiver in place
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "popleft", "appendleft", "remove", "discard",
        "clear", "difference_update", "intersection_update",
        "symmetric_difference_update", "sort", "reverse",
    }
)

#: threading constructors that make an attribute a mutual-exclusion field
_LOCK_TYPES = frozenset(
    {
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Semaphore", "threading.BoundedSemaphore",
    }
)
#: thread-safe signalling primitives (inventoried, but not mutexes)
_EVENT_TYPES = frozenset({"threading.Event", "threading.Barrier"})

#: constructors whose ``target=`` becomes a thread entry point
_THREAD_CTORS = frozenset({"threading.Thread", "threading.Timer"})

#: base classes whose subclasses' methods all run on server threads
_HANDLER_BASES = frozenset(
    {
        "http.server.BaseHTTPRequestHandler",
        "BaseHTTPRequestHandler",
        "socketserver.BaseRequestHandler",
        "socketserver.StreamRequestHandler",
    }
)

#: names that look like locks even without a known assignment (fixture
#: and local-variable support for C602/C603)
_LOCKISH_FRAGMENTS = ("lock", "mutex", "cond")


def module_name_for(relpath: str) -> str:
    """Dotted module name of a file relative to the scan root."""
    rel = relpath.replace("\\", "/")
    if rel.endswith(".py"):
        rel = rel[: -len(".py")]
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _ann_info(node: Optional[ast.expr]) -> Optional[Dict[str, Any]]:
    """``{"name": ..., "elem": ...}`` from an annotation expression.

    Unwraps ``Optional``/``Union``/``ClassVar`` and string annotations;
    records the value type of ``Dict[...]`` / element type of
    ``List``-likes as ``elem`` so subscript loads can be typed.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return None
        return _ann_info(parsed.body)
    if isinstance(node, ast.Name):
        return {"name": node.id, "elem": None}
    if isinstance(node, ast.Attribute):
        return {"name": node.attr, "elem": None}
    if isinstance(node, ast.Subscript):
        head = dotted_name(node.value)
        head_tail = (head or "").rpartition(".")[2]
        inner = node.slice
        items: List[ast.expr]
        if isinstance(inner, ast.Tuple):
            items = list(inner.elts)
        else:
            items = [inner]
        if head_tail in ("Optional", "Union", "ClassVar", "Final"):
            for item in items:
                info = _ann_info(item)
                if info is not None and info["name"] != "None":
                    return info
            return None
        if head_tail in ("Dict", "dict", "Mapping", "MutableMapping",
                         "DefaultDict", "OrderedDict"):
            value = _ann_info(items[1]) if len(items) > 1 else None
            return {
                "name": head_tail,
                "elem": value["name"] if value else None,
            }
        if head_tail in ("List", "list", "Set", "set", "FrozenSet",
                         "frozenset", "Deque", "deque", "Sequence",
                         "Iterable", "Iterator", "Tuple", "tuple"):
            elem = _ann_info(items[0]) if items else None
            return {
                "name": head_tail,
                "elem": elem["name"] if elem else None,
            }
        base = _ann_info(node.value)
        return base
    return None


@dataclass
class FuncSummary:
    """Everything the whole-program rules need about one function."""

    name: str
    line: int = 0
    #: parameter names paired with their annotated type name (or None)
    params: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    #: annotated return type info ({"name", "elem"}) or None
    returns: Optional[Dict[str, Any]] = None
    #: call sites: target cexpr + context the rules ask about
    calls: List[Dict[str, Any]] = field(default_factory=list)
    #: attribute mutations (owner texpr, attr, how, locks held, ...)
    writes: List[Dict[str, Any]] = field(default_factory=list)
    #: first read site per directly-read ``self.<attr>``
    reads: Dict[str, List[Any]] = field(default_factory=dict)
    #: explicit ``<lock>.acquire()`` sites (C602)
    acquires: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: bases, attribute inventory, lock fields, methods."""

    name: str
    line: int = 0
    #: import-resolved dotted base-class names
    bases: List[str] = field(default_factory=list)
    #: instance attributes ever assigned through ``self.<attr>``
    attrs: List[str] = field(default_factory=list)
    #: attributes assigned a ``threading`` mutex (Lock/RLock/Condition/...)
    locks: List[str] = field(default_factory=list)
    #: attributes assigned a thread-safe signal (Event/Barrier)
    events: List[str] = field(default_factory=list)
    #: attribute -> {"name": type, "elem": value type} from annotations
    #: or constructor assignments
    attr_types: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    methods: Dict[str, FuncSummary] = field(default_factory=dict)


@dataclass
class FileSummary:
    """The whole-program-relevant content of one source file."""

    relpath: str
    module: str
    scopes: List[str] = field(default_factory=list)
    #: line -> suppressed codes (None = every rule), a copy of the
    #: Module's pragma table so project findings are suppressed too
    suppressions: Dict[int, Optional[List[str]]] = field(
        default_factory=dict
    )
    #: absolute (scan-root-relative) dotted names this module imports
    imports: List[str] = field(default_factory=list)
    #: metric registration sites: [name, kind, line, col, snippet]
    metric_sites: List[List[Any]] = field(default_factory=list)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    functions: Dict[str, FuncSummary] = field(default_factory=dict)
    #: ``threading.Thread(target=...)`` sites: ``{"t": cexpr, "cls": name}``
    #: where ``cls`` is the class whose method created the thread
    thread_targets: List[Dict[str, Any]] = field(default_factory=list)


# -- summary construction -----------------------------------------------------


class _FunctionScanner:
    """One pass over a function body: calls, writes, reads, locks held."""

    def __init__(
        self,
        builder: "_SummaryBuilder",
        func: FuncSummary,
        node: ast.AST,
        own_class: Optional[ClassSummary],
    ) -> None:
        self.b = builder
        self.func = func
        self.own_class = own_class
        #: local variable name -> texpr
        self.locals: Dict[str, TExpr] = {}
        #: textual lock names assigned threading.Lock() locally
        self.local_locks: Set[str] = set()
        args = getattr(node, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            ):
                info = _ann_info(arg.annotation)
                self.func.params.append(
                    (arg.arg, info["name"] if info else None)
                )
                if info is not None:
                    self.locals[arg.arg] = ["name", info["name"]]

    # -- type/call expression inference (in-file knowledge only) ----------

    def texpr_of(self, node: ast.expr) -> Optional[TExpr]:
        if isinstance(node, ast.Name):
            if node.id == "self":
                return ["self"]
            return self.locals.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.texpr_of(node.value)
            if base is None:
                return None
            return ["attr", base, node.attr]
        if isinstance(node, ast.Call):
            cexpr = self.cexpr_of(node)
            if cexpr is None:
                return None
            return ["ret", cexpr]
        if isinstance(node, ast.Subscript):
            base = self.texpr_of(node.value)
            if base is None:
                return None
            return ["elem", base]
        return None

    def cexpr_of(self, call: ast.Call) -> Optional[CExpr]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.locals:
                return None  # calling a typed local: not resolvable
            return ["dotted", resolve(func.id, self.b.aliases)]
        if not isinstance(func, ast.Attribute):
            return None
        recv = func.value
        recv_texpr = self.texpr_of(recv)
        if recv_texpr is not None:
            return ["method", recv_texpr, func.attr]
        name = dotted_name(func)
        if name is not None:
            return ["dotted", resolve(name, self.b.aliases)]
        return None

    # -- the statement walk ------------------------------------------------

    def scan(self, body: Sequence[ast.stmt]) -> None:
        self._scan_block(body, held=())

    def _scan_block(
        self, body: Sequence[ast.stmt], held: Tuple[str, ...]
    ) -> None:
        for stmt in body:
            self._scan_stmt(stmt, held)

    def _lockish(self, text: str) -> bool:
        """Whether a textual receiver plausibly names a mutex."""
        if text in self.local_locks:
            return True
        tail = text.rpartition(".")[2].lower()
        if any(frag in tail for frag in _LOCKISH_FRAGMENTS):
            return True
        if text.startswith("self.") and self.own_class is not None:
            return text[len("self."):] in self.own_class.locks
        return False

    def _scan_stmt(self, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            inner = held
            for item in stmt.items:
                ctx = item.context_expr
                text = dotted_name(ctx)
                if text is not None and self._lockish(text):
                    if text not in inner:
                        inner = inner + (text,)
                else:
                    self._scan_expr(ctx, held)
                if item.optional_vars is not None and isinstance(
                    item.optional_vars, ast.Name
                ):
                    texpr = self.texpr_of(ctx)
                    if texpr is not None:
                        self.locals[item.optional_vars.id] = texpr
            self._scan_block(stmt.body, inner)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs (closures) run on the enclosing call path for
            # our purposes; lambdas are handled by generic expr walk.
            self._scan_block(stmt.body, held)
            return
        if isinstance(stmt, ast.ClassDef):
            return  # local classes: out of scope
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._scan_assign(stmt, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_write_target(target, "del", held)
                self._scan_expr(target, held)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test, held)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, held)
            self._record_write_target(stmt.target, "assign", held)
            self._type_loop_target(stmt.target, stmt.iter)
            self._scan_block(stmt.body, held)
            self._scan_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, held)
            for handler in stmt.handlers:
                self._scan_block(handler.body, held)
            self._scan_block(stmt.orelse, held)
            self._scan_block(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value, held)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)
            elif isinstance(child, ast.stmt):
                self._scan_stmt(child, held)

    def _scan_assign(self, stmt: ast.stmt, held: Tuple[str, ...]) -> None:
        value: Optional[ast.expr]
        targets: List[ast.expr]
        how = "assign"
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, list(stmt.targets)
        elif isinstance(stmt, ast.AnnAssign):
            value, targets = stmt.value, [stmt.target]
        else:
            assert isinstance(stmt, ast.AugAssign)
            value, targets = stmt.value, [stmt.target]
            how = "aug"
        if value is not None:
            self._scan_expr(value, held)
        for target in targets:
            self._record_write_target(target, how, held)
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._scan_expr(target.value, held)
        # local type tracking: `v = <expr>` with an inferable type
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and value is not None
        ):
            name = stmt.targets[0].id
            texpr = self.texpr_of(value)
            if texpr is not None:
                self.locals[name] = texpr
            elif name in self.locals:
                del self.locals[name]
            if isinstance(value, ast.Call):
                cname = dotted_name(value.func)
                if cname is not None and resolve(
                    cname, self.b.aliases
                ) in _LOCK_TYPES:
                    self.local_locks.add(name)
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            info = _ann_info(stmt.annotation)
            if info is not None:
                self.locals[stmt.target.id] = ["name", info["name"]]

    def _type_loop_target(
        self, target: ast.expr, iter_expr: ast.expr
    ) -> None:
        """Type a loop variable from a typed container's element type.

        Covers ``for c in self._counters.values():`` (and iteration
        over the container itself) — the loop variable carries the
        container's value/element type, which is what lets writes like
        ``c.value = 0`` in a driver-side sweep join the cross-thread
        access analysis.
        """
        if not isinstance(target, ast.Name):
            return
        base = iter_expr
        if (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Attribute)
            and base.func.attr in ("values", "keys", "items")
            and not base.args
        ):
            if base.func.attr != "values":
                return  # keys/items: element type is not the value type
            base = base.func.value
        texpr = self.texpr_of(base)
        if texpr is not None:
            self.locals[target.id] = ["elem", texpr]

    def _record_write_target(
        self, target: ast.expr, how: str, held: Tuple[str, ...]
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write_target(elt, how, held)
            return
        if isinstance(target, ast.Starred):
            self._record_write_target(target.value, how, held)
            return
        if isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self._record_attr_write(target.value, "subscript", held)
            return
        if isinstance(target, ast.Attribute):
            self._record_attr_write(target, how, held)

    def _record_attr_write(
        self, attr_node: ast.Attribute, how: str, held: Tuple[str, ...]
    ) -> None:
        owner = self.texpr_of(attr_node.value)
        if owner is None:
            return
        self.func.writes.append(
            {
                "owner": owner,
                "attr": attr_node.attr,
                "how": how,
                "line": attr_node.lineno,
                "col": attr_node.col_offset,
                "held": list(held),
                "snippet": self.b.snippet(attr_node.lineno),
            }
        )
        if owner == ["self"] and self.own_class is not None:
            if attr_node.attr not in self.own_class.attrs:
                self.own_class.attrs.append(attr_node.attr)

    def _scan_expr(self, node: ast.expr, held: Tuple[str, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub, held)
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                if (
                    isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr not in self.func.reads
                ):
                    self.func.reads[sub.attr] = [
                        sub.lineno, sub.col_offset, list(held)
                    ]

    def _record_call(self, call: ast.Call, held: Tuple[str, ...]) -> None:
        func = call.func
        recv_text: Optional[str] = None
        if isinstance(func, ast.Attribute):
            recv_text = dotted_name(func.value)
            # in-place mutation through a method call on an attribute
            if func.attr in _MUTATORS and isinstance(
                func.value, ast.Attribute
            ):
                self._record_attr_write(func.value, "call", held)
            # explicit acquire() on something lock-shaped (C602)
            if func.attr == "acquire" and recv_text is not None and (
                self._lockish(recv_text)
            ):
                self.func.acquires.append(
                    {
                        "recv": recv_text,
                        "line": call.lineno,
                        "col": call.col_offset,
                        "released": False,  # settled by the builder
                        "snippet": self.b.snippet(call.lineno),
                    }
                )
        cexpr = self.cexpr_of(call)
        if cexpr is None:
            return
        kwargs = [kw.arg for kw in call.keywords if kw.arg is not None]
        has_star_kw = any(kw.arg is None for kw in call.keywords)
        timeout = has_star_kw
        for kw in call.keywords:
            if kw.arg == "timeout" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                timeout = True
        self.func.calls.append(
            {
                "t": cexpr,
                "line": call.lineno,
                "col": call.col_offset,
                "held": list(held),
                "recv": recv_text,
                "timeout": timeout,
                "kw": kwargs,
                "nargs": len(call.args),
                "snippet": self.b.snippet(call.lineno),
            }
        )
        # threading.Thread(target=...) seeds the thread-entry set
        if cexpr[0] == "dotted" and cexpr[1] in _THREAD_CTORS:
            for kw in call.keywords:
                if kw.arg == "target":
                    target_cexpr = self._entry_cexpr(kw.value)
                    if target_cexpr is not None:
                        self.b.summary.thread_targets.append(
                            {
                                "t": target_cexpr,
                                "cls": (
                                    self.own_class.name
                                    if self.own_class is not None
                                    else None
                                ),
                            }
                        )
        # metric registration sites (for the cross-file O402 rule)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("counter", "gauge", "histogram")
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            self.b.summary.metric_sites.append(
                [
                    call.args[0].value,
                    func.attr,
                    call.lineno,
                    call.col_offset,
                    self.b.snippet(call.lineno),
                ]
            )

    def _entry_cexpr(self, node: ast.expr) -> Optional[CExpr]:
        """Encode a ``target=`` expression as a callable reference."""
        if isinstance(node, ast.Attribute):
            base = self.texpr_of(node.value)
            if base is not None:
                return ["method", base, node.attr]
        name = dotted_name(node)
        if name is not None:
            return ["dotted", resolve(name, self.b.aliases)]
        return None


class _SummaryBuilder:
    """Builds one :class:`FileSummary` from a parsed module."""

    def __init__(self, module: Module) -> None:
        self.mod = module
        self.aliases = module.aliases
        self.summary = FileSummary(
            relpath=module.relpath,
            module=module_name_for(module.relpath),
            scopes=sorted(module.scopes),
            suppressions={
                line: (None if codes is None else sorted(codes))
                for line, codes in module.suppressions.items()
            },
        )

    def snippet(self, line: int) -> str:
        return self.mod.snippet(line)

    def declare(self) -> None:
        """First pass: imports + class shells (bases, annotated attrs)."""
        self._collect_imports()
        for node in self.mod.tree.body:
            if isinstance(node, ast.ClassDef):
                self._declare_class(node)

    def scan_bodies(self) -> None:
        """Second pass: function bodies (needs lock fields settled)."""
        for node in self.mod.tree.body:
            self._top_level(node)
        self._settle_acquire_releases()

    # -- imports -----------------------------------------------------------

    def _collect_imports(self) -> None:
        pkg_parts = self.summary.module.split(".")[:-1] if (
            self.summary.module
        ) else []
        if self.summary.relpath.endswith("__init__.py"):
            pkg_parts = self.summary.module.split(".") if (
                self.summary.module
            ) else []
        seen: Set[str] = set()
        for node in ast.walk(self.mod.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    seen.add(a.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = pkg_parts[: len(pkg_parts) - (
                        node.level - 1
                    )] if node.level > 1 else list(pkg_parts)
                    if node.module:
                        base_parts = base_parts + node.module.split(".")
                    if base_parts:
                        seen.add(".".join(base_parts))
                    # `from . import x` / `from .pkg import mod`: the
                    # bound names may themselves be modules
                    for a in node.names:
                        if a.name != "*":
                            seen.add(".".join(base_parts + [a.name]))
                elif node.module:
                    seen.add(node.module)
                    for a in node.names:
                        if a.name != "*":
                            seen.add(f"{node.module}.{a.name}")
        self.summary.imports = sorted(seen)

    # -- declarations -------------------------------------------------------

    def _top_level(self, node: ast.stmt) -> None:
        if isinstance(node, ast.ClassDef):
            self._scan_class(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = FuncSummary(name=node.name, line=node.lineno)
            func.returns = _ann_info(node.returns)
            scanner = _FunctionScanner(self, func, node, None)
            scanner.scan(node.body)
            self.summary.functions[node.name] = func
        elif isinstance(node, (ast.Assign, ast.Expr, ast.If, ast.Try,
                               ast.With)):
            # module-level executable code can still start threads /
            # register metrics: scan it as an anonymous function
            func = self.summary.functions.setdefault(
                "<module>", FuncSummary(name="<module>", line=1)
            )
            scanner = _FunctionScanner(self, func, node, None)
            scanner._scan_stmt(node, ())

    def _declare_class(self, node: ast.ClassDef) -> None:
        cls = ClassSummary(name=node.name, line=node.lineno)
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                cls.bases.append(resolve(name, self.aliases))
        self.summary.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info = _ann_info(stmt.annotation)
                if info is not None:
                    cls.attr_types[stmt.target.id] = info
                if stmt.target.id not in cls.attrs:
                    cls.attrs.append(stmt.target.id)

    def _scan_class(self, node: ast.ClassDef) -> None:
        cls = self.summary.classes[node.name]
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = FuncSummary(name=stmt.name, line=stmt.lineno)
                func.returns = _ann_info(stmt.returns)
                scanner = _FunctionScanner(self, func, stmt, cls)
                scanner.scan(stmt.body)
                cls.methods[stmt.name] = func

    # -- acquire/release pairing (C602) -------------------------------------

    def _settle_acquire_releases(self) -> None:
        """Mark ``.acquire()`` sites that have a matching finally-release."""
        releases: Dict[str, List[Tuple[int, int]]] = {}
        for node in ast.walk(self.mod.tree):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            span = (
                node.lineno,
                max(
                    getattr(n, "end_lineno", node.lineno) or node.lineno
                    for n in node.finalbody
                ),
            )
            for sub in node.finalbody:
                for call in ast.walk(sub):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "release"
                    ):
                        text = dotted_name(call.func.value)
                        if text is not None:
                            releases.setdefault(text, []).append(span)
        for container in list(self.summary.functions.values()) + [
            m
            for c in self.summary.classes.values()
            for m in c.methods.values()
        ]:
            for acq in container.acquires:
                for start, end in releases.get(acq["recv"], ()):
                    # blessed when the release's try spans the acquire
                    # or begins right after it (acquire(); try/finally)
                    if start <= acq["line"] <= end or (
                        0 <= start - acq["line"] <= 2
                    ):
                        acq["released"] = True
                        break


def _note_attr_assignment_types(
    summary: FileSummary, module: Module
) -> None:
    """Second pass: attribute types and lock fields from assignments.

    ``self.x = ClassName(...)`` types ``x`` as ``ClassName``;
    ``self.x = threading.Lock()`` additionally inventories ``x`` as a
    lock field; ``self.x: T = ...`` uses the annotation.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = summary.classes.get(node.name)
        if cls is None:
            continue
        for sub in ast.walk(node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            ann: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, ann = sub.target, sub.value, sub.annotation
            else:
                continue
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            if ann is not None:
                info = _ann_info(ann)
                if info is not None:
                    cls.attr_types.setdefault(attr, info)
            if isinstance(value, ast.Call):
                name = dotted_name(value.func)
                if name is None:
                    continue
                resolved = resolve(name, module.aliases)
                if resolved in _LOCK_TYPES:
                    if attr not in cls.locks:
                        cls.locks.append(attr)
                elif resolved in _EVENT_TYPES:
                    if attr not in cls.events:
                        cls.events.append(attr)
                else:
                    tail = resolved.rpartition(".")[2]
                    if tail and tail[:1].isupper():
                        cls.attr_types.setdefault(
                            attr, {"name": tail, "elem": None}
                        )


def build_summary(module: Module) -> FileSummary:
    """Build the whole-program summary for one parsed module."""
    builder = _SummaryBuilder(module)
    builder.declare()
    # settle lock/event fields and constructor-inferred attribute types
    # BEFORE scanning bodies, so `with self.<lockfield>:` is recognized
    # even when the field name carries no "lock"-ish fragment
    _note_attr_assignment_types(builder.summary, module)
    builder.scan_bodies()
    return builder.summary


# -- the whole-program index --------------------------------------------------


class ProjectIndex:
    """All file summaries plus cross-file resolution tables."""

    def __init__(self, summaries: Sequence[FileSummary]) -> None:
        self.files: Dict[str, FileSummary] = {
            s.relpath: s for s in summaries
        }
        #: dotted module name -> relpath
        self.modules: Dict[str, str] = {
            s.module: s.relpath for s in summaries if s.module
        }
        #: class name -> [(relpath, ClassSummary)] (resolution by name)
        self.classes: Dict[str, List[Tuple[str, ClassSummary]]] = {}
        for s in summaries:
            for cls in s.classes.values():
                self.classes.setdefault(cls.name, []).append(
                    (s.relpath, cls)
                )

    # -- module / import resolution -----------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """relpath of an imported dotted name, tolerating package roots.

        ``repro.runtime.journal`` matches the scanned ``runtime.journal``
        (imports spell the installed package name; relpaths are
        scan-root-relative), by stripping leading segments until a
        scanned module matches.
        """
        parts = dotted.split(".")
        for skip in range(len(parts)):
            candidate = ".".join(parts[skip:])
            if candidate in self.modules:
                return self.modules[candidate]
        return None

    # -- class resolution ----------------------------------------------------

    def class_by_name(
        self, name: str
    ) -> Optional[Tuple[str, ClassSummary]]:
        """The unique class with this name, or None when absent/ambiguous."""
        candidates = self.classes.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def iter_classes(self) -> Iterator[Tuple[str, ClassSummary]]:
        for relpath in sorted(self.files):
            summary = self.files[relpath]
            for name in sorted(summary.classes):
                yield relpath, summary.classes[name]

    def suppressed(self, relpath: str, line: int, code: str) -> bool:
        summary = self.files.get(relpath)
        if summary is None or line not in summary.suppressions:
            return False
        codes = summary.suppressions[line]
        return codes is None or code in codes

    # -- thread-entry seeding ------------------------------------------------

    def handler_classes(self) -> Set[Tuple[str, str]]:
        """(relpath, class) pairs whose methods run on server threads."""
        out: Set[Tuple[str, str]] = set()
        for relpath, cls in self.iter_classes():
            if self._is_handler(relpath, cls, depth=0):
                out.add((relpath, cls.name))
        return out

    def _is_handler(
        self, relpath: str, cls: ClassSummary, depth: int
    ) -> bool:
        if depth > 8:
            return False
        for base in cls.bases:
            tail = base.rpartition(".")[2]
            if base in _HANDLER_BASES or tail in {
                b.rpartition(".")[2] for b in _HANDLER_BASES
            }:
                return True
            parent = self.class_by_name(tail)
            if parent is not None and self._is_handler(
                parent[0], parent[1], depth + 1
            ):
                return True
        return False

    def thread_subclasses(self) -> Set[Tuple[str, str]]:
        """(relpath, class) pairs subclassing ``threading.Thread``."""
        out: Set[Tuple[str, str]] = set()
        for relpath, cls in self.iter_classes():
            for base in cls.bases:
                if base == "threading.Thread" or base.rpartition(
                    "."
                )[2] == "Thread":
                    out.add((relpath, cls.name))
        return out

    def thread_entries(self) -> List[Tuple[str, Optional[str], str]]:
        """Seed (relpath, class | None, func) thread-entry points.

        Seeded from explicit ``threading.Thread(target=...)`` sites,
        every method of an ``http.server``-style handler class, and the
        ``run`` method of ``threading.Thread`` subclasses.
        """
        entries: Set[Tuple[str, Optional[str], str]] = set()
        for relpath, summary in self.files.items():
            for site in summary.thread_targets:
                entries.update(
                    self._entries_for_target(relpath, site["t"])
                )
                # `target=self.method` inside a class method
                target = site["t"]
                if (
                    target[0] == "method"
                    and target[1] == ["self"]
                    and site.get("cls")
                ):
                    cls = summary.classes.get(site["cls"])
                    if cls is not None and target[2] in cls.methods:
                        entries.add((relpath, cls.name, target[2]))
        for relpath, clsname in self.handler_classes():
            cls = self.files[relpath].classes[clsname]
            for method in cls.methods:
                entries.add((relpath, clsname, method))
        for relpath, clsname in self.thread_subclasses():
            cls = self.files[relpath].classes[clsname]
            if "run" in cls.methods:
                entries.add((relpath, clsname, "run"))
        return sorted(
            entries, key=lambda e: (e[0], e[1] or "", e[2])
        )

    def _entries_for_target(
        self, relpath: str, target: CExpr
    ) -> Set[Tuple[str, Optional[str], str]]:
        out: Set[Tuple[str, Optional[str], str]] = set()
        if target[0] == "dotted":
            dotted = target[1]
            head, _, tail = dotted.rpartition(".")
            summary = self.files[relpath]
            if not head and dotted in summary.functions:
                out.add((relpath, None, dotted))
                return out
            mod = self.resolve_module(head) if head else None
            if mod is not None and tail in self.files[mod].functions:
                out.add((mod, None, tail))
                return out
            resolved = self.class_by_name(head.rpartition(".")[2]) if (
                head
            ) else None
            if resolved is not None and tail in resolved[1].methods:
                out.add((resolved[0], resolved[1].name, tail))
        elif target[0] == "method":
            # resolution of the receiver texpr needs the call graph's
            # machinery; the CallGraph re-seeds these (see callgraph)
            pass
        return out
