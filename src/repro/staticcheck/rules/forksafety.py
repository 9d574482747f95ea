"""Runtime fork- and IO-safety rules (family F).

The campaign runtime's crash-consistency story rests on two invariants:
workers are *spawned* (never forked — a forked child inherits live file
handles, signal handlers and RNG state), signal handlers are owned by
the executor's drain machinery alone, and every whole-file write of
campaign state goes through the tmp + fsync + rename pattern that
``Journal.compact()`` established (now shared as
:func:`repro.ioutil.atomic_write`).

The distributed fabric adds a third liveness invariant: no socket or
HTTP call in a fabric/executor module may run without an explicit
timeout, because lease expiry and orphan detection only work when every
RPC eventually returns (F303).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Union

from ..astutil import const_value, resolve_call
from ..findings import Finding, Module, Rule
from ..registry import register

__all__ = [
    "ForkSafety", "AtomicWrite", "UntimedNetworkCall", "UnboundedBodyRead",
]

#: calls that make the rename-pattern visible inside a function body
_ATOMIC_MARKERS = ("os.replace", "os.rename", "atomic_write")


@register
class ForkSafety(Rule):
    code = "F301"
    slug = "fork-safety"
    family = "forksafety"
    summary = (
        "fork start-method, os.fork, or a signal handler registered "
        "outside the executor"
    )
    rationale = (
        "Forked workers inherit open journal file descriptors, the "
        "parent's signal handlers and its RNG state — all three break "
        "the isolation and resume guarantees tests/chaos proves.  The "
        "executor uses spawn, and it alone installs (and restores) the "
        "SIGINT/SIGTERM drain handlers."
    )
    scope = None

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, module.aliases)
            if name in ("os.fork", "os.forkpty"):
                yield module.finding(
                    node, self.code,
                    f"{name}() forks the campaign driver; workers must "
                    "be spawned (multiprocessing spawn context)",
                )
                continue
            if name is None:
                continue
            tail = name.rpartition(".")[2]
            if tail in ("get_context", "set_start_method") and node.args:
                if const_value(node.args[0]) == "fork":
                    yield module.finding(
                        node, self.code,
                        "fork start method: forked workers inherit file "
                        "handles, signal handlers and RNG state; use "
                        "spawn",
                    )
            elif name == "signal.signal" and "executor" not in module.scopes:
                yield module.finding(
                    node, self.code,
                    "signal handler registered outside the executor; "
                    "drain handlers are owned by runtime.Executor (and "
                    "restored by it)",
                )


def _write_mode(call: ast.Call) -> Optional[str]:
    """The constant file mode of an open()-style call, if any."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    elif isinstance(call.func, ast.Attribute) and call.args:
        # path.open("w") — mode is the first argument
        mode = call.args[0]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    value = const_value(mode)
    return value if isinstance(value, str) else None


@register
class AtomicWrite(Rule):
    code = "F302"
    slug = "atomic-write"
    family = "forksafety"
    summary = (
        "truncating file write in a persistence module outside the "
        "tmp + fsync + rename pattern"
    )
    rationale = (
        "A campaign killed mid-write must leave either the old or the "
        "new file, never a torn hybrid: journals, metric snapshots and "
        "trace exports are all read back by resume and analysis "
        "tooling.  Whole-file writes must go through "
        "repro.ioutil.atomic_write (or an explicit tmp+os.replace in "
        "the same function); appends are exempt — the journal's "
        "append path is protected by per-record CRCs instead."
    )
    scope = "persistence"

    def check(self, module: Module) -> Iterator[Finding]:
        funcs = [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for call in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        ):
            what = self._sink(call, module)
            if what is None:
                continue
            if self._blessed(call, module, funcs):
                continue
            yield module.finding(
                call, self.code,
                f"{what} replaces a file non-atomically; use "
                "repro.ioutil.atomic_write (tmp + fsync + rename)",
            )

    def _sink(self, call: ast.Call, module: Module) -> Optional[str]:
        """Describe the truncating write this call performs, if any."""
        name = resolve_call(call, module.aliases)
        if name == "open" or (
            isinstance(call.func, ast.Attribute) and call.func.attr == "open"
            and name not in ("os.open",)
        ):
            mode = _write_mode(call)
            if mode is not None and mode.startswith(("w", "x")):
                return f"open(..., {mode!r})"
            return None
        if isinstance(call.func, ast.Attribute) and call.func.attr in (
            "write_text", "write_bytes"
        ):
            return f".{call.func.attr}(...)"
        if name in (
            "numpy.save", "numpy.savez", "numpy.savez_compressed",
            "numpy.savetxt",
        ):
            return name.replace("numpy", "np") + "(...)"
        return None

    def _blessed(
        self,
        call: ast.Call,
        module: Module,
        funcs: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]],
    ) -> bool:
        """Whether the enclosing function exhibits the rename pattern."""
        scan_root = _enclosing_function(call, funcs) or module.tree
        for node in ast.walk(scan_root):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, module.aliases)
            if name is None:
                continue
            if name in _ATOMIC_MARKERS or name.rpartition(".")[2] == (
                "atomic_write"
            ):
                return True
        return False


def _enclosing_function(
    node: ast.AST,
    funcs: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]],
) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """The innermost function whose span contains ``node``, if any."""
    enclosing: Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = None
    line = getattr(node, "lineno", 0)
    for fn in funcs:
        if fn.lineno <= line <= (fn.end_lineno or fn.lineno):
            # innermost wins: keep the latest-starting candidate
            if enclosing is None or fn.lineno >= enclosing.lineno:
                enclosing = fn
    return enclosing


#: constructors/openers that take an optional timeout (keyword position
#: of the positional timeout argument, or None when only keyword works)
_NETWORK_SINKS = {
    "http.client.HTTPConnection": 2,
    "http.client.HTTPSConnection": 2,
    "socket.create_connection": 1,
    "urllib.request.urlopen": 2,
}


@register
class UntimedNetworkCall(Rule):
    code = "F303"
    slug = "untimed-network-call"
    family = "forksafety"
    summary = (
        "socket/HTTP call without an explicit timeout in a fabric or "
        "executor module"
    )
    rationale = (
        "The fabric's liveness guarantees (lease expiry re-dispatches "
        "work, dead coordinators demote workers to exit) all assume no "
        "RPC can block forever.  Python sockets default to *no* "
        "timeout, so one forgotten keyword turns a partition into a "
        "hung campaign.  Every connection constructor must pass "
        "``timeout=`` (or call ``settimeout`` with a bound); "
        "``settimeout(None)`` re-disables it and is equally flagged."
    )
    scope = "fabric"

    #: the rule also guards the single-host executor (same liveness
    #: argument: drains must never wait on an unbounded socket)
    _SCOPES = frozenset({"fabric", "executor"})

    def applies(self, module: Module) -> bool:
        return bool(self._SCOPES & module.scopes)

    def check(self, module: Module) -> Iterator[Finding]:
        funcs = [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for call in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        ):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "settimeout"
                and call.args
                and const_value(call.args[0]) is None
            ):
                yield module.finding(
                    call, self.code,
                    "settimeout(None) disables the socket timeout; a "
                    "dead peer then blocks the fabric forever",
                )
                continue
            name = resolve_call(call, module.aliases)
            if name is None:
                continue
            if name == "socket.socket":
                if not self._sets_timeout_nearby(call, module, funcs):
                    yield module.finding(
                        call, self.code,
                        "socket.socket() starts with no timeout; call "
                        "settimeout(...) in the same function or use "
                        "socket.create_connection(..., timeout=...)",
                    )
                continue
            pos = _NETWORK_SINKS.get(name)
            if pos is None:
                continue
            if self._has_timeout(call, pos):
                continue
            yield module.finding(
                call, self.code,
                f"{name}(...) without an explicit timeout: a dead or "
                "partitioned peer blocks this call forever; pass "
                "timeout=",
            )

    @staticmethod
    def _has_timeout(call: ast.Call, pos: int) -> bool:
        """Whether the call pins a timeout (keyword, position or **kw)."""
        for kw in call.keywords:
            if kw.arg == "timeout":
                return const_value(kw.value) is not None
            if kw.arg is None:  # **kwargs: can't see inside, trust it
                return True
        return len(call.args) > pos

    def _sets_timeout_nearby(
        self,
        call: ast.Call,
        module: Module,
        funcs: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]],
    ) -> bool:
        """Whether the enclosing function calls settimeout(bound)."""
        scan_root = _enclosing_function(call, funcs) or module.tree
        for node in ast.walk(scan_root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "settimeout"
                and node.args
                and const_value(node.args[0]) is not None
            ):
                return True
        return False


@register
class UnboundedBodyRead(Rule):
    code = "F304"
    slug = "unbounded-body-read"
    family = "forksafety"
    summary = (
        "HTTP handler reads its request body without a constant bound"
    )
    rationale = (
        "``rfile.read(length)`` with a client-supplied Content-Length "
        "(or no argument at all) lets one hostile or buggy request "
        "allocate arbitrary memory before the handler can refuse it "
        "— the classic way a serving process dies under one bad "
        "client instead of rejecting it.  Handlers must cap the length "
        "*first* and read in constant-bounded chunks; the fabric "
        "coordinator's ``_read_body`` packages the whole pattern "
        "(validate, 413/400, chunked read)."
    )
    scope = "service"

    #: any HTTP handler under report/ and the fabric coordinator's RPC
    #: endpoint are held to this
    _SCOPES = frozenset({"service", "fabric"})

    def applies(self, module: Module) -> bool:
        return bool(self._SCOPES & module.scopes)

    def check(self, module: Module) -> Iterator[Finding]:
        for call in (
            n for n in ast.walk(module.tree) if isinstance(n, ast.Call)
        ):
            if not self._is_rfile_read(call):
                continue
            if not call.args:
                yield module.finding(
                    call, self.code,
                    "rfile.read() with no size reads until the peer "
                    "closes; a slow client pins this thread and its "
                    "memory forever",
                )
                continue
            if self._bounded(call.args[0]):
                continue
            yield module.finding(
                call, self.code,
                "rfile.read(n) where n comes from the request: a lying "
                "Content-Length allocates unbounded memory; clamp it "
                "(min(n, CAP)) or use the coordinator's _read_body",
            )

    @staticmethod
    def _is_rfile_read(call: ast.Call) -> bool:
        """Whether this is ``<something>.rfile.read(...)``."""
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr == "read"):
            return False
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "rfile":
            return True
        return isinstance(recv, ast.Attribute) and recv.attr == "rfile"

    @staticmethod
    def _bounded(arg: ast.expr) -> bool:
        """A size argument that cannot exceed a compile-time constant."""
        if isinstance(const_value(arg), int):
            return True
        return (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Name)
            and arg.func.id == "min"
            and len(arg.args) >= 2
        )
