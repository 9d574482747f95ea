"""Concurrency / lock-discipline rules (family C) — whole-program.

The fabric layer runs real threads: every HTTP
request executes a handler-class method on a server thread while the
driver mutates the same objects from the main thread.  A data race here
does not crash — it silently skews counters, leases and AVF roll-ups,
which is precisely the failure mode a bit-for-bit reproduction cannot
tolerate.  These rules run from the whole-program index
(:mod:`repro.staticcheck.index` / :mod:`repro.staticcheck.callgraph`),
so a lock acquired in one file protects — or fails to protect — state
mutated from another.

All five rules emit from :meth:`finalize_project`; their per-file
``check`` never fires.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Set,
    Tuple,
)

from ..findings import Finding, Module, Rule
from ..registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..callgraph import CallGraph, NodeKey
    from ..index import ProjectIndex

__all__ = [
    "UnsyncSharedState",
    "BareAcquire",
    "BlockingUnderLock",
    "LockOrderInversion",
    "DeadlineDropped",
]

#: methods whose writes are construction, not racing mutation
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

#: dotted-call suffixes that block (C603); matched against the resolved
#: dotted name's trailing segments
_BLOCKING_SUFFIXES: Tuple[str, ...] = (
    "time.sleep",
    "socket.create_connection",
    "socket.socket",
    "subprocess.run",
    "subprocess.Popen",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "sqlite3.connect",
    "urllib.request.urlopen",
    "http.client.HTTPConnection",
    "http.client.HTTPSConnection",
    "ioutil.atomic_write",
)

#: in-tree receiver types whose methods do I/O (C603)
_BLOCKING_TYPES = frozenset({"Journal", "RpcClient"})

#: network constructors/calls that need a timeout (C605, F303's set),
#: mapped to the positional index a timeout argument would occupy
_NETWORK_SINKS: Dict[str, int] = {
    "http.client.HTTPConnection": 2,
    "http.client.HTTPSConnection": 2,
    "socket.create_connection": 1,
    "urllib.request.urlopen": 2,
}


def _node_label(graph: "CallGraph", key: "NodeKey") -> str:
    relpath, cls, func = graph.nodes[key]
    if cls is None:
        return f"{relpath}:{func.name}"
    return f"{relpath}:{cls}.{func.name}"


def _suffix_match(dotted: str, suffixes: Tuple[str, ...]) -> bool:
    for suffix in suffixes:
        if dotted == suffix or dotted.endswith("." + suffix):
            return True
    return False


class _ProjectRule(Rule):
    """Base for C-family rules: project-pass only."""

    project_rule = True
    family = "concurrency"
    scope = None

    def check(self, module: Module) -> Iterator[Finding]:
        return iter(())


@register
class UnsyncSharedState(_ProjectRule):
    code = "C601"
    slug = "unsync-shared-state"
    summary = (
        "instance attribute written on a thread-entry path and "
        "accessed elsewhere without a common lock"
    )
    rationale = (
        "Handler threads and the driver share coordinator and table "
        "objects; an attribute written from one side and read or "
        "written from the other without one common lock is a data race "
        "— torn multi-step updates (`self.x += 1`, dict grown during "
        "iteration) silently corrupt lease tables and metric roll-ups. "
        "Writes in __init__ are construction and exempt; threading "
        "Lock/Event fields are their own synchronization."
    )

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        reachable = graph.thread_reachable()
        # (class relpath, class name, attr) -> list of access sites
        access: Dict[
            Tuple[str, str, str], List[Dict[str, Any]]
        ] = {}
        for key, relpath, cls, func in graph.iter_nodes():
            in_thread = key in reachable
            if func.name in _INIT_METHODS:
                continue
            for write in func.writes:
                owner = graph.type_info(write["owner"], relpath, cls)
                if owner is None or not owner.get("name"):
                    continue
                target = graph.class_for_name(str(owner["name"]), relpath)
                if target is None:
                    continue
                held = graph.effective_held(key, list(write["held"]))
                access.setdefault(
                    (target[0], target[1].name, str(write["attr"])), []
                ).append(
                    {
                        "kind": "write",
                        "thread": in_thread,
                        "node": key,
                        "path": relpath,
                        "line": int(write["line"]),
                        "col": int(write["col"]),
                        "held": held,
                        "snippet": str(write["snippet"]),
                    }
                )
            if cls is None:
                continue
            for attr, (line, col, held_texts) in sorted(
                func.reads.items()
            ):
                held = graph.effective_held(key, list(held_texts))
                access.setdefault((relpath, cls, attr), []).append(
                    {
                        "kind": "read",
                        "thread": in_thread,
                        "node": key,
                        "path": relpath,
                        "line": int(line),
                        "col": int(col),
                        "held": held,
                        "snippet": "",
                    }
                )
        for (cls_rel, cls_name, attr) in sorted(access):
            summary = project.files[cls_rel].classes.get(cls_name)
            if summary is None:
                continue
            if attr in summary.locks or attr in summary.events:
                continue
            sites = access[(cls_rel, cls_name, attr)]
            thread_writes = [
                s for s in sites if s["thread"] and s["kind"] == "write"
            ]
            other_writes = [
                s for s in sites if not s["thread"] and s["kind"] == "write"
            ]
            thread_any = [s for s in sites if s["thread"]]
            other_any = [s for s in sites if not s["thread"]]
            involved: List[Dict[str, Any]] = []
            if thread_writes and other_any:
                involved = thread_writes + other_any
            elif other_writes and thread_any:
                involved = other_writes + thread_any
            if not involved:
                continue
            common: FrozenSet[str] = involved[0]["held"]
            for site in involved[1:]:
                common = common & site["held"]
            if common:
                continue
            anchor = (thread_writes or other_writes)[0]
            partner = next(
                s for s in involved
                if bool(s["thread"]) != bool(anchor["thread"])
            )
            yield Finding(
                path=str(anchor["path"]),
                line=int(anchor["line"]),
                col=int(anchor["col"]),
                rule=self.code,
                message=(
                    f"attribute {attr!r} of {cls_name} is written in "
                    f"{_node_label(graph, anchor['node'])} (thread-entry "
                    f"path: {bool(anchor['thread'])}) and "
                    f"{partner['kind']} in "
                    f"{_node_label(graph, partner['node'])} at "
                    f"{partner['path']}:{partner['line']} without a "
                    "common lock"
                ),
                snippet=str(anchor["snippet"]),
            )


@register
class BareAcquire(_ProjectRule):
    code = "C602"
    slug = "bare-acquire"
    summary = (
        "lock.acquire() outside a with-block and without a "
        "try/finally release"
    )
    rationale = (
        "An acquire whose release is not structurally guaranteed leaks "
        "the lock on the first exception and deadlocks every other "
        "thread touching it.  `with lock:` (or acquire immediately "
        "followed by try/finally release) closes on every exit path."
    )

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        for _key, relpath, _cls, func in graph.iter_nodes():
            for acq in func.acquires:
                if acq["released"]:
                    continue
                yield Finding(
                    path=relpath,
                    line=int(acq["line"]),
                    col=int(acq["col"]),
                    rule=self.code,
                    message=(
                        f"{acq['recv']}.acquire() without a with-block "
                        "or try/finally release; the lock leaks on the "
                        "first exception"
                    ),
                    snippet=str(acq["snippet"]),
                )


@register
class BlockingUnderLock(_ProjectRule):
    code = "C603"
    slug = "blocking-under-lock"
    summary = (
        "blocking call (sleep / socket / subprocess / sqlite / journal "
        "I/O) while a lock is held"
    )
    rationale = (
        "A lock held across a blocking operation serializes every "
        "other thread behind that I/O: one slow RPC inside the "
        "coordinator lock stalls all lease renewals at once, turning a "
        "network hiccup into a campaign-wide pause.  Snapshot under "
        "the lock, then do I/O outside it.  Waiting on the held "
        "Condition itself (`cond.wait()`) is the one sanctioned "
        "blocking-while-held pattern and is exempt."
    )

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        for key, relpath, cls, func in graph.iter_nodes():
            for site in func.calls:
                held_texts = list(site["held"])
                held = graph.effective_held(key, held_texts)
                if not held:
                    continue
                # waiting on the lock you hold is Condition protocol
                recv = site.get("recv")
                if recv is not None and recv in held_texts:
                    continue
                name = graph.resolved_target_name(
                    site["t"], relpath, cls
                )
                if name is None:
                    continue
                blocking = False
                if site["t"][0] == "dotted":
                    blocking = _suffix_match(name, _BLOCKING_SUFFIXES)
                else:
                    owner = name.rpartition(".")[0]
                    blocking = owner in _BLOCKING_TYPES
                if not blocking:
                    continue
                yield Finding(
                    path=relpath,
                    line=int(site["line"]),
                    col=int(site["col"]),
                    rule=self.code,
                    message=(
                        f"blocking call {name} while holding "
                        f"{', '.join(sorted(held))}; move the I/O "
                        "outside the critical section"
                    ),
                    snippet=str(site["snippet"]),
                )


@register
class LockOrderInversion(_ProjectRule):
    code = "C604"
    slug = "lock-order-inversion"
    summary = (
        "two locks acquired in opposite orders on different paths "
        "(deadlock candidate)"
    )
    rationale = (
        "If one path takes A then B while another takes B then A, two "
        "threads interleaving those paths deadlock permanently — the "
        "classic ABBA hang, invisible to tests until load makes the "
        "window.  Pick one global order (document it where the locks "
        "are declared) and acquire in that order everywhere."
    )

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        # ordered pair -> first site observed, deterministically
        pairs: Dict[Tuple[str, str], Dict[str, Any]] = {}
        entry = graph.entry_locks()
        for key, relpath, cls, func in graph.iter_nodes():
            for site in list(func.calls) + list(func.writes):
                held_texts = list(site["held"])
                if not held_texts:
                    continue
                syn = [
                    graph.lock_id(text, relpath, cls, func.name)
                    for text in held_texts
                ]
                ordered = [s for s in syn if s is not None]
                prop = entry.get(key, frozenset())
                sequences: List[Tuple[str, str]] = []
                for i, first in enumerate(ordered):
                    for second in ordered[i + 1:]:
                        sequences.append((first, second))
                for outer in sorted(prop):
                    for inner in ordered:
                        sequences.append((outer, inner))
                for first, second in sequences:
                    if first == second:
                        continue
                    record = {
                        "path": relpath,
                        "line": int(site["line"]),
                        "col": int(site["col"]),
                        "snippet": str(site["snippet"]),
                        "node": key,
                    }
                    existing = pairs.get((first, second))
                    if existing is None or (
                        record["path"], record["line"]
                    ) < (existing["path"], existing["line"]):
                        pairs[(first, second)] = record
        seen: Set[Tuple[str, str]] = set()
        for first, second in sorted(pairs):
            if (second, first) not in pairs:
                continue
            unordered = tuple(sorted((first, second)))
            if unordered in seen:
                continue
            seen.add(unordered)
            a = pairs[(unordered[0], unordered[1])]
            b = pairs[(unordered[1], unordered[0])]
            yield Finding(
                path=str(b["path"]),
                line=int(b["line"]),
                col=int(b["col"]),
                rule=self.code,
                message=(
                    f"locks {unordered[1]} and {unordered[0]} acquired "
                    f"in opposite orders: here {unordered[1]} is taken "
                    f"before {unordered[0]}, but {a['path']}:{a['line']} "
                    "takes them the other way around (ABBA deadlock "
                    "candidate)"
                ),
                snippet=str(b["snippet"]),
            )


@register
class DeadlineDropped(_ProjectRule):
    code = "C605"
    slug = "deadline-dropped"
    summary = (
        "network call reachable from an HTTP handler that loses the "
        "deadline on the way down"
    )
    rationale = (
        "F303 checks the fabric's own modules; this rule walks the "
        "call graph from every handler entry.  A helper outside the "
        "fabric scope opening an untimed connection — or a caller with "
        "a deadline_ms in hand invoking a deadline-aware callee "
        "without forwarding it — re-creates exactly the unbounded "
        "wait the lease/orphan machinery exists to rule out."
    )

    def finalize_project(
        self, project: "ProjectIndex", graph: "CallGraph"
    ) -> Iterator[Finding]:
        reachable = graph.handler_reachable()
        for key in sorted(reachable):
            relpath, cls, func = graph.nodes[key]
            scopes = set(project.files[relpath].scopes)
            caller_params = {p for p, _t in func.params}
            for site in func.calls:
                name = graph.resolved_target_name(site["t"], relpath, cls)
                sink_pos = None
                if name is not None and site["t"][0] == "dotted":
                    for sink, pos in _NETWORK_SINKS.items():
                        if name == sink or name.endswith("." + sink):
                            sink_pos = pos
                            break
                # (a) untimed sink outside F303's fabric/executor beat
                if (
                    sink_pos is not None
                    and name is not None
                    and not site["timeout"]
                    and int(site["nargs"]) <= sink_pos
                    and not ({"fabric", "executor"} & scopes)
                ):
                    yield Finding(
                        path=relpath,
                        line=int(site["line"]),
                        col=int(site["col"]),
                        rule=self.code,
                        message=(
                            f"untimed network call {name} reachable "
                            f"from an HTTP handler (via "
                            f"{_node_label(graph, key)}); pass "
                            "timeout= so a partition cannot hang the "
                            "serving thread"
                        ),
                        snippet=str(site["snippet"]),
                    )
                    continue
                # (b) deadline_ms in hand, not forwarded
                if "deadline_ms" not in caller_params:
                    continue
                target = graph.resolve_call(site["t"], relpath, cls)
                if target is None:
                    continue
                callee = graph.nodes[target][2]
                callee_params = [p for p, _t in callee.params]
                if "deadline_ms" not in callee_params:
                    continue
                if "deadline_ms" in site["kw"]:
                    continue
                positional = [
                    p for p in callee_params if p not in ("self", "cls")
                ]
                idx = positional.index("deadline_ms")
                if int(site["nargs"]) > idx:
                    continue
                yield Finding(
                    path=relpath,
                    line=int(site["line"]),
                    col=int(site["col"]),
                    rule=self.code,
                    message=(
                        f"call to {_node_label(graph, target)} drops "
                        "deadline_ms: the caller has a deadline in "
                        "hand but does not forward it, so the "
                        "downstream wait is unbounded"
                    ),
                    snippet=str(site["snippet"]),
                )
