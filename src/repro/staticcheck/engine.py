"""The lint engine: discovery, caching, per-file rules, project rules.

One :func:`run` walks a source tree and analyzes every ``.py`` file in
two layers:

* a **per-file layer** — parse, classify into *scopes*
  (``deterministic``, ``kernel``, ``persistence``, ...), run every
  registered per-file rule, and build the file's
  :class:`~repro.staticcheck.index.FileSummary`.  This layer is
  *incremental*: with a cache file, an unchanged file (same content
  hash) replays its stored findings and summary without re-parsing —
  and *parallel*: misses fan out over a spawn-context process pool
  (``jobs``).
* a **whole-program layer** — the summaries (cached or fresh) form a
  :class:`~repro.staticcheck.index.ProjectIndex` +
  :class:`~repro.staticcheck.callgraph.CallGraph`, and every
  ``project_rule`` (the C-family, O402) emits from
  ``finalize_project``.  Because summaries are cache-stable, these
  rules see the complete program on warm runs too.

Inline suppression is applied centrally (from summaries, so cached
files keep suppressing), findings are sorted, and the run is
instrumented: a ``lint`` span plus ``staticcheck.*`` counters including
``staticcheck.cache_hits`` and ``index.files``.

Suppression pragmas (in comments)::

    x = whatever()   # staticcheck: ignore[D101]   one rule, this line
    y = whatever()   # staticcheck: ignore         every rule, this line
    # staticcheck: skip-file                        (first 10 lines)
    # staticcheck: scope=kernel,deterministic       add scopes (fixtures)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..obs import get_metrics, get_tracer
from .cache import CacheEntry, LintCache, content_hash, engine_fingerprint
from .callgraph import CallGraph
from .findings import Finding, Module, Rule, walk_with_parents
from .astutil import collect_aliases
from .index import FileSummary, ProjectIndex, build_summary
from .registry import all_rules

__all__ = [
    "run",
    "scan_paths",
    "load_module",
    "RunResult",
    "classify_scopes",
]

#: rule code reserved for files the engine itself cannot parse
PARSE_ERROR = "E001"

_PRAGMA = re.compile(
    r"#\s*staticcheck:\s*(?P<verb>ignore|skip-file|scope)"
    r"(?:\s*(?:\[(?P<codes>[^\]]*)\]|=(?P<scopes>[\w,\s-]+)))?"
)

#: directories whose modules must be replayable from a seed alone
_DETERMINISTIC_DIRS = {"core", "faultinject", "arch", "workloads"}
#: modules holding the vectorized engine kernels (strict numpy hygiene)
_KERNEL_SUFFIXES = ("core/intervals.py", "core/avf.py")


def classify_scopes(relpath: str) -> Set[str]:
    """Scopes implied by a module's path within the package."""
    rel = relpath.replace("\\", "/")
    parts = rel.split("/")
    scopes: Set[str] = set()
    if _DETERMINISTIC_DIRS & set(parts):
        scopes.add("deterministic")
    if rel.endswith(_KERNEL_SUFFIXES):
        scopes.add("kernel")
    if "runtime" in parts:
        scopes.update(("runtime", "persistence"))
    if "obs" in parts:
        scopes.update(("obs", "persistence"))
    if "store" in parts:
        scopes.update(("store", "persistence"))
    if rel.endswith("core/serialize.py"):
        scopes.add("persistence")
    if rel.endswith("runtime/executor.py"):
        scopes.add("executor")
    if "fabric" in parts:
        scopes.add("fabric")
    if "report" in parts:
        scopes.add("service")
    return scopes


@dataclass
class RunResult:
    """Everything one lint run produced."""

    root: str
    findings: List[Finding]
    files_scanned: int
    files_skipped: int = 0
    #: files that failed to parse (also present as E001 findings)
    parse_errors: List[str] = field(default_factory=list)
    #: incremental-cache accounting (not part of the JSON report, so
    #: warm and cold runs stay byte-identical)
    cache_hits: int = 0
    cache_misses: int = 0
    #: files contributing summaries to the whole-program index
    index_files: int = 0

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))


def _parse_pragmas(
    source: str,
) -> Tuple[Dict[int, Optional[FrozenSet[str]]], Set[str], bool]:
    """(line -> suppressed codes | None, extra scopes, skip_file)."""
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    scopes: Set[str] = set()
    skip = False
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, ValueError):
        return suppressions, scopes, skip
    for line, text in comments:
        m = _PRAGMA.search(text)
        if not m:
            continue
        verb = m.group("verb")
        if verb == "skip-file" and line <= 10:
            skip = True
        elif verb == "scope" and m.group("scopes"):
            scopes.update(
                s.strip() for s in m.group("scopes").split(",") if s.strip()
            )
        elif verb == "ignore":
            codes = m.group("codes")
            if codes is None:
                suppressions[line] = None
            else:
                parsed = frozenset(
                    c.strip().upper() for c in codes.split(",") if c.strip()
                )
                prior = suppressions.get(line, frozenset())
                if prior is None:
                    continue
                suppressions[line] = parsed | prior
    return suppressions, scopes, skip


def parse_module(source: str, path: str, relpath: str) -> Optional[Module]:
    """Parse source text into a :class:`Module`; None means skip-file.

    Raises :class:`SyntaxError` when the text does not parse — the
    caller turns that into an ``E001`` finding rather than aborting the
    whole run.
    """
    suppressions, extra_scopes, skip = _parse_pragmas(source)
    if skip:
        return None
    tree = ast.parse(source, filename=path)
    _, parents = walk_with_parents(tree)
    return Module(
        path=path,
        relpath=relpath.replace("\\", "/"),
        source=source,
        tree=tree,
        lines=source.splitlines(),
        scopes=frozenset(classify_scopes(relpath) | extra_scopes),
        suppressions=suppressions,
        parents=parents,
        aliases=collect_aliases(tree),
    )


def load_module(path: Path, relpath: str) -> Optional[Module]:
    """Parse one file into a :class:`Module`; None means skip-file."""
    source = path.read_text(encoding="utf-8", errors="replace")
    return parse_module(source, str(path), relpath)


def scan_paths(
    paths: Sequence[Union[str, Path]]
) -> List[Tuple[Path, str]]:
    """Expand files/directories into sorted ``(path, relpath)`` pairs.

    A directory contributes every ``*.py`` under it (relative to that
    directory, so package-internal paths like ``core/avf.py`` drive the
    scope classification); a bare file contributes itself under its
    file name.  ``__pycache__`` is skipped.
    """
    out: List[Tuple[Path, str]] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if "__pycache__" in f.parts:
                    continue
                out.append((f, f.relative_to(p).as_posix()))
        else:
            out.append((p, p.name))
    return sorted(out, key=lambda pair: pair[1])


def _analyze_source(
    source: str,
    path: str,
    relpath: str,
    rules: Sequence[Rule],
) -> Tuple[Optional[Module], CacheEntry]:
    """Per-file layer for one file: findings + summary as a cache entry."""
    digest = content_hash(source.encode("utf-8"))
    try:
        module = parse_module(source, path, relpath)
    except SyntaxError as exc:
        return None, CacheEntry(
            hash=digest,
            parse_error=[exc.lineno or 1, (exc.offset or 1) - 1,
                         exc.msg or "syntax error"],
        )
    if module is None:
        return None, CacheEntry(hash=digest, skipped=True)
    findings: List[Finding] = []
    for rule in rules:
        if rule.project_rule or not rule.applies(module):
            continue
        findings.extend(rule.check(module))
    summary = build_summary(module)
    return module, CacheEntry(
        hash=digest,
        findings=[dict(f.to_dict()) for f in findings],
        summary=summary.to_dict(),
    )


def _analyze_file_task(
    args: Tuple[str, str],
) -> Tuple[str, Dict[str, Any]]:
    """Process-pool task: analyze one file with the registered rules.

    Runs in a spawn-context worker, so it re-derives the per-file rule
    set from the registry (rule instances do not cross the pool
    boundary).
    """
    path, relpath = args
    source = Path(path).read_text(encoding="utf-8", errors="replace")
    _module, entry = _analyze_source(source, path, relpath, all_rules())
    return relpath, entry.to_dict()


def _entry_findings(relpath: str, entry: CacheEntry) -> List[Finding]:
    if entry.parse_error is not None:
        line, col, msg = entry.parse_error
        return [
            Finding(
                path=relpath.replace("\\", "/"),
                line=int(line),
                col=int(col),
                rule=PARSE_ERROR,
                message=f"file does not parse: {msg}",
            )
        ]
    return entry.restore_findings()


def run(
    paths: Sequence[Path],
    rules: Optional[Iterable[Rule]] = None,
    *,
    cache_path: Optional[Path] = None,
    jobs: int = 1,
    changed: Optional[Set[str]] = None,
) -> RunResult:
    """Lint ``paths`` with every registered (or the given) rule.

    ``cache_path`` enables the incremental per-file cache (created on
    first use, rebuilt silently when corrupt or version-skewed).
    ``jobs > 1`` fans cache misses out over a spawn-context process
    pool — only available with the default registered rule set, since
    custom rule instances cannot cross the pool boundary.  ``changed``
    restricts *reported* findings to those relpaths plus their
    reverse-dependency closure from the import graph; the index is
    still built over everything, so whole-program rules stay sound.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    files = scan_paths(paths)
    active = list(rules) if rules is not None else all_rules()
    if rules is not None:
        jobs = 1  # custom instances cannot cross the pool boundary
    fingerprint = engine_fingerprint([r.code for r in active])
    cache = LintCache.load(cache_path, fingerprint)
    findings: List[Finding] = []
    entries: Dict[str, CacheEntry] = {}
    parse_errors: List[str] = []
    skipped = 0
    with tracer.span("lint", files=len(files), rules=len(active)) as span:
        pending: List[Tuple[Path, str, str]] = []
        for path, relpath in files:
            try:
                raw = path.read_bytes()
            except OSError:
                continue
            hit = cache.get(relpath, content_hash(raw))
            if hit is not None:
                entries[relpath] = hit
            else:
                pending.append(
                    (path.as_posix(), relpath,
                     raw.decode("utf-8", errors="replace"))
                )
        if jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(
                max_workers=jobs, mp_context=get_context("spawn")
            ) as pool:
                for relpath, raw_entry in pool.map(
                    _analyze_file_task,
                    [(p, rp) for p, rp, _src in pending],
                ):
                    entries[relpath] = CacheEntry.from_dict(raw_entry)
                    cache.put(relpath, entries[relpath])
        else:
            for path_str, relpath, source in pending:
                _module, entry = _analyze_source(
                    source, path_str, relpath, active
                )
                entries[relpath] = entry
                cache.put(relpath, entry)
        summaries: List[FileSummary] = []
        for relpath in sorted(entries):
            entry = entries[relpath]
            if entry.skipped:
                skipped += 1
                continue
            if entry.parse_error is not None:
                parse_errors.append(relpath)
            findings.extend(_entry_findings(relpath, entry))
            summary = entry.restore_summary()
            if summary is not None:
                summaries.append(summary)
        parse_errors.sort()
        project = ProjectIndex(summaries)
        graph = CallGraph(project)
        for rule in active:
            if rule.project_rule:
                findings.extend(rule.finalize_project(project, graph))
        # legacy cross-file hook: runs over freshly-parsed modules only
        # (project rules see cached files too — new cross-file rules
        # should use finalize_project)
        for rule in active:
            findings.extend(rule.finalize())
        # Inline suppression is applied centrally — from summaries, so
        # pragmas keep working on cache hits and for project findings.
        kept = [
            f for f in findings
            if f.rule == PARSE_ERROR
            or not project.suppressed(f.path, f.line, f.rule)
        ]
        if changed is not None:
            visible = project.reverse_closure(set(changed))
            kept = [f for f in kept if f.path in visible]
        kept.sort()
        span.set(findings=len(kept), cache_hits=cache.hits)
    if cache_path is not None:
        cache.prune([rp for _p, rp in files])
        cache.save(cache_path)
    if metrics:
        metrics.counter("staticcheck.files_scanned").inc(len(files))
        metrics.counter("staticcheck.findings").inc(len(kept))
        metrics.counter("staticcheck.cache_hits").inc(cache.hits)
        metrics.counter("index.files").inc(len(summaries))
        for f in kept:
            metrics.counter(f"staticcheck.findings.{f.rule}").inc()
    return RunResult(
        root=str(paths[0]) if len(paths) == 1 else "",
        findings=kept,
        files_scanned=len(files),
        files_skipped=skipped,
        parse_errors=parse_errors,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        index_files=len(summaries),
    )
