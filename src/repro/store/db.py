"""The persistent results store: one sqlite3 file, WAL mode, typed API.

Design (see docs/results-store.md):

* **WAL + busy timeout** — many readers plus one writer at a time, and
  concurrent ingesting processes queue on the write lock instead of
  failing (the two-process convergence test in ``tests/store`` holds
  this).
* **Immediate transactions** — every write batch runs inside one
  ``BEGIN IMMEDIATE .. COMMIT``, so a SIGKILL mid-ingest leaves a store
  that passes ``PRAGMA integrity_check`` and simply misses the torn
  batch (re-ingest completes it; sqlite's WAL plays the journal role
  that :func:`repro.ioutil.atomic_write` plays for whole-file writes).
* **Idempotent upserts** — all writers use ``INSERT OR IGNORE`` against
  the canonical-key constraints in :mod:`repro.store.schema`; the
  returned ``(ingested, deduped)`` counts feed the ``store.ingested`` /
  ``store.deduped`` counters.
* **Parameterized SQL only** — values never enter statement text
  (staticcheck rule P501 gates this for every module under ``store/``).
"""

from __future__ import annotations

import errno
import json
import sqlite3
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import get_metrics, get_tracer
from .query import AvfRow, FILTER_COLUMNS, QueryResult, build_where
from .schema import SCHEMA_VERSION, SchemaVersionError, ensure_schema

__all__ = ["ResultStore", "engine_version", "open_store", "persist"]

PathLike = Union[str, Path]

#: bounded deterministic backoff for "database is locked" at BEGIN:
#: attempts and delays are fixed (no jitter) so a locked-db schedule
#: replays exactly — chaos tests depend on that.
_LOCK_RETRY_ATTEMPTS = 5
_LOCK_RETRY_BASE = 0.05
_LOCK_RETRY_CAP = 0.5

_AVF_COLUMNS = (
    "workload", "structure", "scheme", "style", "factor", "mode",
    "ser_model", "seed", "engine_version", "due_avf", "sdc_avf",
    "true_due_avf", "false_due_avf", "total_avf", "n_groups",
    "window_cycles", "source",
)

_INSERT_AVF = (
    "INSERT OR IGNORE INTO avf_results ("
    + ", ".join(_AVF_COLUMNS)
    + ") VALUES (" + ", ".join("?" for _ in _AVF_COLUMNS) + ")"
)

_INJ_COLUMNS = (
    "source", "task", "benchmark", "outcome", "verdict", "attempts",
    "duration", "node", "wf", "reg", "lane", "cycle", "bits",
)

_INSERT_INJECTION = (
    "INSERT OR IGNORE INTO injections ("
    + ", ".join(_INJ_COLUMNS)
    + ") VALUES (" + ", ".join("?" for _ in _INJ_COLUMNS) + ")"
)

_MTTF_COLUMNS = (
    "cache_bytes", "raw_fit_per_mbit", "engine_version",
    "mttf_smbf_01pct", "mttf_smbf_5pct", "mttf_tmbf_unbounded",
    "mttf_tmbf_100yr",
)

_INSERT_MTTF = (
    "INSERT OR IGNORE INTO mttf_rows ("
    + ", ".join(_MTTF_COLUMNS)
    + ") VALUES (" + ", ".join("?" for _ in _MTTF_COLUMNS) + ")"
)

_CAMPAIGN_COLUMNS = (
    "benchmark", "seed", "n_cus", "engine_version", "n_single",
    "sdc_ace_bits", "interference", "model_sdc_avf", "single_outcomes",
    "multibit", "failures",
)

_INSERT_CAMPAIGN = (
    "INSERT OR IGNORE INTO campaigns ("
    + ", ".join(_CAMPAIGN_COLUMNS)
    + ") VALUES (" + ", ".join("?" for _ in _CAMPAIGN_COLUMNS) + ")"
)

_SELECT_AVF = "SELECT " + ", ".join(_AVF_COLUMNS) + " FROM avf_results"

#: deterministic default ordering: the canonical key tuple
_AVF_ORDER = (
    " ORDER BY workload, structure, scheme, style, factor, mode, "
    "ser_model, seed, engine_version"
)


def engine_version() -> str:
    """The engine version stamped on rows written by this process."""
    from .. import __version__

    return __version__


class ResultStore:
    """Open (creating as needed) a results database.

    Context-manager friendly; safe to share a path — not an instance —
    across processes.  All write methods return ``(ingested, deduped)``
    row counts and bump the ``store.ingested`` / ``store.deduped``
    counters.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        timeout: float = 30.0,
        chaos: Optional[Any] = None,
    ) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise ValueError(
                f"store path {self.path} is a directory; pass a file path"
            )
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        #: dev-only persistence fault injection
        #: (a :class:`~repro.runtime.chaos.ChaosPolicy`; None = off)
        self.chaos = chaos
        self._txn_seq = 0
        # Autocommit mode: transactions are explicit BEGIN IMMEDIATE
        # blocks (see _txn), never the driver's implicit ones.
        self._conn = sqlite3.connect(
            str(self.path), timeout=timeout, isolation_level=None,
            check_same_thread=False,
        )
        self._conn.row_factory = sqlite3.Row
        # Belt and braces against "database is locked": the connect
        # timeout installs Python's busy handler, and busy_timeout makes
        # sqlite itself wait out held locks — including code paths the
        # Python handler does not cover.  (PRAGMA values cannot be bound
        # parameters; the statement is assembled from our own int.)
        busy_pragma = "PRAGMA busy_timeout = " + str(int(timeout * 1000))
        self._conn.execute(busy_pragma)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        ensure_schema(self._conn)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One immediate write transaction; rolls back on error.

        ``BEGIN IMMEDIATE`` is where a concurrently-held write lock
        surfaces, so that is where the bounded deterministic-backoff
        retry lives: concurrent ingesting processes must queue, never
        surface a raw ``database is locked``.
        """
        seq = self._txn_seq = self._txn_seq + 1
        self._begin_immediate(seq)
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        if self.chaos is not None and self.chaos.store_enospc_active(seq):
            self._conn.execute("ROLLBACK")
            raise OSError(
                errno.ENOSPC, "chaos: no space left on device (mid-ingest)"
            )
        self._conn.execute("COMMIT")

    def _begin_immediate(self, seq: int) -> None:
        """Take the write lock, retrying "database is locked" with a
        bounded deterministic backoff (no jitter: replayable)."""
        delay = _LOCK_RETRY_BASE
        for attempt in range(_LOCK_RETRY_ATTEMPTS):
            try:
                if self.chaos is not None and (
                    self.chaos.store_locked_active(seq, attempt)
                ):
                    raise sqlite3.OperationalError(
                        "database is locked (chaos)"
                    )
                self._conn.execute("BEGIN IMMEDIATE")
                return
            except sqlite3.OperationalError as exc:
                message = str(exc)
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt + 1 >= _LOCK_RETRY_ATTEMPTS:
                    raise
                mx = get_metrics()
                if mx:
                    mx.counter("store.locked_retries").inc()
                time.sleep(delay)
                delay = min(delay * 2.0, _LOCK_RETRY_CAP)

    def _count_writes(
        self, attempted: int, before: int
    ) -> Tuple[int, int]:
        ingested = self._conn.total_changes - before
        deduped = attempted - ingested
        mx = get_metrics()
        if mx:
            mx.counter("store.ingested").inc(ingested)
            mx.counter("store.deduped").inc(deduped)
        return ingested, deduped

    # -- summary -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Row counts plus distinct key values, for the report header."""
        out: Dict[str, Any] = {"path": str(self.path)}
        out["avf_results"] = self._scalar(
            "SELECT COUNT(*) FROM avf_results"
        )
        out["injections"] = self._scalar("SELECT COUNT(*) FROM injections")
        out["mttf_rows"] = self._scalar("SELECT COUNT(*) FROM mttf_rows")
        out["campaigns"] = self._scalar("SELECT COUNT(*) FROM campaigns")
        out["workloads"] = [
            str(r[0]) for r in self._conn.execute(
                "SELECT DISTINCT workload FROM avf_results ORDER BY workload"
            )
        ]
        out["structures"] = [
            str(r[0]) for r in self._conn.execute(
                "SELECT DISTINCT structure FROM avf_results "
                "ORDER BY structure"
            )
        ]
        out["schema_version"] = SCHEMA_VERSION
        return out

    def _scalar(self, sql: str) -> int:
        row = self._conn.execute(sql).fetchone()
        return int(row[0]) if row is not None else 0

    # -- writers -------------------------------------------------------------

    def put_avf_rows(
        self, rows: Iterable[Union[AvfRow, Mapping[str, Any]]]
    ) -> Tuple[int, int]:
        """Idempotently insert AVF measurements; returns (new, deduped)."""
        params: List[Tuple] = []
        for row in rows:
            data = row.to_dict() if isinstance(row, AvfRow) else dict(row)
            data.setdefault("ser_model", "none")
            data.setdefault("seed", 0)
            data.setdefault("engine_version", engine_version())
            data.setdefault(
                "total_avf",
                float(data["due_avf"]) + float(data["sdc_avf"]),
            )
            data.setdefault("n_groups", None)
            data.setdefault("window_cycles", None)
            data.setdefault("source", None)
            params.append(tuple(data[c] for c in _AVF_COLUMNS))
        if not params:
            return 0, 0
        before = self._conn.total_changes
        with self._txn() as conn:
            conn.executemany(_INSERT_AVF, params)
        return self._count_writes(len(params), before)

    def put_injection_rows(
        self, rows: Iterable[Mapping[str, Any]]
    ) -> Tuple[int, int]:
        """Idempotently insert injection records keyed by (source, task)."""
        params = []
        for row in rows:
            data = dict(row)
            bits = data.get("bits")
            if bits is not None and not isinstance(bits, str):
                data["bits"] = json.dumps(list(bits))
            for column in _INJ_COLUMNS:
                data.setdefault(column, None)
            data.setdefault("attempts", 1)
            data.setdefault("duration", 0.0)
            params.append(tuple(data[c] for c in _INJ_COLUMNS))
        if not params:
            return 0, 0
        before = self._conn.total_changes
        with self._txn() as conn:
            conn.executemany(_INSERT_INJECTION, params)
        return self._count_writes(len(params), before)

    def put_mttf_rows(
        self,
        rows: Iterable[Any],
        *,
        cache_bytes: int = 32 << 20,
    ) -> Tuple[int, int]:
        """Insert :class:`~repro.core.mttf.Figure2Row` records."""
        version = engine_version()
        params = [
            (
                int(cache_bytes), float(r.raw_fit_per_mbit), version,
                float(r.mttf_smbf_01pct), float(r.mttf_smbf_5pct),
                float(r.mttf_tmbf_unbounded), float(r.mttf_tmbf_100yr),
            )
            for r in rows
        ]
        if not params:
            return 0, 0
        before = self._conn.total_changes
        with self._txn() as conn:
            conn.executemany(_INSERT_MTTF, params)
        return self._count_writes(len(params), before)

    def put_campaign(
        self, campaign: Any, *, seed: int = 0, n_cus: int = 2
    ) -> Tuple[int, int]:
        """Insert one :class:`~repro.faultinject.campaign.BenchmarkCampaign`
        summary keyed by (benchmark, seed, n_cus, engine version)."""
        params = (
            campaign.benchmark, int(seed), int(n_cus), engine_version(),
            int(campaign.n_single_injections),
            int(campaign.n_sdc_ace_bits),
            int(campaign.interference_total()),
            campaign.model_sdc_avf,
            json.dumps(campaign.single_outcomes, sort_keys=True),
            json.dumps(
                {str(m): list(v) for m, v in campaign.multibit.items()},
                sort_keys=True,
            ),
            json.dumps(campaign.failures, sort_keys=True),
        )
        before = self._conn.total_changes
        with self._txn() as conn:
            conn.execute(_INSERT_CAMPAIGN, params)
        return self._count_writes(1, before)

    # -- readers -------------------------------------------------------------

    def query(
        self,
        *,
        order_by: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        **filters: Any,
    ) -> QueryResult:
        """Filtered AVF rows, deterministically ordered.

        Keyword filters name :data:`~repro.store.query.FILTER_COLUMNS`
        (scalars or sequences); ``order_by`` names filter columns to sort
        by instead of the full canonical key; ``limit`` caps the row
        count (a negative one raises ``ValueError``).  The query is
        answered entirely from the store — no simulation, no AVF engine.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, not {limit}")
        where, params = build_where(filters)
        sql = _SELECT_AVF + where
        if order_by:
            for column in order_by:
                if column not in FILTER_COLUMNS:
                    raise KeyError(f"unknown order column {column!r}")
            sql += " ORDER BY " + ", ".join(order_by)
        else:
            sql += _AVF_ORDER
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        start = time.perf_counter()
        with get_tracer().span("query", table="avf_results") as span:
            rows = [
                self._row_to_avf(r)
                for r in self._conn.execute(sql, params)
            ]
            span.set(rows=len(rows))
        mx = get_metrics()
        if mx:
            mx.histogram("store.query_latency").observe(
                time.perf_counter() - start
            )
            mx.counter("store.queries").inc()
        return QueryResult(rows)

    @staticmethod
    def _row_to_avf(row: sqlite3.Row) -> AvfRow:
        data = {key: row[key] for key in row.keys()}
        for column in ("n_groups", "window_cycles"):
            if data.get(column) is not None:
                data[column] = int(data[column])
        return AvfRow(**data)

    def mttf_rows(
        self, *, cache_bytes: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Stored Figure 2 rows (dicts), ordered by cache size and rate."""
        sql = "SELECT " + ", ".join(_MTTF_COLUMNS) + " FROM mttf_rows"
        params: List[Any] = []
        if cache_bytes is not None:
            sql += " WHERE cache_bytes = ?"
            params.append(int(cache_bytes))
        sql += " ORDER BY cache_bytes, raw_fit_per_mbit, engine_version"
        return [
            {key: r[key] for key in r.keys()}
            for r in self._conn.execute(sql, params)
        ]

    def campaigns(self) -> List[Dict[str, Any]]:
        """Stored campaign summaries with their JSON fields decoded."""
        sql = (
            "SELECT " + ", ".join(_CAMPAIGN_COLUMNS)
            + " FROM campaigns ORDER BY benchmark, seed, n_cus"
        )
        out = []
        for r in self._conn.execute(sql):
            data = {key: r[key] for key in r.keys()}
            for field in ("single_outcomes", "multibit", "failures"):
                data[field] = json.loads(data[field])
            out.append(data)
        return out

    def injection_stats(self) -> List[Dict[str, Any]]:
        """Per-benchmark verdict counts over every stored injection."""
        sql = (
            "SELECT benchmark, verdict, COUNT(*) AS n FROM injections "
            "GROUP BY benchmark, verdict ORDER BY benchmark, verdict"
        )
        return [
            {
                "benchmark": r["benchmark"],
                "verdict": r["verdict"],
                "count": int(r["n"]),
            }
            for r in self._conn.execute(sql)
        ]


@contextmanager
def open_store(
    store: Union[ResultStore, PathLike]
) -> Iterator[ResultStore]:
    """Yield a :class:`ResultStore` from an instance or a path.

    Producers take ``store=`` as either form; a path is opened for the
    duration of the block and closed after, an instance is borrowed and
    left open (the caller owns its lifecycle).
    """
    if isinstance(store, ResultStore):
        yield store
        return
    owned = ResultStore(store)
    try:
        yield owned
    finally:
        owned.close()


#: what a damaged, full, locked or newer-schema store file raises; any
#: other exception out of a write is a bug and propagates
_STORE_ERRORS = (sqlite3.Error, OSError, SchemaVersionError)


def persist(
    store: Union[ResultStore, PathLike],
    write: Callable[[ResultStore], Any],
    *,
    journal: Optional[Any] = None,
) -> Any:
    """The one results sink: open ``store`` and return ``write(store)``.

    ``store`` is a :class:`ResultStore` or a path (see
    :func:`open_store`).  The store is an index derived from journals
    and seeds, so a write that fails with one of the store's own failure
    types never fails the producer that computed the results: the
    failure is counted in ``store.ingest_failures``, one warning on
    stderr names the recovery recipe, and None is returned.  With a
    ``journal`` (a :class:`~repro.runtime.Journal` or path) the recipe
    is ``--resume J --store S``; without one it is re-running the
    command.
    """
    try:
        with open_store(store) as sink:
            return write(sink)
    except _STORE_ERRORS as exc:
        get_metrics().counter("store.ingest_failures").inc()
        path = getattr(store, "path", store)
        if journal is not None:
            journal = getattr(journal, "path", journal)
            recovery = (
                f"the journal at {journal} remains the durable record — "
                "if the store file is damaged, remove it and re-run with "
                f"--resume {journal} --store {path}"
            )
        else:
            recovery = (
                "the computed results are unaffected — if the store file "
                "is damaged, remove it and re-run the command with "
                f"--store {path}"
            )
        print(
            "warning: results-store ingest failed "
            f"({type(exc).__name__}: {exc}); {recovery}",
            file=sys.stderr,
        )
        return None
