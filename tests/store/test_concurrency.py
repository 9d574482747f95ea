"""Cross-process durability: WAL convergence and SIGKILL survival.

These are real-process tests (``sys.executable``, not threads): WAL
locking and kill-mid-transaction semantics only exist between separate
OS processes holding separate sqlite connections.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.store import ResultStore, ingest_journal

from .conftest import KEY_COLUMNS, point_record, sweep_point, write_journal

_SRC = str(Path(repro.__file__).resolve().parent.parent)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cells(start, stop):
    """Journal records for one grid cell per ``factor`` in the range."""
    return [
        point_record(
            f"grid/vgpr/matmul/c{i:03d}",
            point=sweep_point(factor=i + 1),
        )
        for i in range(start, stop)
    ]


_INGEST_SCRIPT = """
import sys
from repro.store import ResultStore, ingest_journal

store_path, journal_path = sys.argv[1], sys.argv[2]
with ResultStore(store_path) as store:
    ingest_journal(store, journal_path, source="shared")
"""


def test_two_processes_converge_without_duplicates(tmp_path):
    """Two workers ingest overlapping journals concurrently: the store
    must converge to exactly the union, however the writes interleave."""
    store_path = tmp_path / "results.sqlite"
    ResultStore(store_path).close()  # pre-create: the race under test
    # is row ingest, not schema creation
    a = write_journal(tmp_path / "a.jsonl", _cells(0, 40))
    b = write_journal(tmp_path / "b.jsonl", _cells(20, 60))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _INGEST_SCRIPT,
             str(store_path), str(journal)],
            env=_env(), stderr=subprocess.PIPE,
        )
        for journal in (a, b)
    ]
    for p in procs:
        _, err = p.communicate(timeout=60)
        assert p.returncode == 0, err.decode()

    with ResultStore(store_path) as store:
        check = store._conn.execute("PRAGMA integrity_check").fetchone()
        assert check[0] == "ok"
        assert len(store.query()) == 60
        key_list = ", ".join(KEY_COLUMNS)
        total = store._conn.execute(
            "SELECT COUNT(*) FROM avf_results"
        ).fetchone()[0]
        distinct = store._conn.execute(
            "SELECT COUNT(*) FROM "
            f"(SELECT DISTINCT {key_list} FROM avf_results)"
        ).fetchone()[0]
        assert total == distinct == 60


_SLOW_WRITER_SCRIPT = """
import sys
from repro.store import ResultStore, ingest_journal
from repro.runtime import Journal

store_path, journal_path = sys.argv[1], sys.argv[2]
store = ResultStore(store_path)
records = Journal(journal_path).load()
# one transaction per record: plenty of kill windows between commits
for task_id in sorted(records):
    ingest_journal_rows = records[task_id]
    from repro.store.ingest import _point_to_row
    store.put_avf_rows([
        _point_to_row(
            ingest_journal_rows["value"], workload="matmul", seed=0,
            ser_model="none", source="victim",
        )
    ])
    print(task_id, flush=True)
"""


@pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs SIGKILL"
)
def test_sigkill_mid_ingest_leaves_consistent_reingestable_store(tmp_path):
    """Kill -9 between (and possibly inside) write transactions: the
    store stays structurally sound and a re-ingest completes the set."""
    store_path = tmp_path / "results.sqlite"
    journal = write_journal(tmp_path / "j.jsonl", _cells(0, 120))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_WRITER_SCRIPT,
         str(store_path), str(journal)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # let it land a few committed rows, then kill without warning
    committed = 0
    deadline = time.monotonic() + 30
    while committed < 5 and time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line:
            committed += 1
    assert committed >= 5, proc.stderr.read().decode()
    proc.kill()
    proc.wait(timeout=30)

    with ResultStore(store_path) as store:
        check = store._conn.execute("PRAGMA integrity_check").fetchone()
        assert check[0] == "ok"
        survived = len(store.query())
        assert 0 < survived < 120  # torn run: partial but sound
        counts = ingest_journal(store, journal, source="victim")
        assert counts["ingested"] == 120 - survived
        assert counts["deduped"] == survived
        assert len(store.query()) == 120


def test_reader_sees_writer_commits_across_connections(tmp_path):
    """WAL's reason to exist here: a reader handle opened before a
    write still observes it afterwards (no stale snapshot pinning)."""
    store_path = tmp_path / "results.sqlite"
    writer = ResultStore(store_path)
    reader = ResultStore(store_path)
    try:
        assert len(reader.query()) == 0
        writer.put_avf_rows(
            [point_record("x", point=sweep_point())["value"]
             | {"workload": "matmul"}]
        )
        assert len(reader.query()) == 1
    finally:
        writer.close()
        reader.close()


def test_database_file_is_sqlite(tmp_path):
    store_path = tmp_path / "results.sqlite"
    ResultStore(store_path).close()
    assert store_path.read_bytes()[:16] == b"SQLite format 3\x00"
    conn = sqlite3.connect(store_path)
    assert conn.execute("PRAGMA integrity_check").fetchone()[0] == "ok"
    conn.close()
