"""The store's one recovery path, plus persistence chaos.

The store is an index derived from journals — every row folded in from
a durable journal or reproducible from a seed — so a damaged file is
removed and refilled, never repaired.  Acceptance: a store re-ingested
from the same journals into a fresh file answers ``repro query --json``
and renders the report page byte-identically to one that was never
damaged, re-running a producer with ``--resume J --store S`` refills a
fresh file without simulating again, and seeded locked/full-disk chaos
never leaves a broken file behind.
"""

import json
import os
import shutil
import sqlite3

import pytest

from repro import obs
from repro.cli import main
from repro.report import build_report
from repro.runtime.chaos import ChaosPolicy, ChaosSpec
from repro.store import ResultStore
from repro.store.ingest import ingest_journal
from repro.store.schema import SCHEMA_VERSION, schema_version

from .conftest import avf_row, point_record, sweep_point, write_journal

#: the store CI job runs two fixed seeds; assertions hold for any
STORE_SEED = int(os.environ.get("REPRO_STORE_SEED", "1"))


def corrupt(path):
    """Stomp garbage over a page in the middle of a sqlite file."""
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.seek(min(4096, size // 2))
        fh.write(b"\xde\xad\xbe\xef" * 256)


def remove_store(path):
    """Delete a store file and its WAL/SHM sidecars."""
    for suffix in ("", "-wal", "-shm"):
        sidecar = path.with_name(path.name + suffix)
        if sidecar.exists():
            sidecar.unlink()


def sample_journal(tmp_path, n=3):
    """A campaign journal holding ``n`` distinct sweep results."""
    modes = ["2x1", "4x1", "2x2", "3x1", "8x1"]
    return write_journal(
        tmp_path / "campaign.jsonl",
        [
            point_record(
                f"t{i}", workload="matmul",
                point=sweep_point(mode=modes[i % len(modes)], factor=i + 1),
            )
            for i in range(n)
        ],
    )


def _query_json(path, capsys, *filters):
    """The stdout bytes of ``repro query --json`` against ``path``."""
    capsys.readouterr()
    assert main(["query", "--store", str(path), "--json", *filters]) == 0
    return capsys.readouterr().out.encode()


def _report_page(path, out_dir):
    with ResultStore(path) as store:
        return build_report(store, out_dir).read_bytes()


def _is_damaged(path):
    """Whether sqlite itself rejects the file: it fails to open, or
    ``PRAGMA integrity_check`` reports a fault."""
    try:
        conn = sqlite3.connect(str(path))
        try:
            verdict = conn.execute("PRAGMA integrity_check").fetchall()
        finally:
            conn.close()
    except sqlite3.DatabaseError:
        return True
    return [tuple(row) for row in verdict] != [("ok",)]


def _assert_healthy(path, rows=None):
    """sqlite's structural check passes, the file carries this build's
    schema version, and (when given) ``avf_results`` holds ``rows``."""
    with ResultStore(path) as store:
        verdict = store._conn.execute("PRAGMA integrity_check").fetchall()
        assert [row[0] for row in verdict] == ["ok"]
        assert schema_version(store._conn) == SCHEMA_VERSION
        if rows is not None:
            assert store.summary()["avf_results"] == rows


class TestRebuildConvergence:
    def test_rebuilt_store_answers_byte_identically(self, tmp_path, capsys):
        """Acceptance: damage the store, remove it, re-ingest the
        journals into a fresh file, and no reader can tell the
        difference — ``repro query --json`` output and the report page
        (with its Fig. 2 MTTF table) match a store that was never
        damaged, byte for byte."""
        journal = sample_journal(tmp_path, n=5)
        control = tmp_path / "control.sqlite"
        with ResultStore(control) as store:
            ingest_journal(store, journal)

        victim = tmp_path / "victim.sqlite"
        shutil.copyfile(control, victim)
        corrupt(victim)
        assert _is_damaged(victim)  # the damage is real

        remove_store(victim)
        with ResultStore(victim) as store:
            ingest_journal(store, journal)
        _assert_healthy(victim, rows=5)

        for filters in ((), ("--workload", "matmul")):
            body_a = _query_json(control, capsys, *filters)
            body_b = _query_json(victim, capsys, *filters)
            assert body_a == body_b, filters
            assert json.loads(body_a)["count"] == 5

        page_a = _report_page(control, tmp_path / "a")
        page_b = _report_page(victim, tmp_path / "b")
        assert page_a == page_b
        assert b"Figure 2" in page_a

    def test_rerun_with_resume_refills_a_fresh_store(self, tmp_path, capsys):
        """The recovery recipe end to end: re-running the producer with
        the same ``--resume`` journal and a fresh ``--store`` resumes
        every injection from the journal and ingests the same rows."""
        journal = tmp_path / "campaign.jsonl"
        argv = ["inject", "vectoradd", "--singles", "4",
                "--resume", str(journal)]
        first = tmp_path / "a.sqlite"
        assert main([*argv, "--store", str(first)]) == 0
        assert "resumed" not in capsys.readouterr().out

        fresh = tmp_path / "b.sqlite"
        assert main([*argv, "--store", str(fresh)]) == 0
        assert "completed tasks from journal" in capsys.readouterr().out
        _assert_healthy(fresh)

        with ResultStore(first) as a, ResultStore(fresh) as b:
            assert a.injection_stats() == b.injection_stats()
            assert a.campaigns() == b.campaigns()
            assert a.summary()["injections"] > 0
        page_a = _report_page(first, tmp_path / "a")
        page_b = _report_page(fresh, tmp_path / "b")
        assert page_a == page_b


class TestStoreChaos:
    def test_locked_chaos_exhausts_bounded_retries(self, tmp_path):
        """store_locked=1.0: the bounded retry gives up after its budget
        with the standard error — and the file is left intact."""
        path = tmp_path / "r.sqlite"
        ResultStore(path).close()  # healthy schema, no chaos
        policy = ChaosPolicy(
            ChaosSpec(store_locked=1.0), seed=STORE_SEED
        )
        with obs.observe() as (registry, _tracer):
            with ResultStore(path, chaos=policy) as store:
                with pytest.raises(sqlite3.OperationalError,
                                   match="locked"):
                    store.put_avf_rows([avf_row()])
            counters = registry.snapshot()["counters"]
        # 5 attempts: 4 retried (counted), the 5th raises
        assert counters["store.locked_retries"] == 4
        _assert_healthy(path)

    def test_locked_chaos_converges_under_retry(self, tmp_path):
        """store_locked=0.5 rolls fresh dice per attempt, so re-issued
        transactions converge — no row is ever lost to contention."""
        path = tmp_path / "r.sqlite"
        ResultStore(path).close()
        policy = ChaosPolicy(
            ChaosSpec(store_locked=0.5), seed=STORE_SEED
        )
        rows = [avf_row(seed=s) for s in range(6)]
        with ResultStore(path, chaos=policy) as store:
            for row in rows:
                for _ in range(20):  # each call is a fresh transaction
                    try:
                        store.put_avf_rows([row])
                        break
                    except sqlite3.OperationalError:
                        continue
                else:  # pragma: no cover - p < 2**-100
                    raise AssertionError("lock chaos never let us through")
        with ResultStore(path) as store:
            assert len(store.query()) == len(rows)
        _assert_healthy(path)

    def test_enospc_chaos_rolls_back_cleanly(self, tmp_path):
        """A full disk at commit aborts the transaction but corrupts
        nothing: clear the chaos (free the disk) and ingest converges."""
        path = tmp_path / "r.sqlite"
        ResultStore(path).close()
        policy = ChaosPolicy(
            ChaosSpec(store_enospc=1.0), seed=STORE_SEED
        )
        with ResultStore(path, chaos=policy) as store:
            with pytest.raises(OSError, match="space"):
                store.put_avf_rows([avf_row()])
        _assert_healthy(path, rows=0)  # rolled back
        with ResultStore(path) as store:  # the disk has space again
            assert store.put_avf_rows([avf_row()]) == (1, 0)
        _assert_healthy(path, rows=1)
