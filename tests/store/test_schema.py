"""Store schema: fresh create, reopen, concurrency, refusal."""

import sqlite3
import threading

import pytest

from repro.store import ResultStore
from repro.store.schema import SCHEMA_VERSION, ensure_schema, schema_version

from .conftest import avf_row


def _tables(conn):
    return {
        r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }


class TestMigrate:
    def test_empty_database_is_version_zero(self):
        conn = sqlite3.connect(":memory:")
        assert schema_version(conn) == 0

    def test_fresh_migrate_reaches_current_version(self):
        conn = sqlite3.connect(":memory:", isolation_level=None)
        ensure_schema(conn)
        assert schema_version(conn) == SCHEMA_VERSION
        assert {"meta", "avf_results", "injections", "mttf_rows",
                "campaigns"} <= _tables(conn)

    def test_migrate_is_idempotent(self):
        conn = sqlite3.connect(":memory:", isolation_level=None)
        ensure_schema(conn)
        before = conn.execute("SELECT sql FROM sqlite_master").fetchall()
        ensure_schema(conn)
        assert schema_version(conn) == SCHEMA_VERSION
        assert conn.execute("SELECT sql FROM sqlite_master").fetchall() == (
            before
        )

    def test_newer_schema_is_refused(self, store_path):
        # A database stamped by a future build must not be misread.
        ResultStore(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="upgrade the code"):
            ResultStore(store_path)


class TestOpen:
    def test_directory_path_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="directory"):
            ResultStore(tmp_path)

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "results.sqlite"
        with ResultStore(path) as store:
            verdict = store._conn.execute("PRAGMA integrity_check")
            assert verdict.fetchone()[0] == "ok"
        assert path.exists()

    def test_wal_mode_is_active(self, store):
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert str(mode).lower() == "wal"

    def test_rows_survive_reopen(self, store_path):
        with ResultStore(store_path) as store:
            store.put_avf_rows([avf_row()])
        with ResultStore(store_path) as store:
            assert len(store.query()) == 1
            assert schema_version(store._conn) == SCHEMA_VERSION

    def test_racing_opens_migrate_once(self, store_path):
        # Two connections race to create the same fresh file: the
        # loser's BEGIN IMMEDIATE waits, re-reads the stamped version
        # and does nothing (a second create would collide on the meta
        # key and raise).
        conns = [
            sqlite3.connect(str(store_path), timeout=30.0,
                            isolation_level=None, check_same_thread=False)
            for _ in range(2)
        ]
        barrier = threading.Barrier(len(conns))
        errors = []

        def create(conn):
            barrier.wait()
            try:
                ensure_schema(conn)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=create, args=(c,)) for c in conns]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert errors == []
            for conn in conns:
                assert schema_version(conn) == SCHEMA_VERSION
            assert conns[0].execute("SELECT COUNT(*) FROM meta").fetchone()[
                0
            ] == 1
        finally:
            for conn in conns:
                conn.close()
        a = ResultStore(store_path)
        b = ResultStore(store_path)
        try:
            a.put_avf_rows([avf_row()])
            assert len(b.query()) == 1
        finally:
            a.close()
            b.close()

    def test_summary_counts(self, store):
        store.put_avf_rows(
            [avf_row(), avf_row(workload="transpose", structure="vgpr")]
        )
        info = store.summary()
        assert info["avf_results"] == 2
        assert info["injections"] == 0
        assert info["workloads"] == ["matmul", "transpose"]
        assert info["structures"] == ["l1", "vgpr"]
        assert info["schema_version"] == SCHEMA_VERSION
