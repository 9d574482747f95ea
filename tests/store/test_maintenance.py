"""Store self-healing: verify, quarantine, rebuild, persistence chaos.

The store is a derived artifact — every row folded in from a durable
journal — so corruption must be an inconvenience, not data loss.
Acceptance: a corrupted store rebuilt from its journals answers
``repro query --json`` and renders the report page byte-identically to
a store that was never corrupted, and seeded locked/full-disk chaos
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
from repro.store import (
    ResultStore,
    quarantine_store,
    rebuild_store,
    verify_store,
)
from repro.store.ingest import ingest_journal
from repro.store.schema import SCHEMA_VERSION

from .conftest import avf_row, point_record, sweep_point, write_journal

#: the store CI job runs two fixed seeds; assertions hold for any
STORE_SEED = int(os.environ.get("REPRO_STORE_SEED", "1"))


def corrupt(path):
    """Stomp garbage over a page in the middle of a sqlite file."""
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.seek(min(4096, size // 2))
        fh.write(b"\xde\xad\xbe\xef" * 256)


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


class TestVerify:
    def test_healthy_store_is_ok(self, store, store_path):
        store.put_avf_rows([avf_row()])
        report = verify_store(store_path)
        assert report["ok"] is True
        assert report["problems"] == []
        assert report["checks"]["integrity"] == "ok"
        assert report["checks"]["schema_version"] == SCHEMA_VERSION
        assert report["checks"]["rows"]["avf_results"] == 1

    def test_quick_mode_is_ok_too(self, store, store_path):
        store.put_avf_rows([avf_row()])
        assert verify_store(store_path, quick=True)["ok"] is True

    def test_missing_file_is_not_ok(self, tmp_path):
        report = verify_store(tmp_path / "absent.sqlite")
        assert report["ok"] is False
        assert "does not exist" in report["problems"][0]

    def test_corrupted_file_is_not_ok_and_never_raises(
        self, store, store_path
    ):
        store.put_avf_rows([avf_row(seed=s) for s in range(50)])
        store.close()
        corrupt(store_path)
        report = verify_store(store_path)
        assert report["ok"] is False
        assert report["problems"]

    def test_verify_counters(self, store, store_path, tmp_path):
        with obs.observe() as (registry, _tracer):
            verify_store(store_path)
            verify_store(tmp_path / "absent.sqlite")
            counters = registry.snapshot()["counters"]
        assert counters["store.verify_runs"] == 2
        assert counters["store.verify_failures"] == 1


class TestQuarantine:
    def test_moves_file_to_numbered_slot(self, tmp_path):
        target = tmp_path / "r.sqlite"
        target.write_bytes(b"generation one")
        assert quarantine_store(target).endswith("r.sqlite.corrupt-1")
        assert not target.exists()
        target.write_bytes(b"generation two")
        assert quarantine_store(target).endswith("r.sqlite.corrupt-2")
        # evidence is renamed, never deleted
        assert (tmp_path / "r.sqlite.corrupt-1").read_bytes() == (
            b"generation one"
        )
        assert (tmp_path / "r.sqlite.corrupt-2").read_bytes() == (
            b"generation two"
        )

    def test_sidecars_travel_with_the_file(self, tmp_path):
        target = tmp_path / "r.sqlite"
        target.write_bytes(b"db")
        (tmp_path / "r.sqlite-wal").write_bytes(b"wal")
        (tmp_path / "r.sqlite-shm").write_bytes(b"shm")
        parked = quarantine_store(target)
        assert (tmp_path / "r.sqlite.corrupt-1-wal").exists()
        assert (tmp_path / "r.sqlite.corrupt-1-shm").exists()
        assert not (tmp_path / "r.sqlite-wal").exists()
        assert parked.endswith("r.sqlite.corrupt-1")


class TestRebuild:
    def test_rebuild_from_journal(self, tmp_path):
        journal = sample_journal(tmp_path)
        target = tmp_path / "r.sqlite"
        result = rebuild_store(target, [journal])
        assert result["quarantined"] is None  # nothing to park
        assert result["ingested"] == 3
        assert result["verify"]["ok"] is True
        with ResultStore(target) as store:
            assert len(store.query()) == 3

    def test_rebuild_quarantines_corrupt_file(self, tmp_path):
        journal = sample_journal(tmp_path)
        target = tmp_path / "r.sqlite"
        with ResultStore(target) as store:
            store.put_avf_rows([avf_row(seed=s) for s in range(50)])
        corrupt(target)
        result = rebuild_store(target, [journal])
        assert result["quarantined"].endswith(".corrupt-1")
        assert (tmp_path / "r.sqlite.corrupt-1").exists()
        assert result["verify"]["ok"] is True
        assert verify_store(target)["ok"] is True

    def test_rebuild_twice_converges(self, tmp_path):
        journal = sample_journal(tmp_path)
        target = tmp_path / "r.sqlite"
        rebuild_store(target, [journal])
        with ResultStore(target) as store:
            first = store.query().to_dicts()
        again = rebuild_store(target, [journal])
        assert again["quarantined"].endswith(".corrupt-1")
        with ResultStore(target) as store:
            assert store.query().to_dicts() == first

    def test_shard_dir_requires_a_canonical_journal(self, tmp_path):
        with pytest.raises(ValueError, match="canonical journal"):
            rebuild_store(
                tmp_path / "r.sqlite", (), shard_dir=tmp_path
            )

    def test_rebuild_counter(self, tmp_path):
        journal = sample_journal(tmp_path)
        with obs.observe() as (registry, _tracer):
            rebuild_store(tmp_path / "r.sqlite", [journal])
            counters = registry.snapshot()["counters"]
        assert counters["store.rebuilds"] == 1


def _query_json(path, capsys, *filters):
    """The stdout bytes of ``repro query --json`` against ``path``."""
    capsys.readouterr()
    assert main(["query", "--store", str(path), "--json", *filters]) == 0
    return capsys.readouterr().out.encode()


class TestRebuildConvergence:
    def test_rebuilt_store_answers_byte_identically(self, tmp_path, capsys):
        """Acceptance: corrupt the store, rebuild from journals, and no
        reader can tell the difference — ``repro query --json`` output
        and the report page (with its Fig. 2 MTTF table) match a store
        that was never corrupted, byte for byte."""
        journal = sample_journal(tmp_path, n=5)
        control = tmp_path / "control.sqlite"
        with ResultStore(control) as store:
            ingest_journal(store, journal)

        victim = tmp_path / "victim.sqlite"
        shutil.copyfile(control, victim)
        corrupt(victim)
        assert verify_store(victim)["ok"] is False  # the damage is real

        result = rebuild_store(victim, [journal])
        assert result["verify"]["ok"] is True
        assert result["quarantined"].endswith(".corrupt-1")

        for filters in ((), ("--workload", "matmul")):
            body_a = _query_json(control, capsys, *filters)
            body_b = _query_json(victim, capsys, *filters)
            assert body_a == body_b, filters
            assert json.loads(body_a)["count"] == 5

        pages = []
        for name, path in (("a", control), ("b", victim)):
            with ResultStore(path) as store:
                pages.append(
                    build_report(store, tmp_path / name).read_bytes()
                )
        assert pages[0] == pages[1]
        assert b"Figure 2" in pages[0]


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
        assert verify_store(path)["ok"] is True

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
        assert verify_store(path)["ok"] is True

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
        report = verify_store(path)
        assert report["ok"] is True
        assert report["checks"]["rows"]["avf_results"] == 0  # rolled back
        with ResultStore(path) as store:  # the disk has space again
            assert store.put_avf_rows([avf_row()]) == (1, 0)
        assert verify_store(path)["checks"]["rows"]["avf_results"] == 1
