"""The one results sink: a store that cannot take a write never fails
the producer that computed the results.

Every producer persists through :func:`repro.store.persist`.  On a
damaged file each one finishes, returns or prints its results, counts
``store.ingest_failures`` once and names the recovery recipe; following
the recipe refills a fresh file.  A bug inside an ingest function is not
a store failure and still raises.
"""

import json
import os
import sqlite3

import pytest

from repro import obs
from repro.cli import main
from repro.core import FaultMode, Parity, SecDed
from repro.core.sweep import sweep_avf
from repro.experiments import build_study, sweep_benchmarks
from repro.runtime import Journal
from repro.runtime.chaos import ChaosPolicy, ChaosSpec
from repro.store import ResultStore, persist
from repro.store.schema import SCHEMA_VERSION

from .conftest import (
    avf_row,
    point_record,
    remove_store,
    sweep_point,
    write_journal,
)

STORE_SEED = int(os.environ.get("REPRO_STORE_SEED", "1"))

SWEEP = dict(
    modes=[FaultMode.linear(1), FaultMode.linear(2)],
    schemes=[Parity(), SecDed()],
)


def damage(path):
    """A real store file with its header page stomped: sqlite refuses
    it ("file is not a database") on first touch."""
    with ResultStore(path) as store:
        store.put_avf_rows([avf_row(seed=s) for s in range(50)])
    with open(path, "r+b") as fh:
        fh.write(b"\xde\xad\xbe\xef" * 1024)
    return path


def failures(registry):
    return registry.snapshot()["counters"].get("store.ingest_failures", 0)


class TestDamagedStore:
    def test_inject_keeps_the_campaign_and_names_the_recipe(
        self, tmp_path, capsys
    ):
        """``repro inject --resume J --store S`` on a damaged S: the
        campaign is reported and exits 0, the failure is counted once,
        and the warning names ``--resume J --store S``.  Following it —
        remove the file, re-run — resumes every injection from the
        journal and fills a fresh file."""
        journal = tmp_path / "campaign.jsonl"
        store = damage(tmp_path / "r.sqlite")
        argv = ["inject", "vectoradd", "--singles", "4",
                "--resume", str(journal), "--store", str(store)]
        with obs.observe() as (registry, _tracer):
            assert main(argv) == 0
            assert failures(registry) == 1
        out, err = capsys.readouterr()
        assert "SDC ACE bits" in out
        assert "results-store ingest failed" in err
        assert f"--resume {journal} --store {store}" in err
        assert "repro store" not in err

        remove_store(store)
        with obs.observe() as (registry, _tracer):
            assert main(argv) == 0
            assert failures(registry) == 0
        assert "completed tasks from journal" in capsys.readouterr().out
        with ResultStore(store) as s:
            assert s.summary()["injections"] == len(Journal(journal).load())
            assert [c["benchmark"] for c in s.campaigns()] == ["vectoradd"]

    def test_avf_still_prints_its_result(self, tmp_path, capsys):
        argv = ["avf", "vectoradd", "--structure", "l1", "--mode", "2x1",
                "--scheme", "parity"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        store = damage(tmp_path / "r.sqlite")
        with obs.observe() as (registry, _tracer):
            assert main([*argv, "--store", str(store)]) == 0
            assert failures(registry) == 1
        out, err = capsys.readouterr()
        assert out == plain
        assert f"re-run the command with --store {store}" in err

    def test_mttf_json_stays_one_document(self, tmp_path, capsys):
        store = damage(tmp_path / "r.sqlite")
        with obs.observe() as (registry, _tracer):
            assert main(["mttf", "--json", "--store", str(store)]) == 0
            assert failures(registry) == 1
        out, err = capsys.readouterr()
        assert len(json.loads(out)["rows"]) >= 4
        assert "results-store ingest failed" in err

    def test_campaign_merge_keeps_the_merged_journal(self, tmp_path, capsys):
        canonical = tmp_path / "canonical.jsonl"
        write_journal(canonical, [point_record("grid/vgpr/matmul/c0")])
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        write_journal(
            shard_dir / "node-a.jsonl",
            [point_record("grid/vgpr/matmul/c1",
                          point=sweep_point(mode="4x1"))],
        )
        store = damage(tmp_path / "r.sqlite")
        with obs.observe() as (registry, _tracer):
            assert main(["campaign", "merge", "--resume", str(canonical),
                         "--shard-dir", str(shard_dir),
                         "--store", str(store)]) == 0
            assert failures(registry) == 1
        out, err = capsys.readouterr()
        assert "merged 1 records" in out
        assert "stored:" not in out
        assert f"--resume {canonical} --store {store}" in err
        assert len(Journal(canonical).load()) == 2

    def test_sweep_benchmarks_returns_the_same_points(self, tmp_path, capsys):
        control, _ = sweep_benchmarks(["vectoradd"], "l2", **SWEEP)
        journal = tmp_path / "grid.jsonl"
        store = damage(tmp_path / "r.sqlite")
        with obs.observe() as (registry, _tracer):
            points, failed = sweep_benchmarks(
                ["vectoradd"], "l2", journal=journal, store=store, **SWEEP
            )
            assert failures(registry) == 1
        assert failed == {}
        assert points == control
        assert f"--resume {journal} --store {store}" in capsys.readouterr().err

    def test_study_sweep_returns_the_same_points(self, tmp_path, capsys):
        study = build_study("vectoradd", n_cus=1)
        control = sweep_avf(study, "l2", **SWEEP)
        store = damage(tmp_path / "r.sqlite")
        with obs.observe() as (registry, _tracer):
            points = sweep_avf(study, "l2", store=store, **SWEEP)
            assert failures(registry) == 1
        assert points == control
        assert "results-store ingest failed" in capsys.readouterr().err


class TestPersist:
    def test_returns_what_the_write_returns(self, store_path):
        counts = persist(store_path, lambda s: s.put_avf_rows([avf_row()]))
        assert counts == (1, 0)

    def test_a_bug_in_the_write_still_raises(self, store_path):
        def write(store):
            raise KeyError("not a store failure")

        with obs.observe() as (registry, _tracer):
            with pytest.raises(KeyError):
                persist(store_path, write)
            assert failures(registry) == 0

    def test_full_disk_is_a_store_failure(self, store_path, capsys):
        policy = ChaosPolicy(ChaosSpec(store_enospc=1.0), seed=STORE_SEED)
        with obs.observe() as (registry, _tracer):
            with ResultStore(store_path, chaos=policy) as store:
                assert persist(
                    store, lambda s: s.put_avf_rows([avf_row()]),
                ) is None
            assert failures(registry) == 1
        assert "OSError" in capsys.readouterr().err
        with ResultStore(store_path) as store:
            assert store.summary()["avf_results"] == 0

    def test_newer_schema_is_a_store_failure(self, store_path, capsys):
        ResultStore(store_path).close()
        conn = sqlite3.connect(store_path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with obs.observe() as (registry, _tracer):
            assert persist(
                store_path, lambda s: s.put_avf_rows([avf_row()]),
            ) is None
            assert failures(registry) == 1
        assert "SchemaVersionError" in capsys.readouterr().err
