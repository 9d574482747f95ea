"""Ingest is idempotent: every producer path re-ingests as a no-op."""

import json

from repro.core import FaultMode, Interleaving
from repro.core.avf import MbAvfResult
from repro.core.intervals import Outcome
from repro.core.sweep import SweepPoint
from repro.runtime.fabric import merge_shards
from repro.store import (
    ResultStore,
    ingest_campaign,
    ingest_journal,
    ingest_results,
    ingest_sweep_points,
)

from .conftest import (
    FakeCampaign,
    avf_row,
    fake_result,
    injection_record,
    point_record,
    sweep_point,
    write_journal,
)


class TestAvfRows:
    def test_insert_then_reinsert_dedupes(self, store):
        assert store.put_avf_rows([avf_row()]) == (1, 0)
        assert store.put_avf_rows([avf_row()]) == (0, 1)
        assert len(store.query()) == 1

    def test_source_is_not_part_of_the_key(self, store):
        # The same measurement arriving from two provenances (live run,
        # then journal re-ingest) is one row.
        store.put_avf_rows([avf_row(source="cli/avf")])
        assert store.put_avf_rows(
            [avf_row(source="/tmp/campaign.jsonl")]
        ) == (0, 1)
        assert len(store.query()) == 1

    def test_key_columns_distinguish_rows(self, store):
        rows = [
            avf_row(),
            avf_row(workload="transpose"),
            avf_row(mode="4x1"),
            avf_row(seed=7),
            avf_row(scheme="sec-ded"),
        ]
        assert store.put_avf_rows(rows) == (5, 0)

    def test_defaults_are_filled(self, store):
        minimal = {
            "workload": "matmul", "structure": "l1", "scheme": "none",
            "style": "none", "factor": 1, "mode": "2x1",
            "due_avf": 0.5, "sdc_avf": 0.25,
            "true_due_avf": 0.4, "false_due_avf": 0.1,
        }
        store.put_avf_rows([minimal])
        row = store.query()[0]
        assert row.ser_model == "none" and row.seed == 0
        assert row.total_avf == 0.75
        assert row.engine_version

    def test_empty_batch_is_a_noop(self, store):
        assert store.put_avf_rows([]) == (0, 0)


class TestSweepPointsAndResults:
    def test_ingest_sweep_points_round_trip(self, store):
        points = [sweep_point(), sweep_point(mode="2x2", factor=4)]
        counts = ingest_sweep_points(
            store, points, workload="matmul", seed=3
        )
        assert counts == {"rows": 2, "ingested": 2, "deduped": 0}
        again = ingest_sweep_points(store, points, workload="matmul", seed=3)
        assert again == {"rows": 2, "ingested": 0, "deduped": 2}
        row = store.query(mode="2x1")[0]
        assert (row.workload, row.seed, row.style) == \
            ("matmul", 3, "inter_thread")

    def test_ingest_results_carries_layout(self, store):
        counts = ingest_results(
            store, [fake_result()], workload="stencil",
            style="intra_word", factor=2, source="batch",
        )
        assert counts["ingested"] == 1
        row = store.query()[0]
        assert (row.style, row.factor, row.mode) == ("intra_word", 2, "3x1")
        assert row.n_groups == 32 and row.window_cycles == 256
        assert ingest_results(
            store, [fake_result()], workload="stencil",
            style="intra_word", factor=2,
        )["deduped"] == 1


    def test_both_paths_file_the_same_total(self, tmp_path):
        """A measurement files the same row whether it arrives as an
        engine result or as a sweep point.  These cycles make the two
        ways of adding up a total disagree in the last bit."""
        res = MbAvfResult(
            structure="vgpr", mode=FaultMode.linear(2), scheme="parity",
            n_groups=10, window_cycles=1,
            outcome_cycles={Outcome.SDC: 1.0, Outcome.TRUE_DUE: 2.0},
        )
        assert (1.0 + 2.0) / 10 != 1.0 / 10 + 2.0 / 10
        point = SweepPoint.from_result("vgpr", Interleaving.INTER_THREAD, 2, res)
        rows = []
        for name, ingest in (
            ("results", lambda s: ingest_results(
                s, [res], workload="transpose", style=point.style,
                factor=point.factor, source="batch",
            )),
            ("points", lambda s: ingest_sweep_points(
                s, [point], workload="transpose",
            )),
        ):
            with ResultStore(tmp_path / f"{name}.sqlite") as store:
                ingest(store)
                (row,) = store.query()
            rows.append(row.to_dict())
        from_results, from_points = rows
        assert from_results["total_avf"] == res.due_avf + res.sdc_avf
        # Sweep points carry no group count or window.
        for column in ("source", "n_groups", "window_cycles"):
            del from_results[column], from_points[column]
        assert from_results == from_points


class TestCampaigns:
    def test_campaign_round_trip_and_idempotence(self, store):
        campaign = FakeCampaign()
        assert ingest_campaign(
            store, campaign, seed=1, n_cus=2
        )["ingested"] == 1
        assert ingest_campaign(
            store, campaign, seed=1, n_cus=2
        )["deduped"] == 1
        stored = store.campaigns()
        assert len(stored) == 1
        assert stored[0]["benchmark"] == "vectoradd"
        assert stored[0]["single_outcomes"] == {"masked": 9, "sdc": 3}
        assert stored[0]["multibit"] == {"2x1": [1, 0, 1]}

    def test_distinct_seeds_are_distinct_rows(self, store):
        ingest_campaign(store, FakeCampaign(), seed=1)
        ingest_campaign(store, FakeCampaign(), seed=2)
        assert len(store.campaigns()) == 2


class TestJournalIngest:
    def test_classification_and_counts(self, store, tmp_path):
        path = write_journal(
            tmp_path / "campaign.jsonl",
            [
                point_record("grid/vgpr/matmul/c0"),
                injection_record("vectoradd/single/0001"),
                # failed cell: no value to store
                point_record(
                    "grid/vgpr/matmul/c1", outcome="timeout", value=None
                ),
                # unclassifiable record: skipped, not an error
                {"task": "golden/run", "outcome": "ok", "value": 42,
                 "error": None, "attempts": 1, "duration": 0.1},
            ],
        )
        counts = ingest_journal(store, path)
        assert counts["records"] == 4
        assert counts["avf_rows"] == 1
        assert counts["injections"] == 1
        assert counts["skipped"] == 2
        assert counts["ingested"] == 2

    def test_reingest_is_a_noop(self, store, tmp_path):
        path = write_journal(
            tmp_path / "c.jsonl",
            [point_record("grid/vgpr/matmul/c0"),
             injection_record("vectoradd/single/0001")],
        )
        ingest_journal(store, path)
        counts = ingest_journal(store, path)
        assert counts["ingested"] == 0
        assert counts["deduped"] == 2

    def test_injection_rows_decode_spec_meta(self, store, tmp_path):
        path = write_journal(
            tmp_path / "c.jsonl",
            [injection_record("vectoradd/single/0001", verdict="sdc")],
        )
        ingest_journal(store, path, source="campaign-7")
        conn = store._conn
        row = conn.execute(
            "SELECT source, benchmark, verdict, wf, reg, lane, cycle, bits "
            "FROM injections WHERE task = 'vectoradd/single/0001'"
        ).fetchone()
        assert row["source"] == "campaign-7"
        assert row["benchmark"] == "vectoradd"
        assert row["verdict"] == "sdc"
        assert (row["wf"], row["reg"], row["lane"], row["cycle"]) == (
            1, 4, 7, 90
        )
        assert json.loads(row["bits"]) == [3]

    def test_workload_falls_back_to_argument(self, store, tmp_path):
        rec = point_record("grid/vgpr/x/c0")
        del rec["meta"]
        path = write_journal(tmp_path / "c.jsonl", [rec])
        ingest_journal(store, path, workload="stencil")
        assert store.query()[0].workload == "stencil"

    def test_points_list_record(self, store, tmp_path):
        cells = [sweep_point(), sweep_point(mode="4x1")]
        rec = point_record("sweep/vgpr/matmul")
        rec["value"] = [
            point_record("x", point=c)["value"] for c in cells
        ]
        path = write_journal(tmp_path / "c.jsonl", [rec])
        counts = ingest_journal(store, path)
        assert counts["avf_rows"] == 2 and counts["ingested"] == 2

    def test_merged_shards_then_reingest_is_noop(self, store, tmp_path):
        """Satellite: merging node shards into the canonical journal and
        re-ingesting converges — merge dedups by task id, the store by
        canonical key, so no path double-counts."""
        canonical = tmp_path / "canonical.jsonl"
        write_journal(canonical, [point_record("grid/vgpr/matmul/c0")])
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        # one record already canonical, one genuinely new, duplicated
        # across both shards
        fresh = point_record(
            "grid/vgpr/matmul/c1", point=sweep_point(mode="4x1")
        )
        write_journal(
            shard_dir / "node-a.jsonl",
            [point_record("grid/vgpr/matmul/c0"), fresh],
        )
        write_journal(shard_dir / "node-b.jsonl", [fresh])
        ingest_journal(store, canonical)
        assert len(store.query()) == 1

        stats = merge_shards(canonical, shard_dir)
        assert stats["merged"] == 1 and stats["duplicates"] == 1
        counts = ingest_journal(store, canonical)
        assert counts["ingested"] == 1  # just the merged cell
        assert len(store.query()) == 2
        # the whole cycle again: a pure no-op
        assert merge_shards(canonical, shard_dir)["merged"] == 0
        assert ingest_journal(store, canonical)["ingested"] == 0


class TestMttf:
    def test_round_trip_and_idempotence(self, store):
        from types import SimpleNamespace

        rows = [
            SimpleNamespace(
                raw_fit_per_mbit=fit, mttf_smbf_01pct=1e5 / fit,
                mttf_smbf_5pct=2e3 / fit, mttf_tmbf_unbounded=9e9 / fit,
                mttf_tmbf_100yr=8e8 / fit,
            )
            for fit in (10.0, 100.0)
        ]
        assert store.put_mttf_rows(rows) == (2, 0)
        assert store.put_mttf_rows(rows) == (0, 2)
        stored = store.mttf_rows()
        assert [r["raw_fit_per_mbit"] for r in stored] == [10.0, 100.0]
        assert store.mttf_rows(cache_bytes=1) == []
