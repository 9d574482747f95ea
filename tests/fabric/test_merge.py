"""Replicated-journal merge: shard edge cases and resume equivalence.

The merge contract (see ``repro.runtime.fabric.merge``): folding node
shards into the canonical journal loses nothing, duplicates nothing,
prefers successes over failures, never overwrites the coordinator's
commit, and quarantines corrupt shard lines instead of believing them.
"""

import pytest

from repro.runtime import Task, TaskOutcome
from repro.runtime.fabric import SPAN_SHARD_SUFFIX, find_shards, merge_shards
from repro.runtime.journal import Journal
from repro.runtime.executor import load_journaled_results

from .conftest import journaled_ids


def record(task, *, outcome=TaskOutcome.OK, value=None, attempts=1,
           seq=1, node="n0", error=""):
    return {
        "task": task, "outcome": outcome, "value": value, "error": error,
        "attempts": attempts, "duration": 0.001, "seq": seq, "node": node,
    }


def write_shard(path, records):
    j = Journal(path)
    for rec in records:
        j.append(rec)
    j.close()
    return path


class TestFindShards:
    def test_skips_span_shards_and_quarantine_sidecars(self, tmp_path):
        write_shard(tmp_path / "n0.jsonl", [record("a")])
        write_shard(tmp_path / "n1.jsonl", [record("b", node="n1")])
        (tmp_path / f"n0{SPAN_SHARD_SUFFIX}").write_text("{}\n")
        (tmp_path / "n9.jsonl.quarantine").write_text("junk\n")
        assert [p.name for p in find_shards(tmp_path)] == [
            "n0.jsonl", "n1.jsonl"
        ]

    def test_missing_dir_is_empty(self, tmp_path):
        assert find_shards(tmp_path / "nowhere") == []


class TestMergeEdgeCases:
    def test_duplicate_across_shards_prefers_success(self, tmp_path):
        # At-least-once execution: node n0 was partitioned mid-task, the
        # re-dispatch on n1 succeeded — the success must win regardless
        # of shard order.
        write_shard(tmp_path / "n0.jsonl", [
            record("dup", outcome=TaskOutcome.WORKER_DIED, attempts=2,
                   error="boom"),
        ])
        write_shard(tmp_path / "n1.jsonl", [
            record("dup", value=42, attempts=1, node="n1"),
        ])
        canonical = tmp_path / "campaign.jsonl"
        stats = merge_shards(canonical, tmp_path)
        assert stats == {
            "merged": 1, "present": 0, "duplicates": 1, "shards": 2
        }
        rec = Journal(canonical).load()["dup"]
        assert rec["outcome"] == TaskOutcome.OK
        assert rec["value"] == 42

    def test_duplicate_ok_records_higher_attempts_win(self, tmp_path):
        write_shard(tmp_path / "n0.jsonl", [record("t", value=1, attempts=1)])
        write_shard(tmp_path / "n1.jsonl",
                    [record("t", value=1, attempts=3, node="n1")])
        canonical = tmp_path / "campaign.jsonl"
        merge_shards(canonical, tmp_path)
        assert Journal(canonical).load()["t"]["attempts"] == 3

    def test_interleaved_seq_merges_deterministically(self, tmp_path):
        # Shard file order is append order, which under retries is NOT
        # seq order; the merge replays each shard by its per-node seq,
        # shards in sorted path order.
        shards = tmp_path / "shards"
        write_shard(shards / "n0.jsonl", [
            record("a2", seq=2), record("a1", seq=1), record("a3", seq=3),
        ])
        write_shard(shards / "n1.jsonl", [
            record("b2", seq=2, node="n1"), record("b1", seq=1, node="n1"),
        ])
        canonical = tmp_path / "campaign.jsonl"
        merge_shards(canonical, shards)
        assert journaled_ids(canonical) == ["a1", "a2", "a3", "b1", "b2"]
        # Deterministic: merging the same shards into a fresh canonical
        # journal yields the identical record order.
        again = tmp_path / "campaign2.jsonl"
        merge_shards(again, shards)
        assert journaled_ids(again) == journaled_ids(canonical)

    def test_corrupt_shard_line_is_quarantined_not_merged(self, tmp_path):
        shard = write_shard(tmp_path / "n0.jsonl", [
            record("good1", seq=1), record("bad", seq=2),
            record("good2", seq=3),
        ])
        # Flip the middle record's value without updating its CRC.
        lines = shard.read_text().splitlines()
        lines[1] = lines[1].replace('"bad"', '"mangled"')
        shard.write_text("\n".join(lines) + "\n")
        canonical = tmp_path / "campaign.jsonl"
        with pytest.warns(UserWarning, match="quarantined"):
            stats = merge_shards(canonical, tmp_path)
        assert stats["merged"] == 2
        assert sorted(journaled_ids(canonical)) == ["good1", "good2"]
        # Forensics sidecar exists; the damaged task simply re-runs.
        quarantine = tmp_path / "n0.jsonl.quarantine"
        assert quarantine.exists()
        assert "crc_mismatch" in quarantine.read_text()

    def test_canonical_record_never_overwritten(self, tmp_path):
        canonical = tmp_path / "campaign.jsonl"
        write_shard(canonical, [record("x", value="commit")])
        write_shard(tmp_path / "shards" / "n0.jsonl",
                    [record("x", value="late-duplicate")])
        stats = merge_shards(canonical, tmp_path / "shards")
        assert stats == {
            "merged": 0, "present": 1, "duplicates": 0, "shards": 1
        }
        assert Journal(canonical).load()["x"]["value"] == "commit"
        assert journaled_ids(canonical) == ["x"]  # no second line

    def test_explicit_shard_list(self, tmp_path):
        a = write_shard(tmp_path / "a.jsonl", [record("a")])
        b = write_shard(tmp_path / "b.jsonl", [record("b", node="n1")])
        canonical = tmp_path / "campaign.jsonl"
        stats = merge_shards(canonical, [a, b])
        assert stats["merged"] == 2
        assert stats["shards"] == 2


class TestMergedResumeEquivalence:
    """A resume from merged shards must equal a single-journal resume."""

    def _tasks(self):
        return [Task(f"eq/{i:02d}", i) for i in range(10)]

    def test_merged_resume_equals_single_journal_resume(self, tmp_path):
        tasks = self._tasks()
        # The undisturbed single-host journal: all ten records in one
        # canonical file.
        single = tmp_path / "single.jsonl"
        write_shard(single, [
            record(t.id, value=t.payload * 2, seq=i + 1)
            for i, t in enumerate(tasks)
        ])
        # The disturbed fabric equivalent: the coordinator committed the
        # first four records before dying; nodes n0/n1 hold the rest in
        # their shards, overlapping on one re-dispatched task.
        merged = tmp_path / "merged.jsonl"
        write_shard(merged, [
            record(t.id, value=t.payload * 2, seq=i + 1)
            for i, t in enumerate(tasks[:4])
        ])
        shard_dir = tmp_path / "shards"
        write_shard(shard_dir / "n0.jsonl", [
            record(t.id, value=t.payload * 2, seq=i + 1)
            for i, t in enumerate(tasks[4:8])
        ])
        write_shard(shard_dir / "n1.jsonl", [
            record(t.id, value=t.payload * 2, seq=i + 1, node="n1")
            for i, t in enumerate(tasks[7:])
        ])
        stats = merge_shards(merged, shard_dir)
        assert stats["merged"] == 6
        assert stats["duplicates"] == 1  # the doubly-executed task
        res_single, pend_single = load_journaled_results(
            Journal(single), tasks
        )
        res_merged, pend_merged = load_journaled_results(
            Journal(merged), tasks
        )
        assert pend_single == [] and pend_merged == []
        assert {
            k: (r.outcome, r.value) for k, r in res_single.items()
        } == {
            k: (r.outcome, r.value) for k, r in res_merged.items()
        }
        # Zero lost, zero duplicated records in the merged journal.
        ids = journaled_ids(merged)
        assert sorted(ids) == sorted(t.id for t in tasks)
        assert len(ids) == len(set(ids))

    def test_partial_merge_leaves_rest_pending(self, tmp_path):
        tasks = self._tasks()
        merged = tmp_path / "merged.jsonl"
        shard_dir = tmp_path / "shards"
        write_shard(shard_dir / "n0.jsonl", [
            record(t.id, value=t.payload * 2, seq=i + 1)
            for i, t in enumerate(tasks[:3])
        ])
        merge_shards(merged, shard_dir)
        results, pending = load_journaled_results(Journal(merged), tasks)
        assert sorted(results) == [t.id for t in tasks[:3]]
        assert [t.id for t in pending] == [t.id for t in tasks[3:]]
