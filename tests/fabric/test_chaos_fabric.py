"""Node-level chaos acceptance: the fabric survives losing its fleet.

The seeded acceptance scenario (see ISSUE/ROADMAP): a sharded campaign
with one SIGKILLed worker node and one RPC-partitioned worker node is
drained mid-flight, then resumed from the merged replicated journal —
and converges to results identical to an undisturbed single-host run,
with zero lost and zero duplicated journal records.

Chaos here is real: the killed node is a spawned process destroyed with
SIGKILL (no goodbye, no flush), and the partitioned node runs a
deterministic :class:`~repro.runtime.chaos.ChaosSpec` whose
``rpc_partition`` windows sever its data plane.  Every assertion holds
for *any* seed — seeds only pick which exact RPCs fail.
"""

import json

import pytest

from repro.runtime import Executor, Task, TaskOutcome
from repro.runtime.chaos import ChaosSpec
from repro.runtime.errors import CampaignInterrupted
from repro.runtime.fabric import FabricCoordinator, stub_job

from .conftest import (
    FABRIC_CHAOS_SEEDS,
    expected_map,
    journaled_ids,
    outcome_map,
    spawn_worker,
    stub_tasks,
    wait_for,
)

pytestmark = pytest.mark.fabric_chaos


def reap(*procs):
    for proc in procs:
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)


class TestNodeLossAcceptance:
    def test_sigkill_plus_partition_resumes_to_exact_results(self, tmp_path):
        """The PR's seeded acceptance test, end to end."""
        shard_dir = tmp_path / "shards"
        journal = tmp_path / "campaign.jsonl"
        tasks = stub_tasks("acc", 20)
        expected = expected_map(tasks, mul=3)
        job = stub_job(mul=3, sleep=0.05)

        coord = FabricCoordinator(
            lease_ttl=0.8, lease_batch=2, poll_interval=0.02,
            shard_dir=shard_dir,
        )
        coord.start()
        # n0: healthy until we SIGKILL it mid-campaign.
        n0 = spawn_worker(coord.address, "n0", shard_dir=shard_dir)
        # n1: data-plane partition windows, deterministic under its seed.
        n1 = spawn_worker(
            coord.address, "n1", shard_dir=shard_dir,
            chaos_spec=ChaosSpec(rpc_partition=0.3, partition_span=4),
            chaos_seed=2,
        )
        try:
            ex = Executor(
                fabric=coord, job=job, journal=journal,
                worker_grace=30.0, drain_signals=False, stop_after=10,
            )
            # Kill n0 the moment its shard proves it executed work: a
            # real node death with journaled-but-possibly-unreported
            # records behind it.
            n0_shard = shard_dir / "n0.jsonl"
            kill_done = []

            import threading

            def killer():
                try:
                    wait_for(
                        lambda: n0_shard.exists()
                        and n0_shard.stat().st_size > 0,
                        timeout=15.0,
                    )
                finally:
                    n0.kill()
                    kill_done.append(True)

            killer_thread = threading.Thread(target=killer, daemon=True)
            killer_thread.start()
            with pytest.raises(CampaignInterrupted) as exc_info:
                ex.run(tasks)
            killer_thread.join(timeout=20.0)
            assert kill_done, "killer thread never fired"
            assert exc_info.value.completed < len(tasks)
        finally:
            coord.stop()
            reap(n0, n1)

        # The drain merged every visible shard into the canonical
        # journal; the killed node's work survives under its name.
        interim = journaled_ids(journal)
        assert len(interim) == len(set(interim)), "duplicate records"
        assert any(
            json.loads(line).get("node") == "n0"
            for line in journal.read_text().splitlines()
        ), "the killed node's replicated records were lost"

        # Resume from the merged journal — no fleet this time: the
        # remaining tasks demote to local execution.
        coord2 = FabricCoordinator(shard_dir=shard_dir)
        ex2 = Executor(
            fabric=coord2, job=job, journal=journal,
            worker_grace=0.05, drain_signals=False,
        )
        try:
            results = ex2.run(tasks)
        finally:
            ex2.close()
            coord2.stop()

        # Identical to the undisturbed single-host run ...
        assert outcome_map(results) == expected
        # ... with zero lost and zero duplicated records.
        ids = journaled_ids(journal)
        assert sorted(ids) == [t.id for t in tasks]
        assert len(ids) == len(set(ids))
        # Interim records were never re-executed or rewritten.
        assert set(interim) <= set(ids)


class TestChaosFleetConvergence:
    @pytest.mark.parametrize("seed", FABRIC_CHAOS_SEEDS)
    def test_chaotic_fleet_converges_to_fault_free_results(
        self, tmp_path, seed
    ):
        """Full chaos menu at once: kills, drops, dups, partitions,
        heartbeat blackouts — one seed, one exact failure schedule, and
        the same final results every time."""
        shard_dir = tmp_path / "shards"
        journal = tmp_path / "campaign.jsonl"
        tasks = stub_tasks("storm", 18)
        spec = ChaosSpec(
            node_kill=0.12, rpc_drop=0.1, rpc_dup=0.2, rpc_partition=0.15,
            heartbeat_blackout=0.25, rpc_delay=0.1,
            rpc_delay_seconds=0.01, partition_span=4,
        )
        coord = FabricCoordinator(
            lease_ttl=0.8, lease_batch=2, poll_interval=0.02,
            shard_dir=shard_dir,
        )
        coord.start()
        procs = [
            spawn_worker(
                coord.address, f"n{i}", shard_dir=shard_dir,
                chaos_spec=spec, chaos_seed=seed + i,
            )
            for i in range(2)
        ]
        try:
            ex = Executor(
                fabric=coord, job=stub_job(), journal=journal,
                worker_grace=2.0, drain_signals=False,
            )
            results = ex.run(tasks)
            ex.close()
        finally:
            coord.stop()
            reap(*procs)
        assert outcome_map(results) == expected_map(tasks)
        ids = journaled_ids(journal)
        assert sorted(ids) == [t.id for t in tasks]
        assert len(ids) == len(set(ids))


class TestIdempotentReexecution:
    def test_journal_identity_keys_at_least_once_execution(self, tmp_path):
        """A record journaled under one fabric run is never re-executed
        by a later one, even when the rerun would produce a different
        value — journal record identity is the idempotency key."""
        journal = tmp_path / "j.jsonl"
        tasks = [Task("idem/0", 5)]
        coord = FabricCoordinator()
        ex = Executor(
            fabric=coord, job=stub_job(mul=2), journal=journal,
            worker_grace=0.05, drain_signals=False,
        )
        try:
            first = ex.run(tasks)
        finally:
            ex.close()
            coord.stop()
        assert first["idem/0"].value == 10
        # Re-run with a *different* job: the journaled result wins.
        coord2 = FabricCoordinator()
        ex2 = Executor(
            fabric=coord2, job=stub_job(mul=999), journal=journal,
            worker_grace=0.05, drain_signals=False,
        )
        try:
            again = ex2.run(tasks)
        finally:
            ex2.close()
            coord2.stop()
        assert again["idem/0"].value == 10
        assert again["idem/0"].outcome == TaskOutcome.OK
        assert journaled_ids(journal) == ["idem/0"]
