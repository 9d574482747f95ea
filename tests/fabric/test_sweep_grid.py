"""Distributed sweeps: the ``sweep_grid`` entrypoint end to end.

One coordinator plus thread workers serve real (tiny) sweep cells; the
assertions cover cell-granular distribution, local-vs-fabric result
equality, demotion of a fleetless sweep to the driver, journal resume,
and the executor's commit-time store sink.
"""

import pytest

from repro.core import SCHEMES, FaultMode
from repro.experiments import sweep_benchmarks
from repro.store import ResultStore

# fabric cells ship schemes by registry name, so use registry instances
KWARGS = dict(
    modes=[FaultMode.linear(1), FaultMode.linear(2)],
    schemes=[SCHEMES["parity"], SCHEMES["secded"]],
)


@pytest.fixture
def fleet(coordinator, thread_fleet):
    thread_fleet(2)
    return coordinator


class TestSweepGridFabric:
    def test_matches_local_sweep(self, fleet):
        local, _ = sweep_benchmarks(["vectoradd"], "l2", **KWARGS)
        points, failed = sweep_benchmarks(
            ["vectoradd"], "l2", fabric=fleet, **KWARGS
        )
        assert failed == {}
        assert sorted(map(str, points["vectoradd"])) == \
            sorted(map(str, local["vectoradd"]))

    def test_fleetless_sweep_runs_on_the_driver(self, coordinator):
        """No node ever registers: every cell demotes to the driver, which
        builds the same sweep_grid entrypoint the nodes would."""
        local, _ = sweep_benchmarks(["vectoradd"], "l2", **KWARGS)
        points, failed = sweep_benchmarks(
            ["vectoradd"], "l2", fabric=coordinator, **KWARGS
        )
        assert failed == {}
        assert sorted(map(str, points["vectoradd"])) == \
            sorted(map(str, local["vectoradd"]))

    def test_multiple_benchmarks_share_the_fleet(self, fleet):
        points, failed = sweep_benchmarks(
            ["vectoradd", "transpose"], "l2", fabric=fleet,
            modes=[FaultMode.linear(2)], schemes=[SCHEMES["parity"]],
        )
        assert failed == {}
        assert len(points["vectoradd"]) == 1
        assert len(points["transpose"]) == 1

    def test_journaled_fabric_sweep_lands_in_store(self, fleet, tmp_path):
        """The coordinator-finalize sink: a journaled distributed sweep
        is in the store the moment the run returns, with the journal as
        its provenance — and re-running it changes nothing."""
        journal = tmp_path / "grid.jsonl"
        store_path = tmp_path / "results.sqlite"
        points, failed = sweep_benchmarks(
            ["vectoradd"], "vgpr", fabric=fleet,
            journal=journal, store=store_path, **KWARGS
        )
        assert failed == {}
        with ResultStore(store_path) as store:
            rows = store.query()
            assert len(rows) == len(points["vectoradd"]) == 4
            assert {r.workload for r in rows} == {"vectoradd"}
            assert {r.structure for r in rows} == {"vgpr"}
            # provenance: the executor ingested from the journal at
            # commit time (the direct sink afterwards then deduped)
            assert all(
                r.source and r.source.endswith("grid.jsonl") for r in rows
            )

        # resume: every cell is already journaled, re-ingest is a no-op
        again, failed = sweep_benchmarks(
            ["vectoradd"], "vgpr", fabric=fleet,
            journal=journal, store=store_path, **KWARGS
        )
        assert failed == {}
        assert sorted(map(str, again["vectoradd"])) == \
            sorted(map(str, points["vectoradd"]))
        with ResultStore(store_path) as store:
            assert len(store.query()) == 4

    def test_unjournaled_fabric_sweep_still_reaches_store(
        self, fleet, tmp_path
    ):
        """Without a journal the executor has nothing to ingest at
        commit; the direct post-run sink covers the store instead."""
        store_path = tmp_path / "results.sqlite"
        points, failed = sweep_benchmarks(
            ["vectoradd"], "l2", fabric=fleet, store=store_path,
            modes=[FaultMode.linear(2)], schemes=[SCHEMES["parity"]],
        )
        assert failed == {}
        with ResultStore(store_path) as store:
            rows = store.query()
            assert len(rows) == 1
            assert rows[0].source is None
