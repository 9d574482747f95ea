"""Shared fixtures for the results-store suite.

Rows are constructed by hand (no simulation): the store's contract is
about keys, idempotence and durability, which tiny synthetic rows probe
exactly as well as engine output — and the CLI/zero-simulation tests
assert the *absence* of engine work anyway.
"""

from types import SimpleNamespace

import pytest

from repro.core.sweep import SweepPoint
from repro.runtime import Journal
from repro.store import ResultStore

#: the canonical-key columns of avf_results (mirrors the schema UNIQUE)
KEY_COLUMNS = (
    "workload", "structure", "scheme", "style", "factor", "mode",
    "ser_model", "seed", "engine_version",
)


def avf_row(**over):
    """One complete avf_results row dict; keyword overrides."""
    row = {
        "workload": "matmul",
        "structure": "l1",
        "scheme": "parity",
        "style": "none",
        "factor": 1,
        "mode": "2x1",
        "ser_model": "none",
        "seed": 0,
        "engine_version": "1.0.0",
        "due_avf": 0.25,
        "sdc_avf": 0.125,
        "true_due_avf": 0.2,
        "false_due_avf": 0.05,
        "total_avf": 0.375,
        "n_groups": 64,
        "window_cycles": 128,
        "source": None,
    }
    row.update(over)
    return row


def sweep_point(**over):
    """A real :class:`SweepPoint` with synthetic numbers."""
    data = {
        "structure": "vgpr",
        "mode": "2x1",
        "scheme": "parity",
        "style": "inter_thread",
        "factor": 2,
        "due_avf": 0.5,
        "sdc_avf": 0.1,
        "true_due_avf": 0.4,
        "false_due_avf": 0.1,
    }
    data.update(over)
    return SweepPoint(**data)


def fake_result(**over):
    """Duck-typed :class:`MbAvfResult` for ingest_results."""
    data = {
        "structure": "l2",
        "scheme": "sec-ded",
        "mode": SimpleNamespace(name="3x1"),
        "due_avf": 0.3,
        "sdc_avf": 0.05,
        "true_due_avf": 0.25,
        "false_due_avf": 0.05,
        "total_avf": 0.35,
        "n_groups": 32,
        "window_cycles": 256,
    }
    data.update(over)
    return SimpleNamespace(**data)


class FakeCampaign:
    """Duck-typed :class:`BenchmarkCampaign` summary."""

    def __init__(self, benchmark="vectoradd", **over):
        self.benchmark = benchmark
        self.n_single_injections = over.get("n_single_injections", 12)
        self.n_sdc_ace_bits = over.get("n_sdc_ace_bits", 3)
        self.model_sdc_avf = over.get("model_sdc_avf", 0.042)
        self.single_outcomes = over.get(
            "single_outcomes", {"masked": 9, "sdc": 3}
        )
        self.multibit = over.get("multibit", {"2x1": [1, 0, 1]})
        self.failures = over.get("failures", {})
        self._interference = over.get("interference", 2)

    def interference_total(self):
        return self._interference


def point_record(task, workload="matmul", point=None, **over):
    """A journal record holding one sweep/grid cell result."""
    if point is None:
        point = sweep_point()
    rec = {
        "task": task,
        "outcome": "ok",
        "value": {
            "structure": point.structure,
            "mode": point.mode,
            "scheme": point.scheme,
            "style": point.style,
            "factor": point.factor,
            "due_avf": point.due_avf,
            "sdc_avf": point.sdc_avf,
            "true_due_avf": point.true_due_avf,
            "false_due_avf": point.false_due_avf,
        },
        "error": None,
        "attempts": 1,
        "duration": 0.01,
        "meta": {"benchmark": workload},
    }
    rec.update(over)
    return rec


def injection_record(task, verdict="masked", **over):
    """A journal record holding one fault-injection outcome."""
    rec = {
        "task": task,
        "outcome": "ok",
        "value": verdict,
        "error": None,
        "attempts": 1,
        "duration": 0.02,
        "meta": {"wf": 1, "reg": 4, "lane": 7, "cycle": 90, "bits": [3]},
    }
    rec.update(over)
    return rec


def remove_store(path):
    """Delete a store file and its WAL/SHM sidecars."""
    for suffix in ("", "-wal", "-shm"):
        sidecar = path.with_name(path.name + suffix)
        if sidecar.exists():
            sidecar.unlink()


def write_journal(path, records):
    """Append ``records`` to a fresh journal at ``path``."""
    journal = Journal(path)
    for rec in records:
        journal.append(rec)
    journal.close()
    return path


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "results.sqlite"


@pytest.fixture
def store(store_path):
    with ResultStore(store_path) as s:
        yield s
