"""Tests for the configuration-sweep utility and Apu statistics."""

import pytest

from repro.core import AvfStudy, FaultMode, Interleaving, Parity, SecDed
from repro.core.sweep import sweep_cache_avf, sweep_vgpr_avf, tabulate
from repro.workloads import run


@pytest.fixture(scope="module")
def study():
    r = run("matmul", n_cus=1)
    return AvfStudy(r.apu, r.output_ranges)


class TestSweep:
    def test_cache_sweep_covers_grid(self, study):
        points = sweep_cache_avf(
            study, "l1",
            modes=[FaultMode.linear(1), FaultMode.linear(2)],
            schemes=[Parity(), SecDed()],
            layouts=[(Interleaving.NONE, 1), (Interleaving.LOGICAL, 2)],
        )
        assert len(points) == 2 * 2 * 2
        assert {p.mode for p in points} == {"1x1", "2x1"}
        assert {p.scheme for p in points} == {"parity", "secded"}
        assert all(0 <= p.due_avf <= 1 for p in points)

    def test_vgpr_sweep(self, study):
        points = sweep_vgpr_avf(
            study,
            modes=[FaultMode.linear(2)],
            schemes=[Parity()],
            layouts=[(Interleaving.INTER_THREAD, 2)],
        )
        assert len(points) == 1
        assert points[0].structure == "vgpr"
        assert points[0].style == "inter_thread"

    def test_due_splits_into_true_false(self, study):
        points = sweep_cache_avf(
            study, "l1", modes=[FaultMode.linear(1)], schemes=[Parity()],
        )
        p = points[0]
        assert p.due_avf == pytest.approx(p.true_due_avf + p.false_due_avf)

    def test_tabulate(self, study):
        points = sweep_cache_avf(
            study, "l1",
            modes=[FaultMode.linear(1), FaultMode.linear(2)],
            schemes=[Parity(), SecDed()],
        )
        rows, cols, cells = tabulate(points)
        assert rows == ["1x1", "2x1"]
        assert cols == ["parity", "secded"]
        assert len(cells) == 4
        assert cells[("1x1", "secded")] == 0.0  # SEC-DED corrects 1 bit

    def test_tabulate_warns_on_cell_collision(self, study):
        points = sweep_cache_avf(
            study, "l1", modes=[FaultMode.linear(1)], schemes=[Parity()],
            layouts=[(Interleaving.NONE, 1), (Interleaving.LOGICAL, 2)],
        )
        # Both layouts land in the same (mode, scheme) cell.
        with pytest.warns(UserWarning, match=r"\(1x1, parity\)"):
            tabulate(points)


class TestApuStats:
    def test_stats_fields(self, study):
        stats = study.apu.stats()
        assert stats["instructions"] > 0
        assert stats["cycles"] > 0
        assert 0 < stats["ipc"] <= len(study.apu.cus)
        assert stats["wavefronts"] == 16
        assert stats["launches"] == 1
        assert 0 <= stats["l1_hit_rate"] <= 1
        assert 0 <= stats["l2_hit_rate"] <= 1
        assert stats["l1_accesses"] > 0

    def test_fresh_device_stats(self):
        from repro.arch import Apu, GlobalMemory

        stats = Apu(memory=GlobalMemory()).stats()
        assert stats["instructions"] == 0
        assert stats["l1_hit_rate"] == 0.0
