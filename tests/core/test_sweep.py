"""Tests for the configuration-sweep utility and Apu statistics."""

import pytest

from repro.core import AvfStudy, FaultMode, Interleaving, Parity, SecDed
from repro.core.sweep import (
    sweep_avf,
    sweep_cache_avf,
    sweep_vgpr_avf,
    tabulate,
)
from repro.workloads import run


@pytest.fixture(scope="module")
def study():
    r = run("matmul", n_cus=1)
    return AvfStudy(r.apu, r.output_ranges)


class TestSweep:
    def test_cache_sweep_covers_grid(self, study):
        points = sweep_avf(
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
        points = sweep_avf(
            study, "vgpr", modes=[FaultMode.linear(2)],
            schemes=[Parity()],
            layouts=[(Interleaving.INTER_THREAD, 2)],
        )
        assert len(points) == 1
        assert points[0].structure == "vgpr"
        assert points[0].style == "inter_thread"

    @pytest.mark.parametrize("structure,style", [
        ("l1", "none"), ("l2", "none"), ("vgpr", "intra_thread"),
        ("l1.tags", "none"), ("l2.tags", "none"),
    ])
    def test_default_layout_per_structure(self, study, structure, style):
        """Every structure sweeps under its own default layout, and its
        points carry the name that was asked for."""
        points = sweep_avf(
            study, structure, modes=[FaultMode.linear(2)], schemes=[Parity()],
        )
        assert [(p.structure, p.style, p.factor) for p in points] == [
            (structure, style, 1)
        ]

    def test_tag_sweep_labels_the_factors_style(self, study):
        points = sweep_avf(
            study, "l1.tags", modes=[FaultMode.linear(2)], schemes=[Parity()],
            layouts=[(None, 1), (None, 2)],
        )
        assert [p.style for p in points] == ["none", "way"]
        assert points[1].sdc_avf == 0.0  # x2 splits a 2x1 across two tags

    def test_aliases_sweep_their_structure(self, study):
        kw = dict(modes=[FaultMode.linear(2)], schemes=[Parity()])
        assert sweep_cache_avf(study, "l2", **kw) == sweep_avf(
            study, "l2", **kw
        )
        assert sweep_vgpr_avf(study, **kw) == sweep_avf(study, "vgpr", **kw)
        with pytest.raises(ValueError, match="level"):
            sweep_cache_avf(study, "l1.tags", **kw)

    def test_due_splits_into_true_false(self, study):
        points = sweep_avf(
            study, "l1", modes=[FaultMode.linear(1)], schemes=[Parity()],
        )
        p = points[0]
        assert p.due_avf == pytest.approx(p.true_due_avf + p.false_due_avf)

    def test_tabulate(self, study):
        points = sweep_avf(
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
        points = sweep_avf(
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
