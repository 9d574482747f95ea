"""Tests for the shared experiment configuration and study cache."""


from repro.core import AvfStudy, FaultMode, Parity, SecDed
from repro.experiments import (
    SCALED_L1,
    SCALED_L2,
    StudyCache,
    build_study,
    scaled_apu_kwargs,
    sweep_benchmarks,
)


class TestScaledConfig:
    def test_capacities(self):
        assert SCALED_L1.capacity == 4 * 1024
        assert SCALED_L2.capacity == 32 * 1024

    def test_preserves_paper_ratio(self):
        # paper: 16KB L1 / 256KB L2 -> the scaled pair keeps L2 = 8x L1.
        assert SCALED_L2.capacity // SCALED_L1.capacity == 8

    def test_kwargs_plumb_through(self):
        study = build_study("vectoradd", n_cus=1)
        assert study.apu.memsys.l1s[0].config == SCALED_L1
        assert study.apu.memsys.l2.config == SCALED_L2

    def test_kwargs_are_fresh_dicts(self):
        a = scaled_apu_kwargs()
        a["l1_config"] = None
        assert scaled_apu_kwargs()["l1_config"] == SCALED_L1


class TestStudyCache:
    def test_returns_study(self):
        cache = StudyCache()
        study = cache("vectoradd")
        assert isinstance(study, AvfStudy)

    def test_memoises(self):
        cache = StudyCache()
        assert cache("vectoradd") is cache("vectoradd")

    def test_distinct_workloads_distinct_studies(self):
        cache = StudyCache()
        assert cache("vectoradd") is not cache("transpose")

    def test_cached_study_is_usable(self):
        cache = StudyCache()
        res = cache("vectoradd").avf("l2", FaultMode.linear(1), Parity())
        assert 0 <= res.total_avf <= 1


class TestSweepBenchmarks:
    KWARGS = dict(
        modes=[FaultMode.linear(1), FaultMode.linear(2)],
        schemes=[Parity(), SecDed()],
    )

    def test_grid_covers_benchmarks(self):
        points, failed = sweep_benchmarks(["vectoradd"], "l2", **self.KWARGS)
        assert failed == {}
        assert len(points["vectoradd"]) == 4
        assert {p.structure for p in points["vectoradd"]} == {"l2"}

    def test_journaled_grid_resumes(self, tmp_path):
        journal = tmp_path / "grid.jsonl"
        first, _ = sweep_benchmarks(
            ["vectoradd"], "l2", journal=journal, **self.KWARGS
        )
        resumed, failed = sweep_benchmarks(
            ["vectoradd"], "l2", journal=journal, **self.KWARGS
        )
        assert failed == {}
        assert resumed == first
