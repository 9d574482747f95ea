"""Tests for the fault-injection framework and ACE-interference campaign."""

import numpy as np
import pytest

from repro.arch import (
    Apu, GlobalMemory, Launch, ProgramBuilder, SimulationHang, imm, s, v,
)
from repro.faultinject import (
    BenchmarkCampaign,
    InjectionOutcome,
    InjectionSpec,
    MemorySpec,
    run_campaign,
)
from repro.faultinject.campaign import _Injector
from repro.runtime import Executor, Task, TaskOutcome
from repro.workloads import Workload
from repro.workloads.suite import REGISTRY


class TestInjectionHook:
    def _copy_program(self):
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(2))
        p.iadd(v(3), v(2), s(2))
        p.load(v(4), v(3))
        p.iadd(v(5), v(2), s(3))
        p.store(v(4), v(5))
        return p.build()

    def _run(self, inject=None):
        mem = GlobalMemory()
        a = mem.alloc("a", 64)
        b = mem.alloc("b", 64)
        mem.view_u32("a")[:] = np.arange(16, dtype=np.uint32)
        apu = Apu(memory=mem, n_cus=1)
        if inject:
            apu.inject_fault(*inject)
        apu.run([Launch(self._copy_program(), 16, [a, b])])
        return mem.view_u32("b").copy()

    def test_no_injection_is_clean(self):
        assert (self._run() == np.arange(16)).all()

    def test_flip_in_live_register_corrupts_output(self):
        # Flip bit 0 of v0 (the tid register) in lane 3 before execution:
        # lane 3's addresses change, corrupting the copy.
        out = self._run(inject=(0, 0, 3, 1, 0))
        assert not (out == np.arange(16)).all()

    def test_flip_in_unused_register_is_masked(self):
        out = self._run(inject=(0, 9, 3, 1, 0))
        assert (out == np.arange(16)).all()

    def test_flip_after_completion_is_masked(self):
        out = self._run(inject=(0, 0, 3, 1, 10**6))
        assert (out == np.arange(16)).all()

    def test_flip_out_of_range_register_ignored(self):
        out = self._run(inject=(0, 500, 3, 1, 0))
        assert (out == np.arange(16)).all()

    @pytest.mark.parametrize("lane", [16, -1])
    def test_lane_outside_wavefront_rejected(self, lane):
        """Lane 16 used to crash inside the run and lane -1 to flip lane
        15; both are refused when the flip is scheduled."""
        with pytest.raises(ValueError, match="lane"):
            self._run(inject=(0, 2, lane, 1, 0))

    def test_negative_register_rejected(self):
        """Register -1 used to flip the wavefront's last register."""
        with pytest.raises(ValueError, match="negative"):
            self._run(inject=(0, -1, 3, 1, 0))

    @pytest.mark.parametrize("bitmask", [0, 1 << 32])
    def test_mask_outside_one_word_rejected(self, bitmask):
        with pytest.raises(ValueError, match="register bitmask"):
            self._run(inject=(0, 2, 3, bitmask, 0))


class TestInjectionSpec:
    def test_bitmask(self):
        spec = InjectionSpec(0, 1, 2, (0, 3), 5)
        assert spec.bitmask == 0b1001

    def test_bitmask_wraps_at_32(self):
        spec = InjectionSpec(0, 1, 2, (31,), 5)
        assert spec.bitmask == 1 << 31

    def test_bit_past_the_word_is_not_folded(self):
        """Bit 33 used to wrap to bit 1; now it is refused on schedule."""
        spec = InjectionSpec(0, 1, 2, (33,), 5)
        assert spec.bitmask == 1 << 33
        with pytest.raises(ValueError, match="register bitmask"):
            spec.schedule(Apu(memory=GlobalMemory(), n_cus=1))


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return _Injector("transpose", seed=0, n_cus=1)

    def test_golden_snapshot_nonempty(self, runner):
        assert len(runner.golden) == 32 * 32 * 4

    def test_masked_for_noop_injection(self, runner):
        # Register far beyond anything the kernel uses.
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        assert runner.inject(spec) == InjectionOutcome.MASKED

    def test_deterministic_verdicts(self, runner):
        rng = np.random.default_rng(7)
        spec = runner.random_spec(rng)
        assert runner.inject(spec) == runner.inject(spec)

    def test_random_spec_in_bounds(self, runner):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = runner.random_spec(rng, n_bits=3)
            assert 0 <= spec.lane < 16
            assert all(0 <= b < 32 for b in spec.bits)
            assert spec.wf in runner.windows

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4, 8])
    def test_random_spec_never_collapses_bits(self, runner, n_bits):
        """Regression: near bit 31 the old clamping folded group members
        into duplicates, silently flipping fewer bits than requested."""
        rng = np.random.default_rng(2)
        for _ in range(200):
            spec = runner.random_spec(rng, n_bits=n_bits)
            assert len(spec.bits) == n_bits
            assert len(set(spec.bits)) == n_bits
            assert spec.bits[-1] <= 31
            assert spec.bits == tuple(
                range(spec.bits[0], spec.bits[0] + n_bits)
            )

    def test_cycle_budget_overrun_classified_as_hang(self):
        """An injection that would exceed max_cycles is a HANG, not CRASH."""
        r = _Injector("transpose", seed=0, n_cus=1, max_cycles=5)
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        assert r.inject(spec) == InjectionOutcome.HANG

    def test_hang_is_the_type_not_the_message(self, runner, monkeypatch):
        def reworded(self):
            raise SimulationHang("cycle budget spent")

        monkeypatch.setattr(Apu, "_run", reworded)
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        assert runner.inject(spec) == InjectionOutcome.HANG

    @pytest.mark.parametrize("exc", [IndexError, MemoryError, RuntimeError])
    def test_other_exception_in_run_is_crash(self, runner, monkeypatch, exc):
        def trap(self):
            raise exc("simulated trap")

        monkeypatch.setattr(Apu, "_run", trap)
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        assert runner.inject(spec) == InjectionOutcome.CRASH

    @pytest.mark.parametrize("spec", [
        InjectionSpec(0, 2, 16, (0,), 0),
        InjectionSpec(0, 2, -1, (0,), 0),
        InjectionSpec(0, -1, 0, (0,), 0),
        InjectionSpec(0, 2, 0, (33,), 0),
        MemorySpec(10**9, 0, 0),
        MemorySpec(0, 8, 0),
    ])
    def test_out_of_range_spec_is_infra_error(self, runner, spec):
        """A spec the device refuses never runs: no verdict, a harness
        failure."""
        with pytest.raises(ValueError):
            runner.inject(spec)
        results = Executor(runner.inject, jobs=0).run([Task("t", spec)])
        assert results["t"].outcome == TaskOutcome.INFRA_ERROR
        assert results["t"].value is None

    def test_setup_failure_propagates(self, monkeypatch):
        r = _Injector("vectoradd", seed=0, n_cus=1)

        def broken(self, mem):
            raise OSError("input file unreadable")

        monkeypatch.setattr(r.workload_cls, "setup", broken)
        with pytest.raises(OSError, match="unreadable"):
            r.inject(InjectionSpec(0, 200, 0, (0,), 0))

    def test_setup_failure_is_counted_not_judged(self, monkeypatch):
        """The golden run sets up once; every injected run's setup fails,
        and the campaign files each under infra_error, not a verdict."""
        cls = REGISTRY["vectoradd"]
        setup = cls.setup
        calls = []

        def golden_only(self, mem):
            calls.append(1)
            if len(calls) > 1:
                raise OSError("input file unreadable")
            setup(self, mem)

        monkeypatch.setattr(cls, "setup", golden_only)
        out = run_campaign(
            "vectoradd", n_single=3, max_groups_per_mode=0, seed=0, n_cus=1
        )
        assert out.failures == {TaskOutcome.INFRA_ERROR: 3}
        assert out.single_outcomes == {}
        assert len(calls) == 4


    def test_failing_schedule_is_infra_error(self, monkeypatch):
        """A schedule that raises before any fault lands is a harness
        error, not a crash verdict, even when it raises in workload code."""
        r = _Injector("vectoradd", seed=0, n_cus=1)
        monkeypatch.setattr(r.workload_cls, "kernels", Workload.kernels)
        spec = InjectionSpec(0, 200, 0, (0,), 0)
        results = Executor(r.inject, jobs=0).run([Task("t", spec)])
        assert results["t"].outcome == TaskOutcome.INFRA_ERROR


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(
            "transpose", n_single=24, max_groups_per_mode=6, seed=0, n_cus=1
        )

    def test_outcome_counts_sum(self, campaign):
        assert sum(campaign.single_outcomes.values()) == 24

    def test_finds_some_sdc_bits(self, campaign):
        assert campaign.n_sdc_ace_bits >= 1
        assert campaign.single_outcomes.get(InjectionOutcome.SDC, 0) == (
            campaign.n_sdc_ace_bits
        )

    def test_multibit_modes_run(self, campaign):
        assert set(campaign.multibit) == {2, 3, 4}
        for injected, interfering in campaign.multibit.values():
            assert 0 <= interfering <= injected

    def test_interference_is_rare(self, campaign):
        """The paper's Table II conclusion: ACE interference ~0.1%."""
        injected = sum(n for n, _ in campaign.multibit.values())
        interfering = campaign.interference_total()
        assert injected > 0
        assert interfering <= max(1, injected // 10)

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            run_campaign("nope")

    @pytest.mark.parametrize("kwargs", [
        {"n_single": -3}, {"max_groups_per_mode": -1},
    ])
    def test_negative_sizes_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_campaign("vectoradd", **kwargs)

    def test_no_failures_in_clean_run(self, campaign):
        assert campaign.n_failed == 0
        assert campaign.failures == {}

    def test_dict_round_trip(self, campaign):
        assert BenchmarkCampaign.from_dict(campaign.to_dict()) == campaign


class TestCampaignRuntime:
    """The campaign driven through the fault-tolerant runtime."""

    ARGS = dict(n_single=10, max_groups_per_mode=3, seed=0, n_cus=1)

    @pytest.fixture(scope="class")
    def reference(self):
        return run_campaign("transpose", **self.ARGS)

    def test_journaled_run_matches_plain_run(self, reference, tmp_path):
        journaled = run_campaign(
            "transpose", journal=tmp_path / "j.jsonl", **self.ARGS
        )
        assert journaled == reference

    def test_killed_campaign_resumes_identically(self, reference, tmp_path):
        """Truncate the journal mid-record (the SIGKILL signature) and
        re-run: the result must equal the uninterrupted campaign's."""
        journal = tmp_path / "j.jsonl"
        run_campaign("transpose", journal=journal, **self.ARGS)
        lines = journal.read_text().splitlines()
        journal.write_text(
            "\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2]
        )
        resumed = run_campaign("transpose", journal=journal, **self.ARGS)
        assert resumed == reference

    def test_process_isolation_matches_inline(self, reference):
        isolated = run_campaign(
            "transpose", jobs=2, timeout=120, **self.ARGS
        )
        assert isolated == reference

    def test_timeout_surfaces_in_failure_breakdown(self):
        """A simulation killed at its wall-clock budget becomes a TIMEOUT
        failure with provenance — the campaign completes regardless."""
        c = run_campaign(
            "transpose", n_single=3, max_groups_per_mode=1, seed=0,
            n_cus=1, jobs=1, timeout=0.01,
        )
        assert c.failures.get(TaskOutcome.TIMEOUT) == 3
        assert c.n_failed == 3
        assert c.single_outcomes == {}
        assert c.multibit == {2: (0, 0), 3: (0, 0), 4: (0, 0)}
