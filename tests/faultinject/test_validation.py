"""Tests for the memory-injection validation machinery."""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, imm, s, v
from repro.core import AvfStudy
from repro.core.intervals import AceClass
from repro.faultinject.validation import ValidationResult, validate_memory_avf

ACE = int(AceClass.ACE)


class TestMemoryInjectionHook:
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
            apu.inject_memory_fault(*inject)
        apu.run([Launch(self._copy_program(), 16, [a, b])])
        return mem.view_u32("b").copy(), a, b

    def test_flip_input_before_read_corrupts(self):
        # Establish the input address from a clean run first.
        out, a, b = self._run()
        corrupted, _, _ = self._run(inject=(a, 1, 0))
        assert corrupted[0] == (np.arange(16)[0] ^ 1)

    def test_flip_output_after_store_corrupts_readback(self):
        # The copy kernel stores early; a flip later in the run corrupts
        # the value the host reads back.
        out, a, b = self._run()
        corrupted, _, _ = self._run(inject=(b, 0x80, 155))
        assert corrupted[0] != out[0]

    def test_flip_scheduled_after_simulation_never_lands(self):
        out, a, b = self._run()
        clean, _, _ = self._run(inject=(b, 0x80, 10**6))
        assert (clean == out).all()

    def test_flip_outside_buffers_is_masked(self):
        out, a, b = self._run()
        clean, _, _ = self._run(inject=(8, 1, 0))  # below first allocation
        assert (clean == out).all()

    @pytest.mark.parametrize("addr", [10**9, GlobalMemory().size, -1])
    def test_out_of_range_address_rejected(self, addr):
        """An address outside memory is refused when the flip is
        scheduled, not silently dropped (which filed it as masked)."""
        with pytest.raises(ValueError, match="outside memory"):
            self._run(inject=(addr, 1, 0))

    @pytest.mark.parametrize("bitmask", [0, 1 << 8, 0x1FF])
    def test_mask_outside_one_byte_rejected(self, bitmask):
        """A memory bit of 8 or more no longer masks to zero."""
        with pytest.raises(ValueError, match="byte bitmask"):
            self._run(inject=(8, bitmask, 0))


class TestMemoryLifetimes:
    def test_input_ace_until_last_live_read(self):
        mem = GlobalMemory()
        a = mem.alloc("a", 64)
        b = mem.alloc("b", 64)
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(2))
        p.iadd(v(3), v(2), s(2))
        p.load(v(4), v(3))
        p.iadd(v(5), v(2), s(3))
        p.store(v(4), v(5))
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [a, b])])
        study = AvfStudy(apu, [mem.buffer("b")])
        lt = study.memory_lifetimes((a, 64))
        # Every input byte was consumed live exactly once: ACE from cycle 0
        # to the load.
        assert all(iset.total(ACE) > 0 for iset in lt.byte_isets)

    def test_output_ace_until_end(self):
        mem = GlobalMemory()
        b = mem.alloc("b", 64)
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(2))
        p.iadd(v(5), v(2), s(2))
        p.store(v(0), v(5))
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [b])])
        study = AvfStudy(apu, [mem.buffer("b")])
        lt = study.memory_lifetimes((b, 64))
        end = study.end_cycle
        for iset in lt.byte_isets:
            ivals = iset.intervals()
            assert ivals
            assert ivals[-1][1] == end  # ACE through the host readback

    def test_scratch_not_ace(self):
        mem = GlobalMemory()
        scratch = mem.alloc("scratch", 64)
        out = mem.alloc("out", 64)
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(2))
        p.iadd(v(5), v(2), s(2))
        p.store(v(0), v(5))            # scratch: never read
        p.iadd(v(6), v(2), s(3))
        p.store(v(0), v(6))
        apu = Apu(memory=mem, n_cus=1)
        apu.run([Launch(p.build(), 16, [scratch, out])])
        study = AvfStudy(apu, [mem.buffer("out")])
        lt = study.memory_lifetimes((scratch, 64))
        assert all(iset.total_at_least(1) == 0 for iset in lt.byte_isets)


class TestValidationCampaign:
    def test_small_campaign(self):
        r = validate_memory_avf("vectoradd", n_injections=30, n_cus=1)
        assert r.n_injections == 30
        assert r.sdc + r.masked + r.crash == 30
        assert 0 <= r.model_avf <= 1
        assert r.observed_rate <= r.model_avf + 3 * r.stderr + 0.05

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            validate_memory_avf("nope")

    def test_journaled_run_matches_and_resumes(self, tmp_path):
        plain = validate_memory_avf("vectoradd", n_injections=12, n_cus=1)
        journal = tmp_path / "val.jsonl"
        journaled = validate_memory_avf(
            "vectoradd", n_injections=12, n_cus=1, journal=journal
        )
        assert journaled == plain
        assert journal.read_text().count("\n") == 12
        # A resumed run replays the journal instead of re-injecting.
        resumed = validate_memory_avf(
            "vectoradd", n_injections=12, n_cus=1, journal=journal
        )
        assert resumed == plain

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            validate_memory_avf("vectoradd", n_injections=2, n_cus=1, jobs=-1)

    def test_negative_injection_count_rejected(self):
        with pytest.raises(ValueError, match="n_injections"):
            validate_memory_avf("vectoradd", n_injections=-5)

    def test_worker_pool_matches_inline(self):
        inline = validate_memory_avf("vectoradd", n_injections=12, n_cus=1)
        pooled = validate_memory_avf(
            "vectoradd", n_injections=12, n_cus=1, jobs=2
        )
        assert pooled == inline

    def test_clean_run_has_no_failures(self):
        r = validate_memory_avf("vectoradd", n_injections=5, n_cus=1)
        assert r.n_failed == 0 and r.failures == {} and r.hang == 0

    def test_result_statistics(self):
        r = ValidationResult("x", (0, 10), 0.5, 100, sdc=25, masked=75)
        assert r.observed_rate == 0.25
        assert r.stderr == pytest.approx(np.sqrt(0.25 * 0.75 / 100))
