"""Correctness and determinism tests for every workload kernel."""

import pytest

from repro.arch import GlobalMemory, Launch
from repro.workloads import REGISTRY, names, run
from repro.workloads.suite import EVALUATION_SET, OPENCL_SAMPLES

ALL = names()


class TestRegistry:
    def test_workload_count(self):
        assert len(ALL) == 19

    def test_subsets_are_registered(self):
        assert set(OPENCL_SAMPLES) <= set(ALL)
        assert set(EVALUATION_SET) <= set(ALL)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run("nope")

    def test_names_match_classes(self):
        for name, cls in REGISTRY.items():
            assert cls.name == name


@pytest.mark.parametrize("name", ALL)
class TestEveryWorkload:
    def test_verifies_against_reference(self, name):
        # run_workload raises if the device output mismatches the numpy
        # reference, so completing is the assertion.
        result = run(name)
        assert result.total_instructions > 0
        assert result.end_cycle > 0
        assert result.output_ranges

    def test_deterministic(self, name):
        a = run(name, seed=3)
        b = run(name, seed=3)
        assert a.end_cycle == b.end_cycle
        assert a.total_instructions == b.total_instructions
        for (base, size), (base2, size2) in zip(a.output_ranges, b.output_ranges):
            assert (base, size) == (base2, size2)
            assert (
                a.memory.data[base : base + size]
                == b.memory.data[base : base + size]
            ).all()

    def test_schedule_is_static(self, name):
        """The launch schedule is data: two calls yield equal records."""
        wl = REGISTRY[name](seed=0)
        wl.setup(GlobalMemory())
        first, second = list(wl.kernels()), list(wl.kernels())
        assert first and all(isinstance(k, Launch) for k in first)
        assert [
            (a.program.instrs, a.n_threads, list(a.args), a.name)
            for a in first
        ] == [
            (b.program.instrs, b.n_threads, list(b.args), b.name)
            for b in second
        ]

    def test_seed_changes_data(self, name):
        wl_a = REGISTRY[name](seed=0)
        wl_b = REGISTRY[name](seed=1)
        ma, mb = GlobalMemory(), GlobalMemory()
        wl_a.setup(ma)
        wl_b.setup(mb)
        assert not (ma.data == mb.data).all()


class TestWorkloadShape:
    def test_multi_pass_workloads_have_multiple_launches(self):
        for name in ("minife", "fastwalsh", "prefixsum", "comd"):
            result = run(name)
            assert len(result.stats) > 1, name

    def test_minife_has_phases(self):
        result = run("minife")
        kinds = {s.name.split(".")[1].rstrip("0123456789") for s in result.stats}
        assert {"init", "spmv", "dotp", "alpha", "xupd"} <= kinds

    def test_caches_exercised(self):
        result = run("matmul")
        l1 = result.apu.memsys.l1s[0]
        assert l1.hits > 0 and l1.misses > 0
