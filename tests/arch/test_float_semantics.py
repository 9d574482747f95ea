"""Focused tests for float32 instruction semantics and edge cases."""

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, fimm, imm, s, v


def _exec(body, inputs_f32):
    mem = GlobalMemory()
    inp = mem.alloc("in", 16 * 4)
    out = mem.alloc("out", 16 * 4)
    mem.view_f32("in")[: len(inputs_f32)] = np.asarray(inputs_f32, np.float32)
    p = ProgramBuilder()
    p.shl(v(9), v(0), imm(2))
    p.iadd(v(8), v(9), s(2))
    p.load(v(2), v(8))
    body(p)
    p.iadd(v(9), v(9), s(3))
    p.store(v(3), v(9))
    apu = Apu(memory=mem, n_cus=1)
    apu.run([Launch(p.build(), 16, [inp, out])])
    return mem.view_f32("out")


class TestFloatOps:
    def test_fadd_is_exact_float32(self):
        out = _exec(lambda p: p.fadd(v(3), v(2), fimm(0.1)), [0.2] * 16)
        assert out[0] == np.float32(0.2) + np.float32(0.1)

    def test_frcp(self):
        out = _exec(lambda p: p.frcp(v(3), v(2)), [4.0] * 16)
        assert (out == 0.25).all()

    def test_division_by_zero_flushes(self):
        # 1/0 = inf; nan_to_num keeps it representable (large finite).
        out = _exec(lambda p: p.frcp(v(3), v(2)), [0.0] * 16)
        assert np.isfinite(out).all()

    def test_sqrt_of_negative_flushes_nan_to_zero(self):
        out = _exec(lambda p: p.fsqrt(v(3), v(2)), [-1.0] * 16)
        assert (out == 0.0).all()

    def test_fexp_flog_roundtrip(self):
        def body(p):
            p.fexp(v(3), v(2))
            p.flog(v(3), v(3))

        out = _exec(body, [1.5] * 16)
        assert out[0] == pytest.approx(1.5, abs=1e-5)

    def test_fmin_fmax(self):
        out = _exec(lambda p: p.fmin(v(3), v(2), fimm(0.5)), [0.2, 0.9] * 8)
        assert out[0] == np.float32(0.2)
        assert out[1] == np.float32(0.5)

    def test_fabs(self):
        out = _exec(lambda p: p.fabs(v(3), v(2)), [-2.5] * 16)
        assert (out == 2.5).all()

    def test_fcmp_all_conditions(self):
        for cond, expect in (
            ("lt", [1, 0, 0]), ("le", [1, 1, 0]), ("eq", [0, 1, 0]),
            ("ne", [1, 0, 1]), ("gt", [0, 0, 1]), ("ge", [0, 1, 1]),
        ):
            def body(p, c=cond):
                p.fcmp(c, v(2), fimm(1.0))
                p.cndmask(v(3), fimm(1.0), fimm(0.0))

            out = _exec(body, [0.5, 1.0, 2.0] + [0.0] * 13)
            assert out[:3].tolist() == expect, cond

    def test_fmac_accumulates_in_order(self):
        def body(p):
            p.mov(v(3), fimm(0.0))
            for _ in range(3):
                p.fmac(v(3), v(2), fimm(1.0))

        out = _exec(body, [0.1] * 16)
        x = np.float32(0.1)
        acc = np.float32(0.0)
        for _ in range(3):
            acc = np.float32(acc + x * np.float32(1.0))
        assert out[0] == acc
