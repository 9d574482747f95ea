"""Unit tests for the ISA definitions and the program builder."""

import struct

import numpy as np
import pytest

from repro.arch.isa import (
    BRANCH,
    CMP_CONDS,
    END,
    MEM,
    OPS,
    READLANE,
    SALU,
    SCMP,
    VALU,
    VCMP,
    Instr,
    ProgramBuilder,
    fimm,
    imm,
    s,
    v,
)


class TestOperands:
    def test_constructors(self):
        assert v(3) == ("v", 3)
        assert s(2) == ("s", 2)
        assert imm(7) == ("imm", 7)

    def test_negative_register_rejected(self):
        with pytest.raises(ValueError):
            v(-1)
        with pytest.raises(ValueError):
            s(-2)

    def test_fimm_is_float32_bits(self):
        bits = fimm(1.5)[1]
        assert struct.unpack("<f", struct.pack("<I", bits))[0] == 1.5

    def test_imm_truncates_to_int(self):
        assert imm(3.9) == ("imm", 3)


class TestInstr:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Instr("v_frobnicate")

    def test_unknown_condition_rejected(self):
        with pytest.raises(ValueError):
            Instr("v_cmp", srcs=(v(0), v(1)), cond="spaceship")

    def test_conditions(self):
        assert set(CMP_CONDS) == {"lt", "le", "eq", "ne", "gt", "ge"}

    def test_op_rows_are_consistent(self):
        kinds = {VALU, VCMP, READLANE, SALU, SCMP, MEM, BRANCH, END}
        for op, row in OPS.items():
            assert row.kind in kinds, op
            is_mem = row.kind == MEM
            assert (row.space is not None) == is_mem, op
            assert is_mem or (not row.store and row.nbytes == 4), op

    @pytest.mark.parametrize("op", ["v_cmp", "v_fcmp", "s_cmp"])
    def test_compare_needs_a_condition(self, op):
        with pytest.raises(ValueError):
            Instr(op, srcs=(v(0), v(1)))

    def test_nbytes_reads_the_row(self):
        assert Instr("v_load_u8", v(2), (v(0),)).nbytes == 1
        assert Instr("lds_store", None, (v(2), v(0))).nbytes == 4


class TestProgramBuilder:
    def test_implicit_endpgm(self):
        p = ProgramBuilder()
        p.mov(v(2), imm(1))
        prog = p.build()
        assert prog.instrs[-1].op == "s_endpgm"
        assert len(prog) == 2

    def test_explicit_endpgm_not_duplicated(self):
        p = ProgramBuilder()
        p.endpgm()
        assert len(p.build()) == 1

    def test_register_counts_track_usage(self):
        p = ProgramBuilder()
        p.mov(v(9), imm(1))
        p.s_mov(s(5), imm(2))
        prog = p.build()
        assert prog.n_vregs == 10
        assert prog.n_sregs == 6

    def test_minimum_registers_for_presets(self):
        prog = ProgramBuilder().build()
        assert prog.n_vregs >= 2  # v0 (tid) and v1 (lane) are preset
        assert prog.n_sregs >= 2  # s0 (group) and s1 (wavefront)

    def test_labels_resolve(self):
        p = ProgramBuilder()
        p.label("top")
        p.mov(v(2), imm(0))
        p.branch("top")
        prog = p.build()
        assert prog.target_pc("top") == 0

    def test_undefined_label_rejected(self):
        p = ProgramBuilder()
        p.branch("nowhere")
        with pytest.raises(ValueError):
            p.build()

    def test_duplicate_label_rejected(self):
        p = ProgramBuilder()
        p.label("x")
        with pytest.raises(ValueError):
            p.label("x")

    def test_fmac_reads_destination(self):
        p = ProgramBuilder()
        p.fmac(v(5), v(2), v(3))
        ins = p.build().instrs[0]
        assert ins.srcs == (v(2), v(3), v(5))

    def test_store_sources(self):
        p = ProgramBuilder()
        p.store(v(7), v(8), offset=12, pred=True)
        ins = p.build().instrs[0]
        assert ins.srcs == (v(7), v(8))
        assert ins.offset == 12
        assert ins.predicated
        assert ins.dst is None

    @pytest.mark.parametrize("lane", [-1, 16])
    def test_readlane_lane_outside_the_wavefront_rejected(self, lane):
        with pytest.raises(ValueError):
            ProgramBuilder().readlane(s(2), v(0), lane)

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_shuffle_xor_mask_outside_the_wavefront_rejected(self, mask):
        with pytest.raises(ValueError):
            ProgramBuilder().shuffle_xor(v(2), v(0), mask)

    def test_negative_shuffle_up_delta_rejected(self):
        with pytest.raises(ValueError):
            ProgramBuilder().shuffle_up(v(2), v(0), -1)

    def test_lane_operands_in_range_accepted(self):
        p = ProgramBuilder()
        p.readlane(s(2), v(0), 0).readlane(s(2), v(0), 15)
        p.shuffle_xor(v(2), v(0), 0).shuffle_xor(v(2), v(0), 15)
        p.shuffle_up(v(2), v(0), 0).shuffle_up(v(2), v(0), 16)
        assert len(p.build()) == 7

    def test_chaining(self):
        p = ProgramBuilder()
        assert p.mov(v(2), imm(0)).iadd(v(2), v(2), imm(1)) is p


# -- the logic-masking rules agree with the semantics ------------------------

UNARY = {
    "v_mov", "v_not", "v_abs", "v_frcp", "v_fsqrt", "v_fexp", "v_flog",
    "v_fabs", "v_cvt_i2f", "v_cvt_f2i",
}
LANE_PARAM = {"v_shuffle_up": 20, "v_shuffle_xor": 16, "v_readlane": 16}
EDGES = np.array(
    [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 31, 32, 33,
     0x7F800000, 0xFF800000, 0x7FC00000, 0x00000001, 0x3F800000],
    dtype=np.uint32,
)


def _words(rng, n=16):
    """Random lanes: raw bits, small ints, float-like patterns and edges."""
    pick = rng.integers(0, 4, size=n)
    raw = rng.integers(0, 1 << 32, size=n, dtype=np.uint64).astype(np.uint32)
    small = rng.integers(0, 40, size=n).astype(np.uint32)
    floats = rng.normal(0, 100, size=n).astype(np.float32).view(np.uint32)
    edges = rng.choice(EDGES, size=n)
    return np.choose(pick, [raw, small, floats, edges]).astype(np.uint32)


def _needed(rng):
    """Random needed-result masks: random bits, single bits, none, all."""
    pick = rng.integers(0, 4, size=16)
    raw = rng.integers(0, 1 << 32, size=16, dtype=np.uint64).astype(np.uint32)
    bit = np.left_shift(np.uint32(1), rng.integers(0, 32, size=16).astype(np.uint32))
    full = np.full(16, 0xFFFFFFFF, dtype=np.uint32)
    return np.choose(pick, [raw, bit, np.zeros(16, np.uint32), full]).astype(np.uint32)


def _random_instr(op, rng):
    """``op`` with vector sources, or sometimes an immediate one."""
    if op in LANE_PARAM:
        dst = s(2) if OPS[op].kind == READLANE else v(2)
        return Instr(op, dst, (v(0), imm(int(rng.integers(LANE_PARAM[op])))))
    n = 1 if op in UNARY else 3 if op == "v_fmac" else 2
    srcs = [v(j) for j in range(n)]
    if n == 2 and rng.random() < 0.5:
        j = int(rng.integers(2))
        srcs[j] = imm(int(rng.choice(EDGES)) if rng.random() < 0.5
                      else int(rng.integers(0, 1 << 32)))
    cond = "lt" if OPS[op].kind == VCMP else None
    return Instr(op, v(5), tuple(srcs), cond=cond)


def _operands(ins, rng):
    return [
        _words(rng) if kind == "v" else np.full(16, x, dtype=np.uint32)
        for kind, x in ins.srcs
    ]


@pytest.mark.parametrize(
    "op", sorted(op for op, row in OPS.items() if row.kind in (VALU, READLANE))
)
def test_flipping_unneeded_source_bits_keeps_needed_result_bits(op):
    """Every vector row's rule is sound for its semantics: flipping any
    source bits outside the needed masks leaves ``result & needed`` as it
    was, on every lane (the shuffles' and readlane's included)."""
    rng = np.random.default_rng(sum(map(ord, op)))
    row = OPS[op]
    for _ in range(300):
        ins = _random_instr(op, rng)
        vcc = rng.random(16) < 0.5
        out = _needed(rng)
        if row.kind == READLANE:  # one scalar result: the same on each lane
            out = np.full(16, out[0], dtype=np.uint32)
        srcs = _operands(ins, rng)
        masks = row.needed(out, ins, vcc)
        assert len(masks) == len(ins.srcs)
        flipped = list(srcs)
        for j, (src, mask) in enumerate(zip(ins.srcs, masks)):
            if src[0] == "v" and rng.random() < 0.7:
                free = ~(np.uint32(0) if mask is None else mask)
                flipped[j] = srcs[j] ^ (_words(rng) & free)
        before = np.uint32(row.fn(srcs, ins, vcc))
        after = np.uint32(row.fn(flipped, ins, vcc))
        assert not ((before ^ after) & out).any(), (ins, srcs, flipped, out)


@pytest.mark.parametrize("cond", CMP_CONDS)
@pytest.mark.parametrize("op", ["v_cmp", "v_fcmp"])
def test_a_needed_vcc_lane_needs_every_source_bit(op, cond):
    rng = np.random.default_rng(3)
    ins = Instr(op, None, (v(0), v(1)), cond=cond)
    for _ in range(50):
        out = np.where(rng.random(16) < 0.5, np.uint32(0xFFFFFFFF), np.uint32(0))
        for mask in OPS[op].needed(out, ins, rng.random(16) < 0.5):
            assert (mask == out).all()
