"""Pinned per-opcode digests: every instruction through a one-wavefront kernel.

The workload digests (``sim_digests.json``, ``liveness_digests.json``) see
only the opcodes some workload runs.  Here every opcode is driven through
small kernels of its own, so a change to any one op's semantics or
logic-masking rule shows up under that op's name.

Each case is one kernel launched twice, as one full wavefront and as a
partial one (11 active lanes), over seeded inputs plus edge values:
0, 1, ``0x7FFFFFFF``, ``0x80000000``, ``0xFFFFFFFF``, shift amounts
0/31/32/33, and, for the float ops, +-0, +-inf, NaN and denormals.  Every
result is ANDed with an immediate needed-result mask before it is stored,
so the liveness pass sees the op row under each mask in turn.

The committed ``op_digests.json`` records, per case, a sha256 of the
final memory image, the end cycle and the trace rows' issue cycles
(``results``), and a sha256 of every trace row's
:class:`~repro.arch.liveness.Liveness` entry: ``live``, ``src_needed``
and ``mem_needed``, plus the needed-memory map (``liveness``).

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/arch/test_op_digests.py
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.arch import Apu, GlobalMemory, Launch, ProgramBuilder, fimm, imm, s, v
from repro.arch.liveness import analyze_liveness

DIGESTS = Path(__file__).with_name("op_digests.json")
LANES = 16
#: Needed-result masks each op row is observed under.
MASKS = (0xFFFFFFFF, 0x000000FF, 0xFFFF0000, 0x80000000, 0x00010001, 0)
#: Active lanes of the two launches of every case.
THREADS = (16, 11)
#: 64-byte output slots each launch may fill.
SLOTS = 256


def _f32(x):
    return struct.unpack("<I", struct.pack("<f", x))[0]


INT_EDGES = [
    0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 31, 32, 33,
    2, 0x80000001, 0xFFFFFFFE, 0x7FFFFFFE, 0x0000FFFF, 0xFFFF0000,
    0x12345678, 0xDEADBEEF,
]
SHIFT_EDGES = [
    0, 31, 32, 33, 1, 0xFFFFFFFF, 0x80000000, 0x7FFFFFFF,
    0, 1, 31, 32, 33, 16, 8, 0xFFFFFFE0,
]
FLOAT_EDGES = [
    _f32(0.0), 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000,
    0x00000001, 0x807FFFFF, 0x00800000, _f32(1.0), _f32(-1.0),
    _f32(0.5), _f32(2.5), _f32(-3.75), 0x7F7FFFFF, _f32(100.0),
    0xFFC00000,
]


def _random_words(rng):
    return rng.integers(0, 1 << 32, size=LANES, dtype=np.uint64)


def _random_floats(rng):
    """Finite float32 bit patterns with exponents around 2**0."""
    sign = rng.integers(0, 2, size=LANES, dtype=np.uint64) << 31
    exp = rng.integers(100, 155, size=LANES, dtype=np.uint64) << 23
    frac = rng.integers(0, 1 << 23, size=LANES, dtype=np.uint64)
    return sign | exp | frac


def _inputs(kind):
    """Three ``(batches, 16)`` uint32 operand tables: edge rows first, then
    seeded random rows, then raw random bit patterns."""
    rng = np.random.default_rng(20140813)
    edges = FLOAT_EDGES if kind == "float" else INT_EDGES
    second = SHIFT_EDGES if kind == "shift" else edges
    rand = _random_floats if kind == "float" else _random_words
    a = [edges, edges[::-1], rand(rng), _random_words(rng)]
    # lanes 8-13 of the second row equal ``a``'s; lanes 14-15 cross +-0
    mixed = second[:8] + edges[::-1][8:14] + [edges[1], edges[0]]
    b = [np.roll(second, 3), mixed, rand(rng), _random_words(rng)]
    c = [np.roll(edges, 7), rand(rng), rand(rng), _random_words(rng)]
    return [np.array(t, dtype=np.uint64).astype(np.uint32) for t in (a, b, c)]


class _Kernel:
    """One case's program.  ``v2``/``v3``/``v4`` hold a batch's operands,
    ``v9`` is the lane's word offset, ``v10``-``v12`` address the three
    input tables and ``v13`` this launch's output buffer; ``s6`` holds a
    scalar operand."""

    def __init__(self):
        self.p = ProgramBuilder()
        self.slot = 0
        p = self.p
        p.shl(v(9), v(1), imm(2))
        for reg, arg in zip((10, 11, 12, 13), (2, 3, 4, 5)):
            p.iadd(v(reg), v(9), s(arg))

    def next_slot(self):
        off = 64 * self.slot
        self.slot += 1
        assert self.slot <= SLOTS
        return off

    def load_batch(self, k):
        for reg, addr in ((2, 10), (3, 11), (4, 12)):
            self.p.load(v(reg), v(addr), offset=64 * k)

    def out(self, reg, mask=0xFFFFFFFF):
        """Store ``reg & mask`` to the next output slot."""
        self.p.iand(v(6), reg, imm(mask))
        self.p.store(v(6), v(13), offset=self.next_slot())

    def each_mask(self, emit, batches=4, masks=MASKS):
        """Per batch, per mask: ``emit`` writes ``v5``, which is stored
        under the mask."""
        for k in range(batches):
            self.load_batch(k)
            for m in masks:
                emit(self.p)
                self.out(v(5), m)
        return self


def run_case(kernel, kind="int", scalar=0xF0F00F0F):
    """Run ``kernel`` as a full and a partial wavefront; its digests."""
    mem = GlobalMemory(1 << 16)
    tables = _inputs(kind)
    bases = []
    for name, table in zip("abc", tables):
        bases.append(mem.alloc(name, table.nbytes))
        mem.view_u32(name)[:] = table.ravel()
    outs = [mem.alloc(f"out{n}", 64 * SLOTS) for n in THREADS]
    program = kernel.p.build()
    apu = Apu(n_cus=1, memory=mem)
    apu.run([
        Launch(program, n, [*bases, out, scalar])
        for n, out in zip(THREADS, outs)
    ])
    trace = apu.trace
    res = analyze_liveness(
        trace, apu.wf_programs, mem.size,
        [(out, 64 * SLOTS) for out in outs], lds_size=apu.lds_bytes,
    )
    results = hashlib.sha256(mem.data.tobytes())
    results.update(np.int64(apu.cycle).tobytes())
    results.update(trace.t.astype(np.int64).tobytes())
    liveness = hashlib.sha256()
    for arr in (res.live, res.src_needed, res.mem_needed):
        liveness.update(np.ascontiguousarray(arr).tobytes())
    liveness.update(np.packbits(res.needed_mem).tobytes())
    return {
        "results": results.hexdigest(),
        "liveness": liveness.hexdigest(),
    }


# -- the cases ------------------------------------------------------------

CONDS = ("lt", "le", "eq", "ne", "gt", "ge")
INT_BINARY = {
    "v_add": "iadd", "v_sub": "isub", "v_mul": "imul", "v_and": "iand",
    "v_or": "ior", "v_xor": "ixor", "v_min": "imin", "v_max": "imax",
}
SHIFTS = {"v_shl": "shl", "v_shr": "shr", "v_ashr": "ashr"}
FLOAT_BINARY = {
    "v_fadd": "fadd", "v_fsub": "fsub", "v_fmul": "fmul",
    "v_fmin": "fmin", "v_fmax": "fmax",
}
INT_UNARY = {"v_mov": "mov", "v_not": "inot", "v_abs": "iabs",
             "v_cvt_i2f": "cvt_i2f"}
FLOAT_UNARY = {
    "v_frcp": "frcp", "v_fsqrt": "fsqrt", "v_fexp": "fexp",
    "v_flog": "flog", "v_fabs": "fabs", "v_cvt_f2i": "cvt_f2i",
}
SCALAR_BINARY = {
    "s_add": "s_iadd", "s_sub": "s_isub", "s_mul": "s_imul",
    "s_shl": "s_shl", "s_shr": "s_shr",
}
AND_OR_IMMS = (0x0000FFFF, 0xF0F0F0F0, 0, 0xFFFFFFFF)
SHIFT_IMMS = (0, 1, 7, 31, 32, 33)
FLOAT_IMMS = (0.5, -0.0, float("inf"), float("nan"))


def _binary(meth, a, b):
    return lambda p: getattr(p, meth)(v(5), a, b)


def _unary(meth, a):
    return lambda p: getattr(p, meth)(v(5), a)


def _cndmask(a, b):
    def emit(p):
        p.cmp("lt", v(4), imm(0))  # a VCC that differs per lane and batch
        p.cndmask(v(5), a, b)

    return emit


def _vector_cases():
    cases = {}
    for op, meth in INT_BINARY.items():
        cases[f"{op}/vv"] = ("int", [_binary(meth, v(2), v(3))])
        cases[f"{op}/vs"] = ("int", [_binary(meth, v(2), s(6))])
        cases[f"{op}/vi"] = ("int", [
            _binary(meth, v(2), imm(x)) for x in AND_OR_IMMS
        ])
        cases[f"{op}/iv"] = ("int", [
            _binary(meth, imm(x), v(3)) for x in AND_OR_IMMS
        ])
    for op, meth in SHIFTS.items():
        cases[f"{op}/vv"] = ("shift", [_binary(meth, v(2), v(3))])
        cases[f"{op}/vs"] = ("shift", [_binary(meth, v(2), s(6))])
        cases[f"{op}/vi"] = ("shift", [
            _binary(meth, v(2), imm(k)) for k in SHIFT_IMMS
        ])
    for op, meth in FLOAT_BINARY.items():
        cases[f"{op}/vv"] = ("float", [_binary(meth, v(2), v(3))])
        cases[f"{op}/vi"] = ("float", [
            _binary(meth, v(2), fimm(x)) for x in FLOAT_IMMS
        ])

    def fmac(p):
        p.mov(v(5), v(4))
        p.fmac(v(5), v(2), v(3))

    cases["v_fmac/vvv"] = ("float", [fmac])
    for op, meth in INT_UNARY.items():
        cases[f"{op}/v"] = ("int", [_unary(meth, v(2))])
    cases["v_mov/i"] = ("int", [_unary("mov", imm(0x89ABCDEF))])
    cases["v_mov/s"] = ("int", [_unary("mov", s(6))])
    for op, meth in FLOAT_UNARY.items():
        cases[f"{op}/v"] = ("float", [_unary(meth, v(2))])
    for tag, a, b in (("vv", v(2), v(3)), ("vi", v(2), imm(7)),
                      ("iv", imm(7), v(3))):
        cases[f"v_cndmask/{tag}"] = ("int", [_cndmask(a, b)])
    cases["v_shuffle_up"] = ("int", [
        (lambda d: lambda p: p.shuffle_up(v(5), v(2), d))(d)
        for d in (0, 1, 5, 15, 16, 20)
    ])
    cases["v_shuffle_xor"] = ("int", [
        (lambda x: lambda p: p.shuffle_xor(v(5), v(2), x))(x)
        for x in (0, 1, 7, 15)
    ])
    return cases


def _vector_kernel(emits):
    k = _Kernel()
    for emit in emits:
        k.each_mask(emit)
    return k


def _compare_kernel(op, cond, second):
    def emit(p):
        getattr(p, op)(cond, v(2), second)
        p.cndmask(v(5), imm(0xFFFFFFFF), imm(0))

    return _Kernel().each_mask(emit)


def _readlane_kernel():
    k = _Kernel()
    for lane in range(LANES):
        def emit(p, lane=lane):
            p.readlane(s(7), v(2), lane)
            p.mov(v(5), s(7))

        k.each_mask(emit, batches=2, masks=(0xFFFFFFFF, 0))
    return k


def _scalar_pairs():
    rng = np.random.default_rng(7)
    rand = [int(x) for x in _random_words(rng)]
    pairs = list(zip(INT_EDGES, SHIFT_EDGES))
    pairs += list(zip(INT_EDGES[::-1], INT_EDGES))
    return pairs + list(zip(rand[:8], rand[8:]))


def _scalar_kernel(meth):
    k = _Kernel()
    p = k.p
    for a, b in _scalar_pairs():
        p.s_mov(s(7), imm(a))
        p.s_mov(s(8), imm(b))
        if meth == "s_mov":
            p.s_mov(s(9), s(7))
            p.s_mov(s(10), imm(b))
        else:
            getattr(p, meth)(s(9), s(7), s(8))
            getattr(p, meth)(s(10), s(7), imm(b))
        for sreg in (9, 10):
            p.mov(v(5), s(sreg))
            k.out(v(5))
    return k


def _scmp_kernel(cond):
    k = _Kernel()
    p = k.p
    for n, (a, b) in enumerate(_scalar_pairs()):
        p.s_mov(s(7), imm(a))
        p.s_mov(s(8), imm(b))
        p.s_cmp(cond, s(7), s(8))
        taken = n % 2 == 0
        p.s_mov(s(9), imm(1 if taken else 0))
        p.cbranch(f"skip{n}", if_scc=taken)
        p.s_mov(s(9), imm(0 if taken else 1))
        p.label(f"skip{n}")
        p.branch(f"over{n}")
        p.s_mov(s(9), imm(0xBAD))
        p.label(f"over{n}")
        p.mov(v(5), s(9))
        k.out(v(5))
    return k


def _u8_kernel():
    k = _Kernel()
    p = k.p
    p.cmp("lt", v(4), imm(0))
    p.iadd(v(14), v(1), s(2))  # byte ``lane`` of table a
    for byte in range(4):
        for pred in (False, True):
            for m in (0xFFFFFFFF, 0x0000000F, 0x00000100, 0):
                p.mov(v(5), v(3))
                p.load_u8(v(5), v(10), offset=byte, pred=pred)
                k.out(v(5), m)
                p.mov(v(5), v(3))
                p.load_u8(v(5), v(14), offset=16 * byte, pred=pred)
                k.out(v(5), m)
    p.shr(v(15), v(1), imm(1))
    p.iadd(v(15), v(15), s(5))  # two lanes per byte of an output slot
    for batch in range(4):
        k.load_batch(batch)
        p.cmp("lt", v(4), imm(0))
        for pred in (False, True):
            p.store_u8(v(2), v(13), offset=k.next_slot() + batch, pred=pred)
            p.store_u8(v(3), v(15), offset=k.next_slot(), pred=pred)
            p.iand(v(6), v(3), imm(0x0000FF00))
            p.store_u8(v(6), v(15), offset=k.next_slot(), pred=pred)
    return k


def _word_kernel():
    k = _Kernel()
    p = k.p
    for batch in range(4):
        k.load_batch(batch)
        p.cmp("lt", v(4), imm(0))
        p.mov(v(5), v(3))
        p.load(v(5), v(10), offset=64 * batch, pred=True)
        k.out(v(5))
        p.store(v(2), v(13), offset=k.next_slot(), pred=True)
        p.store(v(3), v(13), offset=k.next_slot(), pred=False)
        p.store(v(2), v(13), offset=k.next_slot() - 64, pred=True)
    return k


def _lds_kernel():
    k = _Kernel()
    p = k.p
    p.iadd(v(14), v(1), imm(1))
    p.iand(v(14), v(14), imm(15))
    p.shl(v(14), v(14), imm(2))  # the next lane's LDS word
    for batch in range(4):
        k.load_batch(batch)
        p.cmp("lt", v(4), imm(0))
        p.lds_store(v(3), v(9), offset=256)  # overwritten below: dead
        p.lds_store(v(2), v(9), offset=256)
        p.lds_store(v(3), v(9), offset=256, pred=True)
        p.lds_store(v(4), v(9), offset=512 + 64 * batch)
        for m in MASKS:
            p.mov(v(5), v(4))
            p.lds_load(v(5), v(14), offset=256, pred=bool(m & 1))
            k.out(v(5), m)
            p.lds_load(v(5), v(9), offset=512 + 64 * batch)
            k.out(v(5), m)
    return k


def cases():
    """Every case's name and a thunk computing its digest."""
    table = {}
    for name, (kind, emits) in _vector_cases().items():
        table[name] = (
            lambda kind=kind, emits=emits: run_case(_vector_kernel(emits), kind)
        )
    for op, kind in (("cmp", "int"), ("fcmp", "float")):
        second = imm(0) if op == "cmp" else fimm(0.0)
        for cond in CONDS:
            for tag, src in (("vv", v(3)), ("vi", second)):
                table[f"v_{op}/{cond}/{tag}"] = (
                    lambda op=op, cond=cond, src=src, kind=kind: run_case(
                        _compare_kernel(op, cond, src), kind
                    )
                )
    table["v_readlane"] = lambda: run_case(_readlane_kernel())
    table["s_mov"] = lambda: run_case(_scalar_kernel("s_mov"))
    for op, meth in SCALAR_BINARY.items():
        table[op] = lambda meth=meth: run_case(_scalar_kernel(meth))
    for cond in CONDS:
        table[f"s_cmp/{cond}"] = lambda cond=cond: run_case(_scmp_kernel(cond))
    table["v_load_u8+v_store_u8"] = lambda: run_case(_u8_kernel())
    table["v_load+v_store/pred"] = lambda: run_case(_word_kernel())
    table["lds_load+lds_store"] = lambda: run_case(_lds_kernel())
    return table


CASES = cases()


def test_every_case_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_matches_pinned_digest(name):
    pinned = json.loads(DIGESTS.read_text())
    assert CASES[name]() == pinned[name]


if __name__ == "__main__":
    table = {name: CASES[name]() for name in sorted(CASES)}
    lines = [
        f"  {json.dumps(key)}: {json.dumps(table[key], sort_keys=True)}"
        for key in sorted(table)
    ]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
