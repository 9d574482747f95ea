"""A small SIMT instruction set and program builder.

The paper measures AVF on a gem5 APU model (x86 CPU + integrated GPU).  We
substitute a from-scratch SIMT GPU with a compact GCN-flavoured ISA: 16-lane
wavefronts, per-lane 32-bit vector registers (VGPRs), per-wavefront scalar
registers (SGPRs), a vector condition code (VCC), predicated memory access,
local (LDS) scratch memory, and uniform (scalar-condition) control flow.
Divergent control flow is expressed with predication (``cndmask`` /
predicated stores), a standard GPU compilation strategy.

Programs are built with :class:`ProgramBuilder`, a tiny assembler DSL::

    p = ProgramBuilder()
    p.load(v(2), addr=v(0))          # per-lane load
    p.iadd(v(2), v(2), imm(1))
    p.store(v(2), addr=v(0))
    prog = p.build()

Operands are ``('v', i)`` vector registers, ``('s', i)`` scalar registers or
``('imm', value)`` immediates, built with the :func:`v`, :func:`s` and
:func:`imm` helpers.

Register conventions at kernel start:

* ``v0`` — global work-item (thread) id
* ``v1`` — lane id within the wavefront (0-15)
* ``s0`` — workgroup id, ``s1`` — global wavefront id
* ``s2``.. — kernel arguments (buffer base addresses, sizes, scalars)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

__all__ = [
    "WAVEFRONT_LANES",
    "M32",
    "LANE_IDS",
    "Operand",
    "v",
    "s",
    "imm",
    "fimm",
    "Instr",
    "Program",
    "ProgramBuilder",
    "OpDef",
    "OPS",
    "CMP_CONDS",
    # op kinds and memory spaces
    "VALU", "VCMP", "READLANE", "SALU", "SCMP", "MEM", "BRANCH", "END",
    "GLOBAL", "LDS",
]

#: Lanes per wavefront.  The paper's VGPR case study reads/writes registers
#: for 16 threads at a time (Sec. VIII), so wavefronts are 16 lanes wide.
WAVEFRONT_LANES = 16
#: A 32-bit register's bits.
M32 = 0xFFFFFFFF
#: Each lane's index, 0..15.
LANE_IDS = np.arange(WAVEFRONT_LANES)

Operand = Tuple[str, Union[int, float]]


def v(idx: int) -> Operand:
    """Vector (per-lane) register operand."""
    if idx < 0:
        raise ValueError("register index must be non-negative")
    return ("v", idx)


def s(idx: int) -> Operand:
    """Scalar (per-wavefront) register operand."""
    if idx < 0:
        raise ValueError("register index must be non-negative")
    return ("s", idx)


def imm(value: int) -> Operand:
    """Integer immediate operand."""
    return ("imm", int(value))


def fimm(value: float) -> Operand:
    """Float immediate operand (stored as float32 bit pattern)."""
    import struct

    return ("imm", struct.unpack("<I", struct.pack("<f", float(value)))[0])


def _lane_operand(what: str, value: int, limit: Optional[int]) -> Operand:
    """An immediate lane operand, rejected outside ``[0, limit)``."""
    if value < 0 or (limit is not None and value >= limit):
        raise ValueError(f"{what} {value} is outside [0, {limit or 'inf'})")
    return imm(value)


# -- the opcode table ---------------------------------------------------------
#
# Each opcode is one :class:`OpDef` row of :data:`OPS`: its kind (which
# says where its operands come from and where its result goes), what it
# computes (``fn``), which source bits each needed result bit depends on
# (``needed``, the logic-masking rule of Sec. VI-A) and, for memory ops,
# its space, direction and width.  The simulator, the liveness pass and the
# lifetime analyses dispatch on the row; none of them names an opcode.

# Kinds: where an op's operands come from and where its result goes.
VALU = "valu"  # fn(source lanes) -> the dst VGPR's active lanes
VCMP = "vcmp"  # fn(source lanes) -> VCC's active lanes
READLANE = "readlane"  # fn(source lanes) -> an SGPR
SALU = "salu"  # fn(scalar sources) -> an SGPR, wrapped to 32 bits
SCMP = "scmp"  # fn(scalar sources) -> SCC
MEM = "mem"  # per-lane memory access: the row's space, direction and width
BRANCH = "branch"  # to ``target`` if fn([SCC]) is true
END = "end"  # end of kernel

# Memory spaces: device global memory, and the wavefront's LDS scratch.
GLOBAL = "global"
LDS = "lds"

#: What an op computes: ``fn(srcs, ins, vcc)``.  Vector ops get each
#: source's 16 lanes (uint32) and return the result lanes; scalar ops get
#: and return Python ints.  ``vcc`` is the wavefront's VCC at issue.
Semantics = Callable[[Sequence[Any], "Instr", np.ndarray], Any]
#: A logic-masking rule: ``needed(out, ins, vcc)`` maps the needed bits of
#: each result lane (uint32) to each source's needed bits, one entry per
#: source (``None``: no bit of it matters).  Only VGPR sources are read.
Masks = List[Optional[np.ndarray]]
NeededRule = Callable[[np.ndarray, "Instr", np.ndarray], Masks]


def _imm(ins: Instr, j: int) -> Optional[int]:
    """Source ``j``'s value if it is an immediate."""
    src = ins.srcs[j]
    return int(src[1]) if src[0] == "imm" else None


def _signed(x: int) -> int:
    x &= M32
    return x - (1 << 32) if x & 0x80000000 else x


def _full_if(out: np.ndarray) -> np.ndarray:
    """All 32 bits needed on lanes where any output bit is needed."""
    return np.where(out != 0, np.uint32(M32), np.uint32(0))


def _fill_below_msb(x: np.ndarray) -> np.ndarray:
    """Set every bit at or below each lane's most significant set bit."""
    y = x.copy()
    y |= y >> np.uint32(1)
    y |= y >> np.uint32(2)
    y |= y >> np.uint32(4)
    y |= y >> np.uint32(8)
    y |= y >> np.uint32(16)
    return y


# Logic-masking rules (:data:`NeededRule`).


def _every_bit(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """Any needed result bit of a lane needs every bit of its sources
    (min/max/abs, float ops, conversions, compares, a load's address)."""
    full = _full_if(out)
    return [full] * len(ins.srcs)


def _same_bit(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """Result bit k reads bit k of each source (mov, xor, not)."""
    return [out] * len(ins.srcs)


def _carry(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """Result bit k of an adder or multiplier reads source bits 0..k."""
    m = _fill_below_msb(out)
    return [m, m]


def _bitwise(keep: Callable[[int], int]) -> NeededRule:
    """AND/OR: against an immediate, a source bit matters only where the
    immediate's bit is ``keep``'s; otherwise bit k reads bit k."""

    def rule(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
        masks: Masks = []
        for i in (0, 1):
            other = _imm(ins, 1 - i)
            masks.append(out if other is None else out & np.uint32(keep(other)))
        return masks

    return rule


def _shift(by_imm: Callable[[np.ndarray, np.uint32], np.ndarray]) -> NeededRule:
    """A shift by an immediate moves the needed bits (``by_imm``); by a
    register, every value bit and the amount's low 5 bits are needed."""

    def rule(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
        k = _imm(ins, 1)
        if k is None:
            return [_full_if(out), np.where(out != 0, np.uint32(31), np.uint32(0))]
        return [by_imm(out, np.uint32(k & 31)), None]

    return rule


def _select(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """``cndmask`` reads only the side VCC picks."""
    return [np.where(vcc, out, np.uint32(0)), np.where(vcc, np.uint32(0), out)]


def _from_lane_up(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """Lane i of ``shuffle_up`` reads source lane i - delta."""
    delta = int(ins.srcs[1][1])
    m = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
    if delta < WAVEFRONT_LANES:
        m[: WAVEFRONT_LANES - delta] = out[delta:]
    return [m, None]


def _from_lane_xor(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """Lane i of ``shuffle_xor`` reads source lane i ^ mask."""
    return [out[LANE_IDS ^ int(ins.srcs[1][1])], None]


def _from_one_lane(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """``readlane`` reads one source lane."""
    return [np.where(LANE_IDS == int(ins.srcs[1][1]), out, np.uint32(0)), None]


def _stored(out: np.ndarray, ins: Instr, vcc: np.ndarray) -> Masks:
    """A store reads the needed bits of its value, and all of its address
    where any of them is needed (``srcs = (value, addr)``)."""
    return [out, _full_if(out)]


# Semantics (:data:`Semantics`) that need more than an expression.


def _float(expr: Callable[[List[np.ndarray]], np.ndarray]) -> Semantics:
    """A float32 op; NaN results flush to 0, no float warnings."""

    def fn(srcs: Sequence[Any], ins: Instr, vcc: np.ndarray) -> Any:
        fs = [x.view(np.float32) for x in srcs]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            out = expr(fs)
        return np.nan_to_num(out.astype(np.float32), nan=0.0).view(np.uint32)

    return fn


def _int32(expr: Callable[[List[np.ndarray]], np.ndarray]) -> Semantics:
    """A signed 32-bit op on the sources' bits."""
    return lambda s, i, c: expr([x.view(np.int32) for x in s]).view(np.uint32)


def _cvt_f2i(srcs: Sequence[Any], ins: Instr, vcc: np.ndarray) -> Any:
    with np.errstate(invalid="ignore"):
        f = srcs[0].view(np.float32)
        return np.where(np.isfinite(f), f, 0.0).astype(np.int32).view(np.uint32)


def _shuffle_up(srcs: Sequence[Any], ins: Instr, vcc: np.ndarray) -> Any:
    delta = int(ins.srcs[1][1])
    res = np.zeros(WAVEFRONT_LANES, dtype=np.uint32)
    if delta < WAVEFRONT_LANES:
        res[delta:] = srcs[0][: WAVEFRONT_LANES - delta]
    return res


#: The six comparisons, shared by ``s_cmp``, ``v_cmp`` and ``v_fcmp``.
_COMPARE: Dict[str, Callable[[Any, Any], Any]] = {
    "lt": operator.lt, "le": operator.le, "eq": operator.eq,
    "ne": operator.ne, "gt": operator.gt, "ge": operator.ge,
}
CMP_CONDS = tuple(_COMPARE)


def _compare(view: Callable[[Any], Any]) -> Semantics:
    """``a <cond> b`` on both sources seen through ``view``."""
    return lambda s, i, c: _COMPARE[str(i.cond)](view(s[0]), view(s[1]))


def _computes_nothing(srcs: Sequence[Any], ins: Instr, vcc: np.ndarray) -> Any:
    raise TypeError(f"{ins.op} computes no value")


class OpDef(NamedTuple):
    """One opcode: what it is, for every part of the program at once."""

    #: where operands come from and the result goes (:data:`VALU`, ...)
    kind: str
    #: what it computes (:data:`Semantics`)
    fn: Semantics = _computes_nothing
    #: its logic-masking rule (:data:`NeededRule`); the default is always sound
    needed: NeededRule = _every_bit
    #: reads source lanes regardless of the exec mask (cross-lane ops)
    all_lanes: bool = False
    #: a lane's result depends on its VCC bit (``cndmask``)
    reads_vcc: bool = False
    #: memory ops: :data:`GLOBAL` or :data:`LDS`
    space: Optional[str] = None
    #: memory ops: a store (``srcs = (value, addr)``), not a load (``(addr,)``)
    store: bool = False
    #: memory ops: access width in bytes
    nbytes: int = 4


#: Every opcode's row.
OPS: Dict[str, OpDef] = {
    # -- vector ALU: ``fn(srcs, ins, vcc)`` -> result lanes ---------------
    "v_mov": OpDef(VALU, lambda s, i, c: s[0].copy(), _same_bit),
    "v_add": OpDef(VALU, lambda s, i, c: s[0] + s[1], _carry),
    "v_sub": OpDef(VALU, lambda s, i, c: s[0] - s[1], _carry),
    "v_mul": OpDef(VALU, lambda s, i, c: s[0] * s[1], _carry),
    "v_and": OpDef(VALU, lambda s, i, c: s[0] & s[1], _bitwise(lambda k: k)),
    "v_or": OpDef(
        VALU, lambda s, i, c: s[0] | s[1], _bitwise(lambda k: ~k & 0xFFFFFFFF)
    ),
    "v_xor": OpDef(VALU, lambda s, i, c: s[0] ^ s[1], _same_bit),
    "v_not": OpDef(VALU, lambda s, i, c: ~s[0], _same_bit),
    "v_shl": OpDef(
        VALU, lambda s, i, c: s[0] << (s[1] & np.uint32(31)),
        _shift(lambda out, k: out >> k),
    ),
    "v_shr": OpDef(
        VALU, lambda s, i, c: s[0] >> (s[1] & np.uint32(31)),
        _shift(lambda out, k: out << k),
    ),
    "v_ashr": OpDef(
        VALU,
        lambda s, i, c: (
            s[0].view(np.int32) >> (s[1] & np.uint32(31)).view(np.int32)
        ).view(np.uint32),
        # the sign bit smears into every result bit
        _shift(lambda out, k: (out << k) | np.where(
            out != 0, np.uint32(0x80000000), np.uint32(0)
        )),
    ),
    "v_min": OpDef(VALU, _int32(lambda n: np.minimum(n[0], n[1]))),
    "v_max": OpDef(VALU, _int32(lambda n: np.maximum(n[0], n[1]))),
    "v_abs": OpDef(VALU, _int32(lambda n: np.abs(n[0]))),
    "v_fadd": OpDef(VALU, _float(lambda f: f[0] + f[1])),
    "v_fsub": OpDef(VALU, _float(lambda f: f[0] - f[1])),
    "v_fmul": OpDef(VALU, _float(lambda f: f[0] * f[1])),
    # ``d += a * b``: srcs = (a, b, d)
    "v_fmac": OpDef(VALU, _float(lambda f: f[2] + f[0] * f[1])),
    "v_frcp": OpDef(VALU, _float(lambda f: np.float32(1.0) / f[0])),
    "v_fsqrt": OpDef(VALU, _float(lambda f: np.sqrt(f[0]))),
    "v_fexp": OpDef(VALU, _float(lambda f: np.exp(f[0]))),
    "v_flog": OpDef(VALU, _float(lambda f: np.log(np.abs(f[0])))),
    "v_fmin": OpDef(VALU, _float(lambda f: np.minimum(f[0], f[1]))),
    "v_fmax": OpDef(VALU, _float(lambda f: np.maximum(f[0], f[1]))),
    "v_fabs": OpDef(VALU, _float(lambda f: np.abs(f[0]))),
    "v_cvt_i2f": OpDef(VALU, _int32(lambda n: n[0].astype(np.float32))),
    "v_cvt_f2i": OpDef(VALU, _cvt_f2i),
    "v_cndmask": OpDef(
        VALU, lambda s, i, c: np.where(c, s[0], s[1]), _select, reads_vcc=True
    ),
    # cross-lane: ``srcs[1]`` is the immediate delta / mask
    "v_shuffle_up": OpDef(VALU, _shuffle_up, _from_lane_up, all_lanes=True),
    "v_shuffle_xor": OpDef(
        VALU,
        lambda s, i, c: s[0][LANE_IDS ^ int(i.srcs[1][1])].astype(np.uint32),
        _from_lane_xor,
        all_lanes=True,
    ),
    # -- compares: a needed VCC lane needs every source bit --------------
    "v_cmp": OpDef(VCMP, _compare(lambda x: x.view(np.int32))),
    "v_fcmp": OpDef(VCMP, _compare(lambda x: x.view(np.float32))),
    # -- lane -> scalar: ``srcs[1]`` is the immediate lane ----------------
    "v_readlane": OpDef(
        READLANE, lambda s, i, c: s[0][int(i.srcs[1][1])], _from_one_lane,
        all_lanes=True,
    ),
    # -- scalar ALU and compare: Python ints ------------------------------
    "s_mov": OpDef(SALU, lambda s, i, c: s[0]),
    "s_add": OpDef(SALU, lambda s, i, c: s[0] + s[1]),
    "s_sub": OpDef(SALU, lambda s, i, c: s[0] - s[1]),
    "s_mul": OpDef(SALU, lambda s, i, c: s[0] * s[1]),
    "s_shl": OpDef(SALU, lambda s, i, c: s[0] << (s[1] & 31)),
    "s_shr": OpDef(SALU, lambda s, i, c: (s[0] & M32) >> (s[1] & 31)),
    "s_cmp": OpDef(SCMP, _compare(_signed)),
    # -- control ------------------------------------------------------------
    "s_branch": OpDef(BRANCH, lambda s, i, c: True),
    # ``srcs[0]`` is the SCC value that takes the branch
    "s_cbranch": OpDef(BRANCH, lambda s, i, c: s[0] == bool(i.srcs[0][1])),
    "s_endpgm": OpDef(END),
    # -- memory: a load needs all of its address for any needed bit ---------
    "v_load": OpDef(MEM, space=GLOBAL),
    "v_store": OpDef(MEM, needed=_stored, space=GLOBAL, store=True),
    "v_load_u8": OpDef(MEM, space=GLOBAL, nbytes=1),
    "v_store_u8": OpDef(
        MEM, needed=_stored, space=GLOBAL, store=True, nbytes=1
    ),
    "lds_load": OpDef(MEM, space=LDS),
    "lds_store": OpDef(MEM, needed=_stored, space=LDS, store=True),
}


@dataclass(frozen=True)
class Instr:
    """One static instruction."""

    op: str
    dst: Optional[Operand] = None
    srcs: Tuple[Operand, ...] = ()
    cond: Optional[str] = None          # for v_cmp / s_cmp families
    target: Optional[str] = None        # branch label
    offset: int = 0                     # byte offset for memory ops
    predicated: bool = False            # mask memory access with VCC

    def __post_init__(self) -> None:
        row = OPS.get(self.op)
        if row is None:
            raise ValueError(f"unknown op {self.op!r}")
        if self.cond is not None and self.cond not in _COMPARE:
            raise ValueError(f"unknown comparison {self.cond!r}")
        if self.cond is None and row.kind in (VCMP, SCMP):
            raise ValueError(f"{self.op} needs a comparison")

    @property
    def nbytes(self) -> int:
        """Access width of a memory op in bytes."""
        return OPS[self.op].nbytes


@dataclass
class Program:
    """A fully-built program: instruction list + resolved branch targets."""

    instrs: List[Instr]
    labels: Dict[str, int]
    n_vregs: int
    n_sregs: int

    def __post_init__(self) -> None:
        for ins in self.instrs:
            if ins.target is not None and ins.target not in self.labels:
                raise ValueError(f"undefined label {ins.target!r}")

    def target_pc(self, label: str) -> int:
        return self.labels[label]

    def __len__(self) -> int:
        return len(self.instrs)


def _unary(op: str) -> Callable[..., ProgramBuilder]:
    """A builder method emitting ``op d, a``."""
    return lambda self, d, a: self._emit(Instr(op, d, (a,)))


def _binary(op: str) -> Callable[..., ProgramBuilder]:
    """A builder method emitting ``op d, a, b``."""
    return lambda self, d, a, b: self._emit(Instr(op, d, (a, b)))


def _compare_op(op: str) -> Callable[..., ProgramBuilder]:
    """A builder method emitting ``op`` under ``cond`` (``lt``, ...)."""
    return lambda self, cond, a, b: self._emit(Instr(op, None, (a, b), cond=cond))


def _memory(op: str) -> Callable[..., ProgramBuilder]:
    """The builder method of memory op ``op``: ``(dst, addr)`` for a load,
    ``(src, addr)`` for a store, then ``offset`` and ``pred``."""
    row = OPS[op]

    def emit(self, reg, addr, offset: int = 0, pred: bool = False):
        dst, srcs = (None, (reg, addr)) if row.store else (reg, (addr,))
        return self._emit(Instr(op, dst, srcs, offset=offset, predicated=pred))

    what = "store" if row.store else "zero-extended load"
    emit.__doc__ = f"Per-lane {8 * row.nbytes}-bit {row.space} {what}."
    return emit


class ProgramBuilder:
    """Incremental assembler for :class:`Program` objects."""

    def __init__(self) -> None:
        self._instrs: List[Instr] = []
        self._labels: Dict[str, int] = {}
        self._max_v = 1  # v0/v1 are preset
        self._max_s = 1  # s0/s1 are preset

    # -- plumbing ----------------------------------------------------------

    def _note(self, *ops: Optional[Operand]) -> None:
        for op in ops:
            if op is None:
                continue
            kind, idx = op
            if kind == "v":
                self._max_v = max(self._max_v, int(idx))
            elif kind == "s":
                self._max_s = max(self._max_s, int(idx))

    def _emit(self, instr: Instr) -> "ProgramBuilder":
        self._note(instr.dst, *instr.srcs)
        self._instrs.append(instr)
        return self

    def label(self, name: str) -> "ProgramBuilder":
        """Define a branch target at the current position."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instrs)
        return self

    def build(self) -> Program:
        """Finalise the program (appends an implicit ``s_endpgm``)."""
        instrs = list(self._instrs)
        if not instrs or instrs[-1].op != "s_endpgm":
            instrs.append(Instr("s_endpgm"))
        return Program(instrs, dict(self._labels), self._max_v + 1, self._max_s + 1)

    # -- vector ALU (each op's semantics: its row in OPS) ------------------

    mov = _unary("v_mov")
    iadd = _binary("v_add")
    isub = _binary("v_sub")
    imul = _binary("v_mul")
    iand = _binary("v_and")
    ior = _binary("v_or")
    ixor = _binary("v_xor")
    inot = _unary("v_not")
    shl = _binary("v_shl")
    shr = _binary("v_shr")
    ashr = _binary("v_ashr")
    imin = _binary("v_min")
    imax = _binary("v_max")
    iabs = _unary("v_abs")

    # -- vector float ------------------------------------------------------

    fadd = _binary("v_fadd")
    fsub = _binary("v_fsub")
    fmul = _binary("v_fmul")

    def fmac(self, d, a, b):
        """d += a * b (fused multiply-accumulate; d is read and written)."""
        return self._emit(Instr("v_fmac", d, (a, b, d)))

    frcp = _unary("v_frcp")
    fsqrt = _unary("v_fsqrt")
    fexp = _unary("v_fexp")
    flog = _unary("v_flog")
    fmin = _binary("v_fmin")
    fmax = _binary("v_fmax")
    fabs = _unary("v_fabs")
    cvt_i2f = _unary("v_cvt_i2f")
    cvt_f2i = _unary("v_cvt_f2i")

    # -- compares / select / cross-lane -------------------------------------

    #: integer / float compare; writes the per-lane VCC mask
    cmp = _compare_op("v_cmp")
    fcmp = _compare_op("v_fcmp")

    #: d = VCC ? a : b (per lane).
    cndmask = _binary("v_cndmask")

    def shuffle_up(self, d, a, delta: int):
        """Lane i reads a[i-delta]; lanes < delta read 0."""
        delta_op = _lane_operand("shuffle_up delta", delta, None)
        return self._emit(Instr("v_shuffle_up", d, (a, delta_op)))

    def shuffle_xor(self, d, a, mask: int):
        """Lane i reads a[i ^ mask] (butterfly exchange)."""
        mask_op = _lane_operand("shuffle_xor mask", mask, WAVEFRONT_LANES)
        return self._emit(Instr("v_shuffle_xor", d, (a, mask_op)))

    def readlane(self, sd, a, lane: int):
        """Scalar dst = vector src at a fixed lane."""
        lane_op = _lane_operand("readlane lane", lane, WAVEFRONT_LANES)
        return self._emit(Instr("v_readlane", sd, (a, lane_op)))

    # -- memory (``pred``: only lanes with VCC set access memory) ------------

    load = _memory("v_load")
    store = _memory("v_store")
    load_u8 = _memory("v_load_u8")
    store_u8 = _memory("v_store_u8")
    lds_load = _memory("lds_load")
    lds_store = _memory("lds_store")

    # -- scalar / control ----------------------------------------------------

    s_mov = _unary("s_mov")
    s_iadd = _binary("s_add")
    s_isub = _binary("s_sub")
    s_imul = _binary("s_mul")
    s_shl = _binary("s_shl")
    s_shr = _binary("s_shr")

    #: scalar compare; writes SCC (used by cbranch)
    s_cmp = _compare_op("s_cmp")

    def branch(self, label: str):
        return self._emit(Instr("s_branch", target=label))

    def cbranch(self, label: str, if_scc: bool = True):
        """Branch if SCC is true (``if_scc``) or false."""
        ins = Instr("s_cbranch", srcs=(imm(1 if if_scc else 0),), target=label)
        return self._emit(ins)

    def endpgm(self):
        return self._emit(Instr("s_endpgm"))
