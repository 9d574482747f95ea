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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "WAVEFRONT_LANES",
    "Operand",
    "v",
    "s",
    "imm",
    "fimm",
    "Instr",
    "Program",
    "ProgramBuilder",
    "VECTOR_OPS",
    "SCALAR_OPS",
    "MEM_OPS",
    "CMP_CONDS",
]

#: Lanes per wavefront.  The paper's VGPR case study reads/writes registers
#: for 16 threads at a time (Sec. VIII), so wavefronts are 16 lanes wide.
WAVEFRONT_LANES = 16

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


CMP_CONDS = ("lt", "le", "eq", "ne", "gt", "ge")

#: Vector ALU ops (dst + sources; no memory access).
VECTOR_OPS = frozenset(
    {
        "v_mov", "v_add", "v_sub", "v_mul", "v_and", "v_or", "v_xor", "v_not",
        "v_shl", "v_shr", "v_ashr", "v_min", "v_max", "v_abs",
        "v_fadd", "v_fsub", "v_fmul", "v_fmac", "v_frcp", "v_fsqrt",
        "v_fexp", "v_flog", "v_fmin", "v_fmax", "v_fabs",
        "v_cvt_i2f", "v_cvt_f2i",
        "v_cmp", "v_fcmp", "v_cndmask",
        "v_shuffle_up", "v_shuffle_xor",
    }
)

#: Scalar ops (uniform across the wavefront).
SCALAR_OPS = frozenset(
    {
        "s_mov", "s_add", "s_sub", "s_mul", "s_shl", "s_shr",
        "s_cmp", "s_branch", "s_cbranch", "s_endpgm", "v_readlane",
    }
)

#: Memory ops (vector addresses, per-lane accesses).
MEM_OPS = frozenset(
    {
        "v_load", "v_store", "v_load_u8", "v_store_u8",
        "lds_load", "lds_store",
    }
)


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
        known = VECTOR_OPS | SCALAR_OPS | MEM_OPS
        if self.op not in known:
            raise ValueError(f"unknown op {self.op!r}")
        if self.cond is not None and self.cond not in CMP_CONDS:
            raise ValueError(f"unknown comparison {self.cond!r}")

    @property
    def nbytes(self) -> int:
        """Access width of a memory op in bytes."""
        return 1 if self.op.endswith("_u8") else 4


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

    # -- vector ALU --------------------------------------------------------

    def mov(self, d: Operand, a: Operand) -> "ProgramBuilder":
        return self._emit(Instr("v_mov", d, (a,)))

    def iadd(self, d, a, b):
        return self._emit(Instr("v_add", d, (a, b)))

    def isub(self, d, a, b):
        return self._emit(Instr("v_sub", d, (a, b)))

    def imul(self, d, a, b):
        return self._emit(Instr("v_mul", d, (a, b)))

    def iand(self, d, a, b):
        return self._emit(Instr("v_and", d, (a, b)))

    def ior(self, d, a, b):
        return self._emit(Instr("v_or", d, (a, b)))

    def ixor(self, d, a, b):
        return self._emit(Instr("v_xor", d, (a, b)))

    def inot(self, d, a):
        return self._emit(Instr("v_not", d, (a,)))

    def shl(self, d, a, b):
        return self._emit(Instr("v_shl", d, (a, b)))

    def shr(self, d, a, b):
        return self._emit(Instr("v_shr", d, (a, b)))

    def ashr(self, d, a, b):
        return self._emit(Instr("v_ashr", d, (a, b)))

    def imin(self, d, a, b):
        return self._emit(Instr("v_min", d, (a, b)))

    def imax(self, d, a, b):
        return self._emit(Instr("v_max", d, (a, b)))

    def iabs(self, d, a):
        return self._emit(Instr("v_abs", d, (a,)))

    # -- vector float ------------------------------------------------------

    def fadd(self, d, a, b):
        return self._emit(Instr("v_fadd", d, (a, b)))

    def fsub(self, d, a, b):
        return self._emit(Instr("v_fsub", d, (a, b)))

    def fmul(self, d, a, b):
        return self._emit(Instr("v_fmul", d, (a, b)))

    def fmac(self, d, a, b):
        """d += a * b (fused multiply-accumulate; d is read and written)."""
        return self._emit(Instr("v_fmac", d, (a, b, d)))

    def frcp(self, d, a):
        return self._emit(Instr("v_frcp", d, (a,)))

    def fsqrt(self, d, a):
        return self._emit(Instr("v_fsqrt", d, (a,)))

    def fexp(self, d, a):
        return self._emit(Instr("v_fexp", d, (a,)))

    def flog(self, d, a):
        return self._emit(Instr("v_flog", d, (a,)))

    def fmin(self, d, a, b):
        return self._emit(Instr("v_fmin", d, (a, b)))

    def fmax(self, d, a, b):
        return self._emit(Instr("v_fmax", d, (a, b)))

    def fabs(self, d, a):
        return self._emit(Instr("v_fabs", d, (a,)))

    def cvt_i2f(self, d, a):
        return self._emit(Instr("v_cvt_i2f", d, (a,)))

    def cvt_f2i(self, d, a):
        return self._emit(Instr("v_cvt_f2i", d, (a,)))

    # -- compares / select / cross-lane -------------------------------------

    def cmp(self, cond: str, a, b):
        """Integer compare; writes the per-lane VCC mask."""
        return self._emit(Instr("v_cmp", None, (a, b), cond=cond))

    def fcmp(self, cond: str, a, b):
        return self._emit(Instr("v_fcmp", None, (a, b), cond=cond))

    def cndmask(self, d, a, b):
        """d = VCC ? a : b (per lane)."""
        return self._emit(Instr("v_cndmask", d, (a, b)))

    def shuffle_up(self, d, a, delta: int):
        """Lane i reads a[i-delta]; lanes < delta read 0."""
        return self._emit(Instr("v_shuffle_up", d, (a, imm(delta))))

    def shuffle_xor(self, d, a, mask: int):
        """Lane i reads a[i ^ mask] (butterfly exchange)."""
        return self._emit(Instr("v_shuffle_xor", d, (a, imm(mask))))

    def readlane(self, sd, a, lane: int):
        """Scalar dst = vector src at a fixed lane."""
        return self._emit(Instr("v_readlane", sd, (a, imm(lane))))

    # -- memory --------------------------------------------------------------

    def load(self, d, addr, offset: int = 0, pred: bool = False):
        """Per-lane 32-bit load from global memory at ``addr + offset``."""
        return self._emit(
            Instr("v_load", d, (addr,), offset=offset, predicated=pred)
        )

    def store(self, src, addr, offset: int = 0, pred: bool = False):
        """Per-lane 32-bit store to global memory."""
        return self._emit(
            Instr("v_store", None, (src, addr), offset=offset, predicated=pred)
        )

    def load_u8(self, d, addr, offset: int = 0, pred: bool = False):
        """Per-lane zero-extended byte load."""
        return self._emit(
            Instr("v_load_u8", d, (addr,), offset=offset, predicated=pred)
        )

    def store_u8(self, src, addr, offset: int = 0, pred: bool = False):
        """Per-lane byte store (low 8 bits of the source)."""
        return self._emit(
            Instr("v_store_u8", None, (src, addr), offset=offset, predicated=pred)
        )

    def lds_load(self, d, addr, offset: int = 0, pred: bool = False):
        """Per-lane 32-bit load from workgroup-local scratch (LDS)."""
        return self._emit(
            Instr("lds_load", d, (addr,), offset=offset, predicated=pred)
        )

    def lds_store(self, src, addr, offset: int = 0, pred: bool = False):
        """Per-lane 32-bit store to workgroup-local scratch (LDS)."""
        return self._emit(
            Instr("lds_store", None, (src, addr), offset=offset, predicated=pred)
        )

    # -- scalar / control ----------------------------------------------------

    def s_mov(self, sd, a):
        return self._emit(Instr("s_mov", sd, (a,)))

    def s_iadd(self, sd, a, b):
        return self._emit(Instr("s_add", sd, (a, b)))

    def s_isub(self, sd, a, b):
        return self._emit(Instr("s_sub", sd, (a, b)))

    def s_imul(self, sd, a, b):
        return self._emit(Instr("s_mul", sd, (a, b)))

    def s_shl(self, sd, a, b):
        return self._emit(Instr("s_shl", sd, (a, b)))

    def s_shr(self, sd, a, b):
        return self._emit(Instr("s_shr", sd, (a, b)))

    def s_cmp(self, cond: str, a, b):
        """Scalar compare; writes SCC (used by cbranch)."""
        return self._emit(Instr("s_cmp", None, (a, b), cond=cond))

    def branch(self, label: str):
        return self._emit(Instr("s_branch", target=label))

    def cbranch(self, label: str, if_scc: bool = True):
        """Branch if SCC is true (``if_scc``) or false."""
        ins = Instr("s_cbranch", srcs=(imm(1 if if_scc else 0),), target=label)
        return self._emit(ins)

    def endpgm(self):
        return self._emit(Instr("s_endpgm"))
