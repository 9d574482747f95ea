"""Mantevo-style mini-apps: MiniFE (CG solver) and CoMD (MD force loop).

``minife`` mirrors the structure of the Mantevo finite-element mini-app the
paper uses for its phase studies (Fig. 5/8): a conjugate-gradient solve over
a 5-point Laplacian in ELL format, built from many small kernels (spmv, dot
products, scalar division, axpy) whose alternation produces the distinct
cache-usage phases the paper observes.

``comd`` is a molecular-dynamics force loop: each thread owns a particle and
accumulates a cutoff-limited pair force over all others (O(N^2), the CoMD
reference kernel shape), then integrates positions.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..arch.gpu import Launch
from ..arch.isa import ProgramBuilder, fimm, imm, s, v
from ..arch.memory import GlobalMemory
from .base import Workload
from .util import addr_of, addr_of_tid

__all__ = ["MiniFe", "CoMD"]


def _emit_butterfly_fadd(p: ProgramBuilder, acc, tmp) -> None:
    for step in (1, 2, 4, 8):
        p.shuffle_xor(tmp, acc, step)
        p.fadd(acc, acc, tmp)


def _butterfly_ref(vals: np.ndarray) -> np.float32:
    acc = vals.astype(np.float32).copy()
    lanes = np.arange(16)
    for step in (1, 2, 4, 8):
        acc = acc + acc[lanes ^ step]
    return acc[0]


class MiniFe(Workload):
    """Conjugate-gradient solve of a 16x16 5-point Laplacian (3 iterations)."""

    name = "minife"
    outputs = ("x",)
    GRID = 16
    ELL = 5
    ITERS = 3

    # -- problem assembly --------------------------------------------------

    def setup(self, mem: GlobalMemory) -> None:
        g = self.GRID
        n = g * g
        self.n = n
        cols = np.zeros((n, self.ELL), dtype=np.uint32)
        vals = np.zeros((n, self.ELL), dtype=np.float32)
        for r in range(g):
            for c in range(g):
                i = r * g + c
                cols[i, 0], vals[i, 0] = i, 4.0
                k = 1
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < g and 0 <= cc < g:
                        cols[i, k], vals[i, k] = rr * g + cc, -1.0
                    else:
                        cols[i, k], vals[i, k] = i, 0.0  # padding
                    k += 1
        self.cols, self.vals = cols, vals
        self.b = self.rng.random(n, dtype=np.float32)
        self.base_cols = mem.alloc("cols", n * self.ELL * 4)
        self.base_vals = mem.alloc("vals", n * self.ELL * 4)
        self.base_b = mem.alloc("b", n * 4)
        self.base_x = mem.alloc("x", n * 4)
        self.base_r = mem.alloc("r", n * 4)
        self.base_p = mem.alloc("pvec", n * 4)
        self.base_ap = mem.alloc("ap", n * 4)
        self.base_partials = mem.alloc("partials", (n // 16) * 4)
        # scal: [0]=rr, [1]=pap, [2]=alpha, [3]=rrnew, [4]=beta
        self.base_scal = mem.alloc("scal", 5 * 4)
        mem.view_u32("cols")[:] = cols.ravel()
        mem.view_f32("vals")[:] = vals.ravel()
        mem.view_f32("b")[:] = self.b

    # -- kernels ---------------------------------------------------------------

    def _init_kernel(self) -> ProgramBuilder:
        # x = 0; r = b; p = b.  args: s2=b s3=x s4=r s5=p
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        addr_of_tid(p, s(3), v(4))
        p.store(imm(0), v(4))
        addr_of_tid(p, s(4), v(5))
        p.store(v(3), v(5))
        addr_of_tid(p, s(5), v(6))
        p.store(v(3), v(6))
        return p

    def _spmv_kernel(self) -> ProgramBuilder:
        # ap[i] = sum_k vals[i,k] * p[cols[i,k]].  args: s2=cols s3=vals s4=p s5=ap
        p = ProgramBuilder()
        p.imul(v(2), v(0), imm(self.ELL))
        addr_of(p, s(2), v(2), v(3))
        addr_of(p, s(3), v(2), v(4))
        p.mov(v(5), fimm(0.0))
        for k in range(self.ELL):
            p.load(v(6), v(3), offset=k * 4)      # column index
            p.load(v(7), v(4), offset=k * 4)      # matrix value
            addr_of(p, s(4), v(6), v(8))
            p.load(v(9), v(8))                    # p[col]
            p.fmac(v(5), v(7), v(9))
        addr_of_tid(p, s(5), v(10))
        p.store(v(5), v(10))
        return p

    def _dot_partial_kernel(self) -> ProgramBuilder:
        # partials[wf] = sum over wavefront of u[i]*w[i].  args: s2=u s3=w s4=partials
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        addr_of_tid(p, s(3), v(4))
        p.load(v(5), v(4))
        p.fmul(v(6), v(3), v(5))
        _emit_butterfly_fadd(p, v(6), v(7))
        p.mov(v(8), s(0))
        addr_of(p, s(4), v(8), v(9))
        p.cmp("eq", v(1), imm(0))
        p.store(v(6), v(9), pred=True)
        return p

    def _dot_final_kernel(self) -> ProgramBuilder:
        # *dst = sum(partials).  args: s2=partials s3=dst address
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        _emit_butterfly_fadd(p, v(3), v(4))
        p.mov(v(5), s(3))
        p.cmp("eq", v(1), imm(0))
        p.store(v(3), v(5), pred=True)
        return p

    def _div_kernel(self) -> ProgramBuilder:
        # *dst = *num / *den.  args: s2=&num s3=&den s4=&dst
        p = ProgramBuilder()
        p.mov(v(2), s(2))
        p.load(v(3), v(2))
        p.mov(v(4), s(3))
        p.load(v(5), v(4))
        p.frcp(v(6), v(5))
        p.fmul(v(6), v(6), v(3))
        p.mov(v(7), s(4))
        p.cmp("eq", v(1), imm(0))
        p.store(v(6), v(7), pred=True)
        return p

    def _copy_scalar_kernel(self) -> ProgramBuilder:
        # *dst = *src.  args: s2=&src s3=&dst
        p = ProgramBuilder()
        p.mov(v(2), s(2))
        p.load(v(3), v(2))
        p.mov(v(4), s(3))
        p.cmp("eq", v(1), imm(0))
        p.store(v(3), v(4), pred=True)
        return p

    def _axpy_kernel(self, op: str) -> ProgramBuilder:
        """args: s2=dst vec, s3=other vec, s4=&scalar.

        op 'x+ap': dst += scalar*other;  op 'r-aq': dst -= scalar*other;
        op 'p=r+bp': dst = other + scalar*dst.
        """
        p = ProgramBuilder()
        p.mov(v(2), s(4))
        p.load(v(3), v(2))                    # scalar
        addr_of_tid(p, s(2), v(4))
        p.load(v(5), v(4))                    # dst element
        addr_of_tid(p, s(3), v(6))
        p.load(v(7), v(6))                    # other element
        if op == "x+ap":
            p.fmac(v(5), v(3), v(7))
            p.store(v(5), v(4))
        elif op == "r-aq":
            p.fmul(v(8), v(3), v(7))
            p.fsub(v(5), v(5), v(8))
            p.store(v(5), v(4))
        elif op == "p=r+bp":
            p.fmul(v(8), v(3), v(5))
            p.fadd(v(8), v(8), v(7))
            p.store(v(8), v(4))
        else:  # pragma: no cover
            raise ValueError(op)
        return p

    # -- driver -------------------------------------------------------------

    def kernels(self) -> Iterator[Launch]:
        n = self.n
        scal = self.base_scal
        rr_a, pap_a, alpha_a = scal, scal + 4, scal + 8
        rrnew_a, beta_a = scal + 12, scal + 16
        init = self._init_kernel().build()
        spmv = self._spmv_kernel().build()
        dot_p = self._dot_partial_kernel().build()
        dot_f = self._dot_final_kernel().build()
        div = self._div_kernel().build()
        cpy = self._copy_scalar_kernel().build()
        ax_x = self._axpy_kernel("x+ap").build()
        ax_r = self._axpy_kernel("r-aq").build()
        ax_p = self._axpy_kernel("p=r+bp").build()

        def dot(u: int, w: int, dst: int, tag: str) -> Iterator[Launch]:
            yield Launch(dot_p, n, [u, w, self.base_partials],
                         name=f"{self.name}.dotp.{tag}")
            yield Launch(dot_f, 16, [self.base_partials, dst],
                         name=f"{self.name}.dotf.{tag}")

        yield Launch(init, n, [self.base_b, self.base_x, self.base_r, self.base_p],
                     name=f"{self.name}.init")
        yield from dot(self.base_r, self.base_r, rr_a, "rr0")
        for it in range(self.ITERS):
            yield Launch(spmv, n, [self.base_cols, self.base_vals, self.base_p,
                                   self.base_ap], name=f"{self.name}.spmv{it}")
            yield from dot(self.base_p, self.base_ap, pap_a, f"pap{it}")
            yield Launch(div, 16, [rr_a, pap_a, alpha_a],
                         name=f"{self.name}.alpha{it}")
            yield Launch(ax_x, n, [self.base_x, self.base_p, alpha_a],
                         name=f"{self.name}.xupd{it}")
            yield Launch(ax_r, n, [self.base_r, self.base_ap, alpha_a],
                         name=f"{self.name}.rupd{it}")
            yield from dot(self.base_r, self.base_r, rrnew_a, f"rr{it}")
            yield Launch(div, 16, [rrnew_a, rr_a, beta_a],
                         name=f"{self.name}.beta{it}")
            yield Launch(cpy, 16, [rrnew_a, rr_a], name=f"{self.name}.rrcp{it}")
            yield Launch(ax_p, n, [self.base_p, self.base_r, beta_a],
                         name=f"{self.name}.pupd{it}")

    # -- reference -----------------------------------------------------------

    def _dot_ref(self, u: np.ndarray, w: np.ndarray) -> np.float32:
        prod = (u * w).astype(np.float32)
        partials = np.array(
            [_butterfly_ref(prod[k * 16 : (k + 1) * 16])
             for k in range(self.n // 16)],
            dtype=np.float32,
        )
        return _butterfly_ref(partials)

    def expected(self) -> Dict[str, np.ndarray]:
        one = np.float32(1.0)
        x = np.zeros(self.n, dtype=np.float32)
        r = self.b.copy()
        pv = self.b.copy()
        rr = self._dot_ref(r, r)
        for _ in range(self.ITERS):
            ap = np.zeros(self.n, dtype=np.float32)
            for k in range(self.ELL):
                ap = ap + self.vals[:, k] * pv[self.cols[:, k]]
            pap = self._dot_ref(pv, ap)
            alpha = np.float32(one / pap) * rr
            x = x + alpha * pv
            r = r - alpha * ap
            rrnew = self._dot_ref(r, r)
            beta = np.float32(one / rr) * rrnew
            rr = rrnew
            pv = r + beta * pv
        return {"x": x}


class CoMD(Workload):
    """O(N^2) cutoff pair-force molecular dynamics, 64 particles, 2 steps."""

    name = "comd"
    outputs = ("px", "py", "pz")
    N = 64
    EPS = 0.01
    CUTOFF2 = 4.0
    DT = 0.001

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.pos = (self.rng.random((3, n), dtype=np.float32) * 4).astype(
            np.float32
        )
        names = ["px", "py", "pz", "fx", "fy", "fz"]
        self.bases = {nm: mem.alloc(nm, n * 4) for nm in names}
        for axis, nm in enumerate(("px", "py", "pz")):
            mem.view_f32(nm)[:] = self.pos[axis]

    def _force_kernel(self) -> ProgramBuilder:
        # args: s2..s4 = px,py,pz; s5..s7 = fx,fy,fz
        p = ProgramBuilder()
        for axis in range(3):
            addr_of_tid(p, s(2 + axis), v(14))
            p.load(v(2 + axis), v(14))        # own coordinates v2..v4
            p.mov(v(5 + axis), fimm(0.0))     # force acc v5..v7
        p.s_mov(s(10), imm(0))
        p.label("j")
        p.mov(v(16), s(10))
        for axis in range(3):
            addr_of(p, s(2 + axis), v(16), v(14))
            p.load(v(17), v(14))              # other coordinate
            p.fsub(v(8 + axis), v(17), v(2 + axis))  # dx,dy,dz in v8..v10
        p.fmul(v(11), v(8), v(8))
        p.fmac(v(11), v(9), v(9))
        p.fmac(v(11), v(10), v(10))
        p.fadd(v(11), v(11), fimm(self.EPS))  # r2 (softened)
        p.frcp(v(12), v(11))
        p.fmul(v(12), v(12), v(12))           # simplified repulsive kernel
        p.fcmp("lt", v(11), fimm(self.CUTOFF2))
        for axis in range(3):
            p.fmul(v(13), v(12), v(8 + axis))
            p.cndmask(v(13), v(13), fimm(0.0))
            p.fadd(v(5 + axis), v(5 + axis), v(13))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("lt", s(10), imm(self.N))
        p.cbranch("j")
        for axis in range(3):
            addr_of_tid(p, s(5 + axis), v(14))
            p.store(v(5 + axis), v(14))
        return p

    def _update_kernel(self) -> ProgramBuilder:
        # pos += dt * force.  args: s2..s4 = px..pz, s5..s7 = fx..fz
        p = ProgramBuilder()
        for axis in range(3):
            addr_of_tid(p, s(2 + axis), v(14))
            p.load(v(2), v(14))
            addr_of_tid(p, s(5 + axis), v(15))
            p.load(v(3), v(15))
            p.fmac(v(2), v(3), fimm(self.DT))
            p.store(v(2), v(14))
        return p

    def kernels(self) -> Iterator[Launch]:
        force = self._force_kernel().build()
        update = self._update_kernel().build()
        args = [self.bases[nm] for nm in ("px", "py", "pz", "fx", "fy", "fz")]
        for step in range(2):
            yield Launch(force, self.N, args, name=f"{self.name}.force{step}")
            yield Launch(update, self.N, args, name=f"{self.name}.move{step}")

    def expected(self) -> Dict[str, np.ndarray]:
        pos = self.pos.copy()
        eps = np.float32(self.EPS)
        cut = np.float32(self.CUTOFF2)
        dt = np.float32(self.DT)
        one = np.float32(1.0)
        zero = np.float32(0.0)
        for _ in range(2):
            f = np.zeros_like(pos)
            for j in range(self.N):
                d = pos[:, j : j + 1] - pos
                r2 = d[0] * d[0]
                r2 = r2 + d[1] * d[1]
                r2 = r2 + d[2] * d[2]
                r2 = r2 + eps
                sj = one / r2
                sj = sj * sj
                m = r2 < cut
                for axis in range(3):
                    f[axis] = f[axis] + np.where(m, sj * d[axis], zero)
            pos = pos + f * dt
        return {nm: pos[a] for a, nm in enumerate(("px", "py", "pz"))}
