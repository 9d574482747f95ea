"""Rodinia-style workloads: SRAD and HotSpot (Sec. VI-A, Fig. 10).

``srad`` is speckle-reducing anisotropic diffusion (two kernels per
iteration: diffusion coefficients, then the update), ``hotspot`` is the
thermal stencil.  Both run a few ping-pong iterations over a 32x32 float32
grid, giving the phase-varying, stencil-shaped access patterns the paper's
cache results depend on.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..arch.gpu import Launch
from ..arch.isa import ProgramBuilder, fimm, imm, s, v
from ..arch.memory import GlobalMemory
from .base import Workload
from .util import addr_of

__all__ = ["Srad", "Hotspot"]


def _emit_grid_coords(p: ProgramBuilder, n_log2: int) -> None:
    """v2 = row, v3 = col, v4..v7 = clamped N/S/W/E neighbour coords."""
    size = (1 << n_log2) - 1
    p.shr(v(2), v(0), imm(n_log2))
    p.iand(v(3), v(0), imm(size))
    p.isub(v(4), v(2), imm(1))
    p.imax(v(4), v(4), imm(0))          # iN
    p.iadd(v(5), v(2), imm(1))
    p.imin(v(5), v(5), imm(size))       # iS
    p.isub(v(6), v(3), imm(1))
    p.imax(v(6), v(6), imm(0))          # jW
    p.iadd(v(7), v(3), imm(1))
    p.imin(v(7), v(7), imm(size))       # jE


def _emit_idx(p: ProgramBuilder, row, col, dst, n_log2: int) -> None:
    p.shl(dst, row, imm(n_log2))
    p.iadd(dst, dst, col)


class Srad(Workload):
    """Speckle-reducing anisotropic diffusion, 32x32, 2 iterations."""

    name = "srad"
    outputs = ("j0",)
    N = 32
    LAMBDA = 0.5
    INV_Q0SQR = 2.0
    ITERS = 2

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.img = (self.rng.random((n, n), dtype=np.float32) + 0.1).astype(
            np.float32
        )
        self.base_j0 = mem.alloc("j0", n * n * 4)
        self.base_j1 = mem.alloc("j1", n * n * 4)
        self.base_c = mem.alloc("c", n * n * 4)
        mem.view_f32("j0")[:] = self.img.ravel()

    def _coeff_kernel(self) -> ProgramBuilder:
        """c = 1 / (1 + G2/q0^2) from the 4-neighbour gradients of src."""
        log2 = 5
        p = ProgramBuilder()
        _emit_grid_coords(p, log2)
        _emit_idx(p, v(2), v(3), v(8), log2)
        addr_of(p, s(2), v(8), v(14))
        p.load(v(9), v(14))                 # Jc
        for coord_row, coord_col, dreg in (
            (v(4), v(3), 10), (v(5), v(3), 11), (v(2), v(6), 12), (v(2), v(7), 13),
        ):
            _emit_idx(p, coord_row, coord_col, v(15), log2)
            addr_of(p, s(2), v(15), v(14))
            p.load(v(dreg), v(14))
            p.fsub(v(dreg), v(dreg), v(9))  # directional derivative
        p.fmul(v(16), v(10), v(10))
        p.fmac(v(16), v(11), v(11))
        p.fmac(v(16), v(12), v(12))
        p.fmac(v(16), v(13), v(13))         # G2
        p.fmul(v(17), v(16), fimm(self.INV_Q0SQR))
        p.fadd(v(17), v(17), fimm(1.0))
        p.frcp(v(18), v(17))                # diffusion coefficient
        addr_of(p, s(3), v(8), v(14))
        p.store(v(18), v(14))
        return p

    def _update_kernel(self) -> ProgramBuilder:
        """dst = src + 0.25*lambda*div(c * grad)."""
        log2 = 5
        p = ProgramBuilder()
        _emit_grid_coords(p, log2)
        _emit_idx(p, v(2), v(3), v(8), log2)
        addr_of(p, s(2), v(8), v(14))
        p.load(v(9), v(14))                 # Jc
        for coord_row, coord_col, dreg in (
            (v(4), v(3), 10), (v(5), v(3), 11), (v(2), v(6), 12), (v(2), v(7), 13),
        ):
            _emit_idx(p, coord_row, coord_col, v(15), log2)
            addr_of(p, s(2), v(15), v(14))
            p.load(v(dreg), v(14))
            p.fsub(v(dreg), v(dreg), v(9))
        addr_of(p, s(3), v(8), v(14))
        p.load(v(16), v(14))                # cC
        _emit_idx(p, v(5), v(3), v(15), log2)
        addr_of(p, s(3), v(15), v(14))
        p.load(v(17), v(14))                # cS
        _emit_idx(p, v(2), v(7), v(15), log2)
        addr_of(p, s(3), v(15), v(14))
        p.load(v(18), v(14))                # cE
        # D = cC*(dN + dW) + cS*dS + cE*dE
        p.fadd(v(19), v(10), v(12))
        p.fmul(v(19), v(19), v(16))
        p.fmac(v(19), v(17), v(11))
        p.fmac(v(19), v(18), v(13))
        p.mov(v(20), v(9))
        p.fmac(v(20), v(19), fimm(0.25 * self.LAMBDA))
        addr_of(p, s(4), v(8), v(14))
        p.store(v(20), v(14))
        return p

    def kernels(self) -> Iterator[Launch]:
        coeff = self._coeff_kernel().build()
        update = self._update_kernel().build()
        n_threads = self.N * self.N
        bufs = [self.base_j0, self.base_j1]
        for it in range(self.ITERS):
            src, dst = bufs[it % 2], bufs[(it + 1) % 2]
            yield Launch(coeff, n_threads, [src, self.base_c],
                         name=f"{self.name}.coeff{it}")
            yield Launch(update, n_threads, [src, self.base_c, dst],
                         name=f"{self.name}.update{it}")

    def expected(self) -> Dict[str, np.ndarray]:
        n = self.N
        img = self.img.copy()
        lam = np.float32(0.25 * self.LAMBDA)
        invq = np.float32(self.INV_Q0SQR)
        one = np.float32(1.0)
        idx = np.arange(n)
        iN, iS = np.maximum(idx - 1, 0), np.minimum(idx + 1, n - 1)
        for _ in range(self.ITERS):
            dN = img[iN, :] - img
            dS = img[iS, :] - img
            dW = img[:, iN] - img
            dE = img[:, iS] - img
            g2 = dN * dN + dS * dS + dW * dW + dE * dE
            c = one / (g2 * invq + one)
            d = c * (dN + dW) + c[iS, :] * dS + c[:, iS] * dE
            img = img + d * lam
        return {"j0": img.astype(np.float32)}


class Hotspot(Workload):
    """Thermal simulation stencil, 32x32, 4 ping-pong iterations."""

    name = "hotspot"
    outputs = ("t0",)
    N = 32
    K_DIFF = 0.1
    K_POWER = 0.05
    ITERS = 4

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.temp = (self.rng.random((n, n), dtype=np.float32) * 20 + 300).astype(
            np.float32
        )
        self.power = self.rng.random((n, n), dtype=np.float32)
        self.base_t0 = mem.alloc("t0", n * n * 4)
        self.base_t1 = mem.alloc("t1", n * n * 4)
        self.base_p = mem.alloc("p", n * n * 4)
        mem.view_f32("t0")[:] = self.temp.ravel()
        mem.view_f32("p")[:] = self.power.ravel()

    def _kernel(self) -> ProgramBuilder:
        log2 = 5
        p = ProgramBuilder()
        _emit_grid_coords(p, log2)
        _emit_idx(p, v(2), v(3), v(8), log2)
        addr_of(p, s(2), v(8), v(14))
        p.load(v(9), v(14))                 # Tc
        p.mov(v(10), fimm(0.0))
        for coord_row, coord_col in (
            (v(4), v(3)), (v(5), v(3)), (v(2), v(6)), (v(2), v(7)),
        ):
            _emit_idx(p, coord_row, coord_col, v(15), log2)
            addr_of(p, s(2), v(15), v(14))
            p.load(v(11), v(14))
            p.fadd(v(10), v(10), v(11))     # neighbour sum
        p.fmul(v(12), v(9), fimm(4.0))
        p.fsub(v(10), v(10), v(12))         # laplacian
        addr_of(p, s(3), v(8), v(14))
        p.load(v(13), v(14))                # power
        p.mov(v(16), v(9))
        p.fmac(v(16), v(10), fimm(self.K_DIFF))
        p.fmac(v(16), v(13), fimm(self.K_POWER))
        addr_of(p, s(4), v(8), v(14))
        p.store(v(16), v(14))
        return p

    def kernels(self) -> Iterator[Launch]:
        prog = self._kernel().build()
        n_threads = self.N * self.N
        bufs = [self.base_t0, self.base_t1]
        for it in range(self.ITERS):
            src, dst = bufs[it % 2], bufs[(it + 1) % 2]
            yield Launch(prog, n_threads, [src, self.base_p, dst],
                         name=f"{self.name}.step{it}")

    def expected(self) -> Dict[str, np.ndarray]:
        n = self.N
        t = self.temp.copy()
        kd, kp = np.float32(self.K_DIFF), np.float32(self.K_POWER)
        idx = np.arange(n)
        iN, iS = np.maximum(idx - 1, 0), np.minimum(idx + 1, n - 1)
        for _ in range(self.ITERS):
            nsum = ((t[iN, :] + t[iS, :]) + t[:, iN]) + t[:, iS]
            lap = nsum - t * np.float32(4.0)
            t = t + lap * kd + self.power * kp
        return {"t0": t.astype(np.float32)}
