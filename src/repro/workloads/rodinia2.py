"""Additional Rodinia-style workloads: backprop, kmeans, pathfinder, nw.

These widen the access-pattern spectrum of the evaluation set: dense
matrix-vector with a nonlinearity (backprop), data-dependent gather +
masked reductions (kmeans), row-sequential dynamic programming
(pathfinder), and anti-diagonal wavefront dynamic programming (nw).
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..arch.gpu import Launch
from ..arch.isa import ProgramBuilder, fimm, imm, s, v
from ..arch.memory import GlobalMemory
from .base import Workload
from .util import addr_of, addr_of_tid

__all__ = ["Backprop", "KMeans", "Pathfinder", "NeedlemanWunsch"]


class Backprop(Workload):
    """Two-layer neural net forward pass + outer-product weight update."""

    name = "backprop"
    outputs = ("hidden", "w1")
    N_IN = 32
    N_HID = 16
    ETA = 0.25

    def setup(self, mem: GlobalMemory) -> None:
        self.x = (self.rng.random(self.N_IN, dtype=np.float32) - 0.5).astype(
            np.float32
        )
        self.w = (
            self.rng.random((self.N_IN, self.N_HID), dtype=np.float32) - 0.5
        ).astype(np.float32)
        self.err = (self.rng.random(self.N_HID, dtype=np.float32) - 0.5).astype(
            np.float32
        )
        self.base_x = mem.alloc("x", self.N_IN * 4)
        self.base_w = mem.alloc("w1", self.N_IN * self.N_HID * 4)
        self.base_h = mem.alloc("hidden", self.N_HID * 4)
        self.base_e = mem.alloc("err", self.N_HID * 4)
        mem.view_f32("x")[:] = self.x
        mem.view_f32("w1")[:] = self.w.ravel()
        mem.view_f32("err")[:] = self.err

    def _forward_kernel(self) -> ProgramBuilder:
        # hidden[j] = sigmoid(sum_i x[i] * w[i][j]); thread j.
        p = ProgramBuilder()
        p.mov(v(2), fimm(0.0))
        p.s_mov(s(10), imm(0))
        p.label("i")
        p.mov(v(3), s(10))
        addr_of(p, s(2), v(3), v(4))
        p.load(v(5), v(4))                 # x[i]
        p.s_imul(s(11), s(10), imm(self.N_HID))
        p.iadd(v(6), v(0), s(11))          # i*N_HID + j
        addr_of(p, s(3), v(6), v(7))
        p.load(v(8), v(7))                 # w[i][j]
        p.fmac(v(2), v(5), v(8))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("lt", s(10), imm(self.N_IN))
        p.cbranch("i")
        # sigmoid(a) = 1 / (1 + exp(-a))
        p.fsub(v(9), fimm(0.0), v(2))
        p.fexp(v(9), v(9))
        p.fadd(v(9), v(9), fimm(1.0))
        p.frcp(v(10), v(9))
        addr_of_tid(p, s(4), v(11))
        p.store(v(10), v(11))
        return p

    def _update_kernel(self) -> ProgramBuilder:
        # w[i][j] += eta * x[i] * err[j]; thread = i*N_HID + j.
        p = ProgramBuilder()
        p.shr(v(2), v(0), imm(4))          # i  (N_HID = 16)
        p.iand(v(3), v(0), imm(15))        # j
        addr_of(p, s(2), v(2), v(4))
        p.load(v(5), v(4))                 # x[i]
        addr_of(p, s(3), v(3), v(6))
        p.load(v(7), v(6))                 # err[j]
        p.fmul(v(8), v(5), v(7))
        addr_of_tid(p, s(4), v(9))
        p.load(v(10), v(9))                # w[i][j]
        p.fmac(v(10), v(8), fimm(self.ETA))
        p.store(v(10), v(9))
        return p

    def kernels(self) -> Iterator[Launch]:
        yield Launch(
            self._forward_kernel().build(), self.N_HID,
            [self.base_x, self.base_w, self.base_h],
            name=f"{self.name}.forward",
        )
        yield Launch(
            self._update_kernel().build(), self.N_IN * self.N_HID,
            [self.base_x, self.base_e, self.base_w],
            name=f"{self.name}.update",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        one = np.float32(1.0)
        acc = np.zeros(self.N_HID, dtype=np.float32)
        for i in range(self.N_IN):
            acc = acc + self.x[i] * self.w[i]
        hidden = one / (np.exp(-acc).astype(np.float32) + one)
        w = self.w + (self.x[:, None] * self.err[None, :]) * np.float32(self.ETA)
        return {"hidden": hidden.astype(np.float32), "w1": w.astype(np.float32)}


class KMeans(Workload):
    """K-means: assignment + masked-reduction centroid update (2 iterations)."""

    name = "kmeans"
    outputs = ("assign", "cx", "cy")
    N = 128
    K = 4
    ITERS = 2

    def setup(self, mem: GlobalMemory) -> None:
        self.px = (self.rng.random(self.N, dtype=np.float32) * 10).astype(np.float32)
        self.py = (self.rng.random(self.N, dtype=np.float32) * 10).astype(np.float32)
        self.cx0 = self.px[: self.K].copy()
        self.cy0 = self.py[: self.K].copy()
        self.base_px = mem.alloc("px", self.N * 4)
        self.base_py = mem.alloc("py", self.N * 4)
        self.base_cx = mem.alloc("cx", 16 * 4)
        self.base_cy = mem.alloc("cy", 16 * 4)
        self.base_assign = mem.alloc("assign", self.N * 4)
        mem.view_f32("px")[:] = self.px
        mem.view_f32("py")[:] = self.py
        mem.view_f32("cx")[: self.K] = self.cx0
        mem.view_f32("cy")[: self.K] = self.cy0

    def _assign_kernel(self) -> ProgramBuilder:
        # assign[t] = argmin_k dist2(point t, centroid k)
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))                 # px
        addr_of_tid(p, s(3), v(2))
        p.load(v(4), v(2))                 # py
        p.mov(v(5), fimm(1e30))            # best distance
        p.mov(v(6), imm(0))                # best k
        p.s_mov(s(10), imm(0))
        p.label("k")
        p.mov(v(7), s(10))
        addr_of(p, s(4), v(7), v(8))
        p.load(v(9), v(8))                 # cx[k]
        addr_of(p, s(5), v(7), v(8))
        p.load(v(10), v(8))                # cy[k]
        p.fsub(v(9), v(9), v(3))
        p.fsub(v(10), v(10), v(4))
        p.fmul(v(11), v(9), v(9))
        p.fmac(v(11), v(10), v(10))        # dist2
        p.fcmp("lt", v(11), v(5))
        p.cndmask(v(5), v(11), v(5))
        p.cndmask(v(6), v(7), v(6))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("lt", s(10), imm(self.K))
        p.cbranch("k")
        addr_of_tid(p, s(6), v(12))
        p.store(v(6), v(12))
        return p

    def _update_kernel(self) -> ProgramBuilder:
        # Thread k < K: centroid k = mean of its points (sequential scan).
        p = ProgramBuilder()
        p.cmp("lt", v(0), imm(self.K))
        p.mov(v(2), fimm(0.0))             # sum x
        p.mov(v(3), fimm(0.0))             # sum y
        p.mov(v(4), fimm(0.0))             # count
        p.s_mov(s(10), imm(0))
        p.label("pt")
        p.mov(v(5), s(10))
        addr_of(p, s(6), v(5), v(6))
        p.load(v(7), v(6))                 # assign[i]
        addr_of(p, s(2), v(5), v(6))
        p.load(v(8), v(6))                 # px[i]
        addr_of(p, s(3), v(5), v(6))
        p.load(v(9), v(6))                 # py[i]
        p.cmp("eq", v(7), v(0))            # mine?
        p.cndmask(v(10), v(8), fimm(0.0))
        p.fadd(v(2), v(2), v(10))
        p.cndmask(v(10), v(9), fimm(0.0))
        p.fadd(v(3), v(3), v(10))
        p.cndmask(v(10), fimm(1.0), fimm(0.0))
        p.fadd(v(4), v(4), v(10))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("lt", s(10), imm(self.N))
        p.cbranch("pt")
        p.fmax(v(4), v(4), fimm(1.0))      # avoid empty-cluster divide
        p.frcp(v(11), v(4))
        p.fmul(v(2), v(2), v(11))
        p.fmul(v(3), v(3), v(11))
        p.cmp("lt", v(0), imm(self.K))
        addr_of_tid(p, s(4), v(12))
        p.store(v(2), v(12), pred=True)
        addr_of_tid(p, s(5), v(12))
        p.store(v(3), v(12), pred=True)
        return p

    def kernels(self) -> Iterator[Launch]:
        args = [
            self.base_px, self.base_py, self.base_cx, self.base_cy,
        ]
        assign = self._assign_kernel().build()
        update = self._update_kernel().build()
        for it in range(self.ITERS):
            yield Launch(
                assign, self.N,
                [self.base_px, self.base_py, self.base_cx, self.base_cy,
                 self.base_assign],
                name=f"{self.name}.assign{it}",
            )
            yield Launch(
                update, 16,
                [self.base_px, self.base_py, self.base_cx, self.base_cy,
                 self.base_assign],
                name=f"{self.name}.update{it}",
            )

    def expected(self) -> Dict[str, np.ndarray]:
        one, zero = np.float32(1.0), np.float32(0.0)
        cx, cy = self.cx0.copy(), self.cy0.copy()
        assign = np.zeros(self.N, dtype=np.uint32)
        for _ in range(self.ITERS):
            best = np.full(self.N, np.float32(1e30))
            assign = np.zeros(self.N, dtype=np.uint32)
            for k in range(self.K):
                dx = cx[k] - self.px
                dy = cy[k] - self.py
                d2 = dx * dx + dy * dy
                better = d2 < best
                best = np.where(better, d2, best)
                assign = np.where(better, np.uint32(k), assign)
            ncx, ncy = cx.copy(), cy.copy()
            for k in range(self.K):
                sx = sy = cnt = zero
                for i in range(self.N):
                    mine = assign[i] == k
                    sx = sx + (self.px[i] if mine else zero)
                    sy = sy + (self.py[i] if mine else zero)
                    cnt = cnt + (one if mine else zero)
                cnt = max(cnt, one)
                inv = one / np.float32(cnt)
                ncx[k], ncy[k] = sx * inv, sy * inv
            cx, cy = ncx, ncy
        cx16 = np.zeros(16, dtype=np.float32)
        cy16 = np.zeros(16, dtype=np.float32)
        cx16[: self.K], cy16[: self.K] = cx, cy
        return {"assign": assign, "cx": cx16, "cy": cy16}


class Pathfinder(Workload):
    """Row-by-row dynamic programming over a 16x32 cost grid."""

    name = "pathfinder"
    outputs = ("dst",)
    ROWS = 16
    COLS = 32

    def setup(self, mem: GlobalMemory) -> None:
        self.grid = self.rng.integers(
            0, 10, (self.ROWS, self.COLS), dtype=np.uint32
        )
        self.base_data = mem.alloc("data", self.ROWS * self.COLS * 4)
        self.base_src = mem.alloc("src", self.COLS * 4)
        self.base_dst = mem.alloc("dst", self.COLS * 4)
        mem.view_u32("data")[:] = self.grid.ravel()
        mem.view_u32("src")[:] = self.grid[0]

    def _step_kernel(self) -> ProgramBuilder:
        # dst[j] = data[row][j] + min(src[j-1], src[j], src[j+1]); args:
        # s2=data row base, s3=src, s4=dst
        p = ProgramBuilder()
        jmax = self.COLS - 1
        p.isub(v(2), v(0), imm(1))
        p.imax(v(2), v(2), imm(0))         # j-1 clamped
        p.iadd(v(3), v(0), imm(1))
        p.imin(v(3), v(3), imm(jmax))      # j+1 clamped
        addr_of(p, s(3), v(2), v(4))
        p.load(v(5), v(4))                 # src[j-1]
        addr_of_tid(p, s(3), v(4))
        p.load(v(6), v(4))                 # src[j]
        addr_of(p, s(3), v(3), v(4))
        p.load(v(7), v(4))                 # src[j+1]
        p.imin(v(5), v(5), v(6))
        p.imin(v(5), v(5), v(7))
        addr_of_tid(p, s(2), v(8))
        p.load(v(9), v(8))                 # data[row][j]
        p.iadd(v(9), v(9), v(5))
        addr_of_tid(p, s(4), v(10))
        p.store(v(9), v(10))
        return p

    def kernels(self) -> Iterator[Launch]:
        prog = self._step_kernel().build()
        src, dst = self.base_src, self.base_dst
        for row in range(1, self.ROWS):
            yield Launch(
                prog, self.COLS,
                [self.base_data + row * self.COLS * 4, src, dst],
                name=f"{self.name}.row{row}",
            )
            src, dst = dst, src

    def expected(self) -> Dict[str, np.ndarray]:
        cur = self.grid[0].astype(np.int64)
        for row in range(1, self.ROWS):
            left = np.empty_like(cur)
            left[0], left[1:] = cur[0], cur[:-1]
            right = np.empty_like(cur)
            right[-1], right[:-1] = cur[-1], cur[1:]
            cur = self.grid[row] + np.minimum(np.minimum(left, cur), right)
        # ROWS-1 = 15 steps: result lands in 'dst' after odd step counts.
        return {"dst": cur.astype(np.uint32)}


class NeedlemanWunsch(Workload):
    """Anti-diagonal wavefront DP (sequence alignment scores), 16x16."""

    name = "nw"
    outputs = ("score",)
    N = 16
    PENALTY = 2

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.seq_a = self.rng.integers(0, 4, n, dtype=np.uint32)
        self.seq_b = self.rng.integers(0, 4, n, dtype=np.uint32)
        self.base_a = mem.alloc("seqa", n * 4)
        self.base_b = mem.alloc("seqb", n * 4)
        # Score matrix (n+1)x(n+1), host-initialised boundary.
        self.dim = n + 1
        self.base_s = mem.alloc("score", self.dim * self.dim * 4)
        mem.view_u32("seqa")[:] = self.seq_a
        mem.view_u32("seqb")[:] = self.seq_b
        sm = mem.view_i32("score").reshape(self.dim, self.dim)
        sm[0, :] = -self.PENALTY * np.arange(self.dim)
        sm[:, 0] = -self.PENALTY * np.arange(self.dim)

    def _diag_kernel(self) -> ProgramBuilder:
        # Thread t handles cell (i=t+1, j=d-t) of diagonal d (arg s4),
        # active while 1 <= j <= N.
        p = ProgramBuilder()
        dimlog = 0
        while (1 << dimlog) < self.dim:
            dimlog += 1
        # We index the score matrix with i*dim + j computed via multiply
        # (dim = 17 is not a power of two).
        p.iadd(v(2), v(0), imm(1))         # i
        p.mov(v(3), s(4))
        p.isub(v(3), v(3), v(0))           # j = d - t (>= 1 by launch size)
        p.mov(v(4), v(3))
        p.imax(v(4), v(4), imm(1))
        p.imin(v(4), v(4), imm(self.N))    # clamped j for safe addressing
        # match score: a[i-1] == b[j-1] ? +1 : -1
        addr_of(p, s(2), v(0), v(5))
        p.load(v(6), v(5))                 # seq_a[i-1]
        p.isub(v(7), v(4), imm(1))
        addr_of(p, s(3), v(7), v(5))
        p.load(v(8), v(5))                 # seq_b[j-1]
        p.imul(v(9), v(2), imm(self.dim))
        p.iadd(v(10), v(9), v(4))          # i*dim + j
        p.isub(v(11), v(10), imm(self.dim + 1))  # (i-1, j-1)
        addr_of(p, s(5), v(11), v(5))
        p.load(v(12), v(5))                # diag
        p.isub(v(11), v(10), imm(self.dim))      # (i-1, j)
        addr_of(p, s(5), v(11), v(5))
        p.load(v(13), v(5))                # up
        p.isub(v(11), v(10), imm(1))             # (i, j-1)
        addr_of(p, s(5), v(11), v(5))
        p.load(v(14), v(5))                # left
        p.cmp("eq", v(6), v(8))
        p.cndmask(v(15), imm(1), imm(-1 & 0xFFFFFFFF))
        p.iadd(v(12), v(12), v(15))        # diag + match
        p.isub(v(13), v(13), imm(self.PENALTY))
        p.isub(v(14), v(14), imm(self.PENALTY))
        p.imax(v(12), v(12), v(13))
        p.imax(v(12), v(12), v(14))
        # Store only where j <= N (threads past the diagonal end are idle;
        # j >= 1 holds by construction of the launch size).
        p.cmp("le", v(3), imm(self.N))
        addr_of(p, s(5), v(10), v(16))
        p.store(v(12), v(16), pred=True)
        return p

    def kernels(self) -> Iterator[Launch]:
        prog = self._diag_kernel().build()
        for d in range(1, 2 * self.N):
            # Threads t with i=t+1 in range; predication handles j bounds.
            n_threads = min(self.N, d)
            yield Launch(
                prog, n_threads,
                [self.base_a, self.base_b, d, self.base_s],
                name=f"{self.name}.d{d}",
            )

    def expected(self) -> Dict[str, np.ndarray]:
        n, dim = self.N, self.dim
        sm = np.zeros((dim, dim), dtype=np.int64)
        sm[0, :] = -self.PENALTY * np.arange(dim)
        sm[:, 0] = -self.PENALTY * np.arange(dim)
        for i in range(1, dim):
            for j in range(1, dim):
                match = 1 if self.seq_a[i - 1] == self.seq_b[j - 1] else -1
                sm[i, j] = max(
                    sm[i - 1, j - 1] + match,
                    sm[i - 1, j] - self.PENALTY,
                    sm[i, j - 1] - self.PENALTY,
                )
        return {"score": (sm & 0xFFFFFFFF).astype(np.uint32)}
