"""AMD OpenCL sample suite workloads (Sec. VI-A, Table II).

Re-implementations of MatrixMultiplication, MatrixTranspose, PrefixSum,
ScanLargeArrays, Histogram, FastWalshTransform, DwtHaar1D, DCT and
RecursiveGaussian for the :mod:`repro.arch` ISA.  Each carries an exact
(float32-faithful) numpy reference.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np

from ..arch.gpu import Launch
from ..arch.isa import ProgramBuilder, fimm, imm, s, v
from ..arch.memory import GlobalMemory
from .base import Workload
from .util import addr_of, addr_of_tid

__all__ = [
    "MatrixMultiplication",
    "MatrixTranspose",
    "PrefixSum",
    "ScanLargeArrays",
    "Histogram",
    "FastWalshTransform",
    "DwtHaar1D",
    "Dct",
    "RecursiveGaussian",
]


class MatrixMultiplication(Workload):
    """C = A x B, 16x16 float32, one thread per output element."""

    name = "matmul"
    outputs = ("c",)
    N = 16

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.a = self.rng.random((n, n), dtype=np.float32)
        self.b = self.rng.random((n, n), dtype=np.float32)
        self.base_a = mem.alloc("a", n * n * 4)
        self.base_b = mem.alloc("b", n * n * 4)
        self.base_c = mem.alloc("c", n * n * 4)
        mem.view_f32("a")[:] = self.a.ravel()
        mem.view_f32("b")[:] = self.b.ravel()

    def kernels(self) -> Iterator[Launch]:
        p = ProgramBuilder()
        p.shr(v(2), v(0), imm(4))          # row
        p.iand(v(3), v(0), imm(15))        # col
        p.shl(v(4), v(2), imm(4))          # row*16
        p.mov(v(5), fimm(0.0))             # acc
        p.s_mov(s(10), imm(0))
        p.label("k")
        p.iadd(v(6), v(4), s(10))          # row*16 + k
        addr_of(p, s(2), v(6), v(7))
        p.load(v(8), v(7))                 # A[row][k]
        p.s_shl(s(11), s(10), imm(4))
        p.iadd(v(6), v(3), s(11))          # k*16 + col
        addr_of(p, s(3), v(6), v(7))
        p.load(v(9), v(7))                 # B[k][col]
        p.fmac(v(5), v(8), v(9))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("lt", s(10), imm(self.N))
        p.cbranch("k")
        addr_of_tid(p, s(4), v(7))
        p.store(v(5), v(7))
        yield Launch(
            p.build(), self.N * self.N,
            [self.base_a, self.base_b, self.base_c], name=self.name,
        )

    def expected(self) -> Dict[str, np.ndarray]:
        acc = np.zeros((self.N, self.N), dtype=np.float32)
        for k in range(self.N):
            acc = acc + self.a[:, k : k + 1] * self.b[k : k + 1, :]
        return {"c": acc}


class MatrixTranspose(Workload):
    """out = in.T, 32x32 uint32 (strided writes stress index locality)."""

    name = "transpose"
    outputs = ("out",)
    N = 32

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.x = self.rng.integers(0, 1 << 31, (n, n), dtype=np.uint32)
        self.base_in = mem.alloc("in", n * n * 4)
        self.base_out = mem.alloc("out", n * n * 4)
        mem.view_u32("in")[:] = self.x.ravel()

    def kernels(self) -> Iterator[Launch]:
        p = ProgramBuilder()
        p.shr(v(2), v(0), imm(5))          # row
        p.iand(v(3), v(0), imm(31))        # col
        addr_of_tid(p, s(2), v(4))
        p.load(v(5), v(4))
        p.shl(v(6), v(3), imm(5))          # col*32
        p.iadd(v(6), v(6), v(2))           # col*32 + row
        addr_of(p, s(3), v(6), v(7))
        p.store(v(5), v(7))
        yield Launch(
            p.build(), self.N * self.N, [self.base_in, self.base_out],
            name=self.name,
        )

    def expected(self) -> Dict[str, np.ndarray]:
        return {"out": self.x.T.copy()}


def emit_wavefront_scan(p: ProgramBuilder, acc, tmp) -> None:
    """Inclusive Hillis-Steele scan of ``acc`` across the 16 lanes."""
    for d in (1, 2, 4, 8):
        p.shuffle_up(tmp, acc, d)
        p.iadd(acc, acc, tmp)


class PrefixSum(Workload):
    """Inclusive prefix sum of 256 uint32 (shuffle-based, 3 passes)."""

    name = "prefixsum"
    outputs = ("out",)
    N = 256

    def setup(self, mem: GlobalMemory) -> None:
        self.x = self.rng.integers(0, 1000, self.N, dtype=np.uint32)
        self.base_in = mem.alloc("in", self.N * 4)
        self.base_out = mem.alloc("out", self.N * 4)
        self.base_sums = mem.alloc("sums", (self.N // 16) * 4)
        mem.view_u32("in")[:] = self.x

    def kernels(self) -> Iterator[Launch]:
        n_wf = self.N // 16
        # Pass 1: intra-wavefront inclusive scan + block totals.
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        emit_wavefront_scan(p, v(3), v(4))
        addr_of_tid(p, s(3), v(5))
        p.store(v(3), v(5))
        p.mov(v(6), s(0))
        addr_of(p, s(4), v(6), v(7))
        p.cmp("eq", v(1), imm(15))
        p.store(v(3), v(7), pred=True)
        yield Launch(
            p.build(), self.N,
            [self.base_in, self.base_out, self.base_sums],
            name=f"{self.name}.scan",
        )
        # Pass 2: exclusive scan of the block totals (single wavefront).
        p = ProgramBuilder()
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2))
        emit_wavefront_scan(p, v(3), v(4))
        p.shuffle_up(v(5), v(3), 1)        # exclusive
        addr_of_tid(p, s(2), v(2))
        p.store(v(5), v(2))
        yield Launch(
            p.build(), n_wf, [self.base_sums], name=f"{self.name}.blocks"
        )
        # Pass 3: add block offsets.
        p = ProgramBuilder()
        p.mov(v(2), s(0))
        addr_of(p, s(3), v(2), v(3))
        p.load(v(4), v(3))                 # block offset
        addr_of_tid(p, s(2), v(5))
        p.load(v(6), v(5))
        p.iadd(v(6), v(6), v(4))
        p.store(v(6), v(5))
        yield Launch(
            p.build(), self.N, [self.base_out, self.base_sums],
            name=f"{self.name}.apply",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        return {"out": np.cumsum(self.x.astype(np.uint64)).astype(np.uint32)}


class ScanLargeArrays(Workload):
    """Inclusive scan of 512 uint32 with per-lane sequential chunks of 8."""

    name = "scan"
    outputs = ("out",)
    N = 512
    CHUNK = 8

    def setup(self, mem: GlobalMemory) -> None:
        self.x = self.rng.integers(0, 1000, self.N, dtype=np.uint32)
        self.base_in = mem.alloc("in", self.N * 4)
        self.base_out = mem.alloc("out", self.N * 4)
        self.n_threads = self.N // self.CHUNK
        self.base_sums = mem.alloc("sums", max(16, self.n_threads // 16) * 4)
        mem.view_u32("in")[:] = self.x

    def kernels(self) -> Iterator[Launch]:
        n_wf = self.n_threads // 16
        # Pass 1: sequential chunk scan + lane/wavefront offsets.
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(3))          # element base = tid*8
        addr_of(p, s(2), v(2), v(3))
        addr_of(p, s(3), v(2), v(4))
        p.mov(v(5), imm(0))
        for j in range(self.CHUNK):
            p.load(v(6), v(3), offset=j * 4)
            p.iadd(v(5), v(5), v(6))
            p.store(v(5), v(4), offset=j * 4)
        p.mov(v(7), v(5))
        emit_wavefront_scan(p, v(7), v(8))
        p.isub(v(9), v(7), v(5))           # exclusive lane offset
        for j in range(self.CHUNK):
            p.load(v(6), v(4), offset=j * 4)
            p.iadd(v(6), v(6), v(9))
            p.store(v(6), v(4), offset=j * 4)
        p.mov(v(10), s(0))
        addr_of(p, s(4), v(10), v(11))
        p.cmp("eq", v(1), imm(15))
        p.store(v(7), v(11), pred=True)    # wavefront total
        yield Launch(
            p.build(), self.n_threads,
            [self.base_in, self.base_out, self.base_sums],
            name=f"{self.name}.chunks",
        )
        # Pass 2: exclusive scan of wavefront totals.
        p = ProgramBuilder()
        p.cmp("lt", v(0), imm(n_wf))
        p.mov(v(3), imm(0))
        addr_of_tid(p, s(2), v(2))
        p.load(v(3), v(2), pred=True)
        emit_wavefront_scan(p, v(3), v(4))
        p.shuffle_up(v(5), v(3), 1)
        p.store(v(5), v(2), pred=True)
        yield Launch(p.build(), 16, [self.base_sums], name=f"{self.name}.blocks")
        # Pass 3: apply wavefront offsets.
        p = ProgramBuilder()
        p.mov(v(2), s(0))
        addr_of(p, s(3), v(2), v(3))
        p.load(v(4), v(3))
        p.shl(v(5), v(0), imm(3))
        addr_of(p, s(2), v(5), v(6))
        for j in range(self.CHUNK):
            p.load(v(7), v(6), offset=j * 4)
            p.iadd(v(7), v(7), v(4))
            p.store(v(7), v(6), offset=j * 4)
        yield Launch(
            p.build(), self.n_threads, [self.base_out, self.base_sums],
            name=f"{self.name}.apply",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        return {"out": np.cumsum(self.x.astype(np.uint64)).astype(np.uint32)}


class Histogram(Workload):
    """16-bin histogram of 2048 bytes via LDS-private per-lane bins."""

    name = "histogram"
    outputs = ("hist",)
    N = 2048
    BINS = 16
    THREADS = 256

    def setup(self, mem: GlobalMemory) -> None:
        self.x = self.rng.integers(0, 256, self.N, dtype=np.uint8)
        self.base_in = mem.alloc("in", self.N)
        n_wf = self.THREADS // 16
        self.base_partials = mem.alloc("partials", n_wf * self.BINS * 4)
        self.base_hist = mem.alloc("hist", self.BINS * 4)
        mem.view_u8("in")[:] = self.x

    def kernels(self) -> Iterator[Launch]:
        n_wf = self.THREADS // 16
        per_thread = self.N // self.THREADS
        # Pass 1: per-lane private bins in LDS, reduced per wavefront.
        p = ProgramBuilder()
        p.shl(v(2), v(1), imm(6))          # lane*16 bins*4 bytes
        for b in range(self.BINS):
            p.lds_store(imm(0), v(2), offset=b * 4)
        for j in range(per_thread):
            p.iadd(v(3), v(0), s(2))
            p.load_u8(v(5), v(3), offset=j * self.THREADS)
            p.shr(v(6), v(5), imm(4))      # bin = byte >> 4
            p.shl(v(6), v(6), imm(2))
            p.iadd(v(6), v(6), v(2))
            p.lds_load(v(7), v(6))
            p.iadd(v(7), v(7), imm(1))
            p.lds_store(v(7), v(6))
        # Lane b sums bin b across all 16 lanes' private copies.
        p.mov(v(8), imm(0))
        p.shl(v(9), v(1), imm(2))          # bin offset = lane*4
        for lane in range(16):
            p.lds_load(v(10), v(9), offset=lane * 64)
            p.iadd(v(8), v(8), v(10))
        p.s_shl(s(10), s(0), imm(4))       # wf*16
        p.iadd(v(11), v(1), s(10))
        addr_of(p, s(3), v(11), v(12))
        p.store(v(8), v(12))
        yield Launch(
            p.build(), self.THREADS, [self.base_in, self.base_partials],
            name=f"{self.name}.partial",
        )
        # Pass 2: sum the per-wavefront partials (lane = bin).
        p = ProgramBuilder()
        p.mov(v(2), imm(0))
        addr_of_tid(p, s(2), v(3))
        for w in range(n_wf):
            p.load(v(4), v(3), offset=w * self.BINS * 4)
            p.iadd(v(2), v(2), v(4))
        addr_of_tid(p, s(3), v(5))
        p.store(v(2), v(5))
        yield Launch(
            p.build(), self.BINS, [self.base_partials, self.base_hist],
            name=f"{self.name}.merge",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        return {
            "hist": np.bincount(self.x >> 4, minlength=self.BINS).astype(np.uint32)
        }


class FastWalshTransform(Workload):
    """Walsh-Hadamard transform of 256 int32, one launch per stage."""

    name = "fastwalsh"
    outputs = ("x",)
    N = 256

    def setup(self, mem: GlobalMemory) -> None:
        self.x = self.rng.integers(-100, 100, self.N).astype(np.int32)
        self.base_x = mem.alloc("x", self.N * 4)
        self.base_y = mem.alloc("y", self.N * 4)
        mem.view_i32("x")[:] = self.x

    def _stage(self) -> ProgramBuilder:
        p = ProgramBuilder()
        p.mov(v(2), s(4))                  # stride
        p.ixor(v(3), v(0), v(2))           # partner index
        addr_of_tid(p, s(2), v(4))
        p.load(v(5), v(4))                 # own value
        addr_of(p, s(2), v(3), v(6))
        p.load(v(7), v(6))                 # partner value
        p.iadd(v(8), v(5), v(7))
        p.isub(v(9), v(7), v(5))
        p.iand(v(10), v(0), v(2))
        p.cmp("eq", v(10), imm(0))
        p.cndmask(v(11), v(8), v(9))
        addr_of_tid(p, s(3), v(12))
        p.store(v(11), v(12))
        return p

    def kernels(self) -> Iterator[Launch]:
        prog = self._stage().build()
        src, dst = self.base_x, self.base_y
        stride = 1
        while stride < self.N:
            yield Launch(
                prog, self.N, [src, dst, stride],
                name=f"{self.name}.s{stride}",
            )
            src, dst = dst, src
            stride *= 2

    def expected(self) -> Dict[str, np.ndarray]:
        x = self.x.astype(np.int64)
        stride = 1
        while stride < self.N:
            y = np.empty_like(x)
            for t in range(self.N):
                partner = t ^ stride
                if t & stride:
                    y[t] = x[partner] - x[t]
                else:
                    y[t] = x[t] + x[partner]
            x = y
            stride *= 2
        return {"x": (x & 0xFFFFFFFF).astype(np.uint32)}


class DwtHaar1D(Workload):
    """1-D Haar wavelet decomposition of 256 float32 (7 levels)."""

    name = "dwthaar"
    outputs = ("out",)
    N = 256
    INV_SQRT2 = float(np.float32(0.7071067811865476))

    def setup(self, mem: GlobalMemory) -> None:
        self.x = self.rng.random(self.N, dtype=np.float32)
        self.base_x = mem.alloc("x", self.N * 4)
        self.base_ta = mem.alloc("ta", (self.N // 2) * 4)
        self.base_tb = mem.alloc("tb", (self.N // 2) * 4)
        self.base_out = mem.alloc("out", self.N * 4)
        mem.view_f32("x")[:] = self.x

    def _level(self) -> ProgramBuilder:
        # args: s2=src, s3=approx dst, s4=detail dst, s5=half
        p = ProgramBuilder()
        p.cmp("lt", v(0), s(5))
        p.shl(v(2), v(0), imm(3))          # 2t * 4 bytes
        p.iadd(v(3), v(2), s(2))
        p.load(v(4), v(3), pred=True)
        p.load(v(5), v(3), offset=4, pred=True)
        p.fadd(v(6), v(4), v(5))
        p.fmul(v(6), v(6), fimm(self.INV_SQRT2))
        p.fsub(v(7), v(4), v(5))
        p.fmul(v(7), v(7), fimm(self.INV_SQRT2))
        addr_of_tid(p, s(3), v(8))
        p.store(v(6), v(8), pred=True)
        addr_of_tid(p, s(4), v(9))
        p.store(v(7), v(9), pred=True)
        return p

    def kernels(self) -> Iterator[Launch]:
        prog = self._level().build()
        src = self.base_x
        tmps = [self.base_ta, self.base_tb]
        m = self.N
        level = 0
        while m >= 2:
            half = m // 2
            detail_dst = self.base_out + half * 4
            approx_dst = self.base_out if half == 1 else tmps[level % 2]
            yield Launch(
                prog, max(16, half),
                [src, approx_dst, detail_dst, half],
                name=f"{self.name}.l{level}",
            )
            src = approx_dst
            m = half
            level += 1

    def expected(self) -> Dict[str, np.ndarray]:
        out = np.zeros(self.N, dtype=np.float32)
        cur = self.x.copy()
        c = np.float32(self.INV_SQRT2)
        while len(cur) >= 2:
            half = len(cur) // 2
            approx = (cur[0::2] + cur[1::2]) * c
            detail = (cur[0::2] - cur[1::2]) * c
            out[half : 2 * half] = detail
            cur = approx
        out[0] = cur[0]
        return {"out": out}


class Dct(Workload):
    """8x8 block DCT (Z = M X M^T) over 8 blocks of float32."""

    name = "dct"
    outputs = ("z",)
    BLOCKS = 8

    def setup(self, mem: GlobalMemory) -> None:
        n = self.BLOCKS * 64
        self.x = self.rng.random(n, dtype=np.float32)
        k = np.arange(8)
        m = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16).astype(
            np.float32
        )
        m[0] *= np.float32(1 / np.sqrt(2))
        self.m = (m * 0.5).astype(np.float32)
        self.base_x = mem.alloc("x", n * 4)
        self.base_m = mem.alloc("m", 64 * 4)
        self.base_y = mem.alloc("y", n * 4)
        self.base_z = mem.alloc("z", n * 4)
        mem.view_f32("x")[:] = self.x
        mem.view_f32("m")[:] = self.m.ravel()

    def _stage1(self) -> ProgramBuilder:
        # Y[b][i][u] = sum_j X[b][i][j] * M[u][j]
        p = ProgramBuilder()
        p.shr(v(2), v(0), imm(6))          # block
        p.iand(v(3), v(0), imm(63))
        p.shr(v(4), v(3), imm(3))          # i
        p.iand(v(5), v(3), imm(7))         # u
        p.shl(v(6), v(2), imm(6))          # block*64
        p.shl(v(7), v(4), imm(3))
        p.iadd(v(7), v(7), v(6))           # block*64 + i*8
        addr_of(p, s(2), v(7), v(8))       # &X[b][i][0]
        p.shl(v(9), v(5), imm(3))
        addr_of(p, s(3), v(9), v(10))      # &M[u][0]
        p.mov(v(11), fimm(0.0))
        for j in range(8):
            p.load(v(12), v(8), offset=j * 4)
            p.load(v(13), v(10), offset=j * 4)
            p.fmac(v(11), v(12), v(13))
        addr_of_tid(p, s(4), v(14))
        p.store(v(11), v(14))
        return p

    def _stage2(self) -> ProgramBuilder:
        # Z[b][u][vv] = sum_i M[u][i] * Y[b][i][vv]
        p = ProgramBuilder()
        p.shr(v(2), v(0), imm(6))
        p.iand(v(3), v(0), imm(63))
        p.shr(v(4), v(3), imm(3))          # u
        p.iand(v(5), v(3), imm(7))         # vv
        p.shl(v(6), v(2), imm(6))
        p.iadd(v(7), v(6), v(5))           # block*64 + vv
        addr_of(p, s(2), v(7), v(8))       # &Y[b][0][vv]
        p.shl(v(9), v(4), imm(3))
        addr_of(p, s(3), v(9), v(10))      # &M[u][0]
        p.mov(v(11), fimm(0.0))
        for i in range(8):
            p.load(v(12), v(8), offset=i * 32)
            p.load(v(13), v(10), offset=i * 4)
            p.fmac(v(11), v(13), v(12))
        addr_of_tid(p, s(4), v(14))
        p.store(v(11), v(14))
        return p

    def kernels(self) -> Iterator[Launch]:
        n = self.BLOCKS * 64
        yield Launch(
            self._stage1().build(), n,
            [self.base_x, self.base_m, self.base_y], name=f"{self.name}.rows",
        )
        yield Launch(
            self._stage2().build(), n,
            [self.base_y, self.base_m, self.base_z], name=f"{self.name}.cols",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        x = self.x.reshape(self.BLOCKS, 8, 8)
        y = np.zeros_like(x)
        for j in range(8):
            y = y + x[:, :, j : j + 1] * self.m[None, None, :, j]
        z = np.zeros_like(x)
        for i in range(8):
            z = z + self.m[None, :, i : i + 1] * y[:, i : i + 1, :]
        return {"z": z.astype(np.float32)}


class RecursiveGaussian(Workload):
    """Separable first-order IIR blur over a 32x32 float32 image."""

    name = "recursivegaussian"
    outputs = ("out",)
    N = 32
    A = float(np.float32(0.4))
    B = float(np.float32(0.6))

    def setup(self, mem: GlobalMemory) -> None:
        n = self.N
        self.x = self.rng.random((n, n), dtype=np.float32)
        self.base_x = mem.alloc("x", n * n * 4)
        self.base_t = mem.alloc("t", n * n * 4)
        self.base_out = mem.alloc("out", n * n * 4)
        mem.view_f32("x")[:] = self.x.ravel()

    def _pass(self, stride_bytes: int, first_shift: int) -> ProgramBuilder:
        """IIR along one axis; thread = row (or column)."""
        p = ProgramBuilder()
        p.shl(v(2), v(0), imm(first_shift))  # start index
        addr_of(p, s(2), v(2), v(3))
        addr_of(p, s(3), v(2), v(4))
        p.load(v(5), v(3))
        p.fmul(v(6), v(5), fimm(self.A))
        p.store(v(6), v(4))
        p.s_mov(s(10), imm(1))
        p.label("col")
        p.iadd(v(3), v(3), imm(stride_bytes))
        p.iadd(v(4), v(4), imm(stride_bytes))
        p.load(v(5), v(3))
        p.fmul(v(7), v(5), fimm(self.A))
        p.fmac(v(7), v(6), fimm(self.B))
        p.mov(v(6), v(7))
        p.store(v(7), v(4))
        p.s_iadd(s(10), s(10), imm(1))
        p.s_cmp("lt", s(10), imm(self.N))
        p.cbranch("col")
        return p

    def kernels(self) -> Iterator[Launch]:
        # Rows: start = r*32, stride 4 bytes.  Columns: start = c, stride 128.
        yield Launch(
            self._pass(4, 5).build(), self.N, [self.base_x, self.base_t],
            name=f"{self.name}.rows",
        )
        yield Launch(
            self._pass(self.N * 4, 0).build(), self.N,
            [self.base_t, self.base_out], name=f"{self.name}.cols",
        )

    def expected(self) -> Dict[str, np.ndarray]:
        a, b = np.float32(self.A), np.float32(self.B)

        def iir_rows(img: np.ndarray) -> np.ndarray:
            out = np.zeros_like(img)
            out[:, 0] = img[:, 0] * a
            for c in range(1, img.shape[1]):
                out[:, c] = img[:, c] * a + out[:, c - 1] * b
            return out

        t = iir_rows(self.x)
        out = iir_rows(t.T).T
        return {"out": out.astype(np.float32)}
