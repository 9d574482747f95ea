"""Unit tests for global memory, the allocator, and LDS scratch."""

import numpy as np
import pytest

from repro.arch.memory import GlobalMemory


class TestAllocator:
    def test_alignment(self):
        mem = GlobalMemory()
        a = mem.alloc("a", 10, align=64)
        b = mem.alloc("b", 10, align=64)
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 10

    def test_address_zero_reserved(self):
        mem = GlobalMemory()
        assert mem.alloc("a", 4) >= 64

    def test_out_of_memory(self):
        mem = GlobalMemory(size=1024)
        with pytest.raises(MemoryError):
            mem.alloc("big", 10_000)

    def test_buffer_lookup(self):
        mem = GlobalMemory()
        base = mem.alloc("x", 128)
        assert mem.buffer("x") == (base, 128)
        assert mem.buffer_range("x") == range(base, base + 128)
        with pytest.raises(KeyError):
            mem.buffer("nope")


class TestTypedViews:
    def test_views_share_storage(self):
        mem = GlobalMemory()
        mem.alloc("x", 16)
        mem.view_u32("x")[:] = [1, 2, 3, 4]
        assert mem.view_i32("x").tolist() == [1, 2, 3, 4]
        mem.view_f32("x")[0] = 1.5
        assert mem.view_u32("x")[0] == np.float32(1.5).view(np.uint32)

    def test_u8_view(self):
        mem = GlobalMemory()
        mem.alloc("x", 4)
        mem.view_u32("x")[0] = 0x04030201
        assert mem.view_u8("x").tolist() == [1, 2, 3, 4]  # little-endian


class TestVectorAccess:
    def test_load_store_roundtrip(self):
        mem = GlobalMemory()
        base = mem.alloc("x", 64)
        addrs = np.array([base, base + 8, base + 60], dtype=np.uint32)
        vals = np.array([10, 20, 0xFFFFFFFF], dtype=np.uint32)
        mem.store(addrs, 4, vals)
        assert (mem.load(addrs, 4) == vals).all()

    def test_unaligned_rejected(self):
        mem = GlobalMemory()
        base = mem.alloc("x", 64)
        with pytest.raises(ValueError):
            mem.load(np.array([base + 1], dtype=np.uint32), 4)
        with pytest.raises(ValueError):
            mem.store(np.array([base + 2], dtype=np.uint32), 4,
                      np.array([1], dtype=np.uint32))

    def test_out_of_bounds_rejected(self):
        mem = GlobalMemory(size=1024)
        bad = np.array([1024 - 2], dtype=np.uint32)
        with pytest.raises(MemoryError):
            mem.load(bad + 2, 4)
        with pytest.raises(MemoryError):
            mem.store(np.array([1024], dtype=np.uint32), 1,
                      np.array([1], dtype=np.uint32))

    def test_byte_access(self):
        mem = GlobalMemory()
        base = mem.alloc("x", 16)
        addrs = np.array([base + 3, base + 5], dtype=np.uint32)
        mem.store(addrs, 1, np.array([0x1FF, 7], dtype=np.uint32))
        got = mem.load(addrs, 1)
        assert got.tolist() == [0xFF, 7]  # stores truncate to a byte
        assert got.dtype == np.uint32  # loads zero-extend


class TestLds:
    """The LDS is a GlobalMemory sized to the LDS: same access path."""

    def test_roundtrip(self):
        lds = GlobalMemory(256)
        addrs = np.array([0, 4, 252], dtype=np.uint32)
        vals = np.array([1, 2, 3], dtype=np.uint32)
        lds.store(addrs, 4, vals)
        assert (lds.load(addrs, 4) == vals).all()

    def test_unaligned_rejected(self):
        lds = GlobalMemory(256)
        with pytest.raises(ValueError):
            lds.load(np.array([2], dtype=np.uint32), 4)

    def test_zero_initialised(self):
        lds = GlobalMemory(64)
        assert (lds.load(np.array([0, 4], dtype=np.uint32), 4) == 0).all()

    def test_out_of_bounds_rejected(self):
        lds = GlobalMemory(64)
        with pytest.raises(MemoryError):
            lds.load(np.array([64], dtype=np.uint32), 4)
        with pytest.raises(MemoryError):
            lds.store(np.array([60, 64], dtype=np.uint32), 4,
                      np.array([1, 2], dtype=np.uint32))
        assert not lds.data.any()  # a rejected store writes nothing


class TestDuplicateStores:
    """Two active lanes storing to one word: the highest lane's value wins.

    A store resolves repeated bytes explicitly (NumPy leaves the order of
    a repeated fancy-index assignment unspecified), so the last write to a
    byte in lane order is the one memory keeps.
    """

    ADDRS = [0, 8, 0, 4, 8]  # byte offsets per lane: words 0 and 8 repeat
    VALUES = [0x11111111, 0x22222222, 0x33333333, 0x44444444, 0xDEADBEEF]

    def _check(self, mem, base):
        addrs = np.array(self.ADDRS, dtype=np.uint32) + np.uint32(base)
        mem.store(addrs, 4, np.array(self.VALUES, dtype=np.uint32))
        words = np.array([base, base + 4, base + 8], dtype=np.uint32)
        assert mem.load(words, 4).tolist() == [
            0x33333333, 0x44444444, 0xDEADBEEF
        ]

    def test_global_memory_last_lane_wins(self):
        mem = GlobalMemory()
        self._check(mem, mem.alloc("x", 16))

    def test_lds_last_lane_wins(self):
        self._check(GlobalMemory(64), 0)

    def test_global_memory_byte_store_last_lane_wins(self):
        mem = GlobalMemory()
        base = mem.alloc("x", 16)
        addrs = np.array([3, 5, 3, 3, 5], dtype=np.uint32) + np.uint32(base)
        mem.store(addrs, 1, np.array([0x11, 0x22, 0x33, 0x144, 0x55],
                                     dtype=np.uint32))
        assert mem.view_u8("x")[[3, 5]].tolist() == [0x44, 0x55]


class TestRandomAccess:
    """Seeded random vector accesses against a per-lane dict model in
    which later lanes overwrite earlier ones."""

    @pytest.mark.parametrize("nbytes", [1, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_store_then_load_matches_lane_order_model(self, nbytes, seed):
        rng = np.random.default_rng(seed)
        size = 64
        mem = GlobalMemory(size)
        model = {}
        for _ in range(4):
            # Few distinct slots for 16 lanes, so addresses repeat.
            addrs = rng.integers(0, size // nbytes, 16).astype(np.uint32)
            addrs *= np.uint32(nbytes)
            vals = rng.integers(0, 1 << 32, 16, dtype=np.uint64)
            vals = vals.astype(np.uint32)
            mem.store(addrs, nbytes, vals)
            for a, val in zip(addrs.tolist(), vals.tolist()):
                for k in range(nbytes):
                    model[a + k] = (val >> (8 * k)) & 0xFF
            expect = [model.get(a, 0) for a in range(size)]
            assert mem.data.tolist() == expect
            got = mem.load(addrs, nbytes).tolist()
            assert got == [
                sum(model[a + k] << (8 * k) for k in range(nbytes))
                for a in addrs.tolist()
            ]
