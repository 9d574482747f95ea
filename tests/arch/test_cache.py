"""Unit tests for the cache hierarchy (metadata, LRU, events, timing)."""

import numpy as np
import pytest

from repro.arch.cache import (
    DEMAND_READ,
    EVICT,
    FILL,
    FILL_READ,
    WRITE,
    WRITEBACK_READ,
    Cache,
    CacheConfig,
    MemSystem,
)


def _tiny_memsys(**kw):
    cfg1 = CacheConfig(n_sets=2, n_ways=2, line_bytes=64, hit_latency=4)
    cfg2 = CacheConfig(n_sets=4, n_ways=2, line_bytes=64, hit_latency=24)
    return MemSystem(1, cfg1, cfg2, **kw)


def _addrs(*vals):
    return np.array(vals, dtype=np.uint32)


class TestCacheConfig:
    def test_capacity(self):
        cfg = CacheConfig(64, 4, 64, 4)
        assert cfg.capacity == 16 * 1024

    def test_set_mapping(self):
        cfg = CacheConfig(4, 2, 64, 1)
        assert cfg.set_of(0) == 0
        assert cfg.set_of(64) == 1
        assert cfg.set_of(64 * 4) == 0

    def test_mismatched_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            MemSystem(
                1,
                CacheConfig(2, 2, 64, 4),
                CacheConfig(2, 2, 128, 24),
            )


class TestLruReplacement:
    def test_fills_empty_ways_first(self):
        c = Cache("t", CacheConfig(1, 4, 64, 1), writeback=False)
        for i in range(4):
            s, w = c.install(i * 64, t=i, fill_id=i)
            assert (s, w) == (0, i)

    def test_evicts_least_recently_used(self):
        c = Cache("t", CacheConfig(1, 2, 64, 1), writeback=False)
        c.install(0, t=0, fill_id=1)
        c.install(64, t=1, fill_id=2)
        s, w = c.find(0)
        c.touch(s, w)  # line 0 is now MRU
        c.install(128, t=2, fill_id=3)  # must evict line 64
        assert c.find(64) == (0, -1)
        assert c.find(0)[1] >= 0
        assert c.find(128)[1] >= 0

    def test_victim_prefers_empty(self):
        c = Cache("t", CacheConfig(1, 2, 64, 1), writeback=False)
        c.install(0, t=0, fill_id=1)
        assert c.victim_way(0) == 1


class TestEventStream:
    def test_load_miss_emits_fill_then_read(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0, 4), 4, t=10, uid=1)
        l1_events = ms.l1s[0].events()
        assert l1_events.kind.tolist() == [FILL, DEMAND_READ]
        assert l1_events.t[0] == 10
        assert l1_events.ref[1] == 1
        # The L2 saw a fill-read linking the L1 fill.
        l2 = ms.l2.events()
        l2_reads = np.isin(l2.kind, (DEMAND_READ, FILL_READ, WRITEBACK_READ))
        assert l2.kind[l2_reads][0] == FILL_READ
        assert l2.ref[l2_reads][0] == l1_events.ref[0]

    def test_load_hit_emits_only_read(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0), 4, t=1, uid=1)
        n = len(ms.l1s[0].events())
        ms.load(0, _addrs(0), 4, t=2, uid=2)
        new = ms.l1s[0].events().kind[n:]
        assert new.tolist() == [DEMAND_READ]

    def test_store_is_no_allocate_in_l1(self):
        ms = _tiny_memsys()
        ms.store(0, _addrs(0), 4, t=1, uid=1)
        assert not len(ms.l1s[0].events())   # L1 miss: nothing recorded
        assert ms.l2.events().kind.tolist() == [FILL, WRITE]

    def test_store_hit_updates_l1_write_through(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0), 4, t=1, uid=1)
        ms.store(0, _addrs(0), 4, t=2, uid=2)
        l1_writes = ms.l1s[0].events().kind == WRITE
        l2_writes = ms.l2.events().kind == WRITE
        assert l1_writes.sum() == 1 and l2_writes.sum() == 1

    def test_dirty_eviction_emits_writeback_read(self):
        ms = _tiny_memsys()
        ms.store(0, _addrs(0), 4, t=1, uid=1)
        # Force eviction of line 0's set in the 4-set L2: lines 0, 1024,
        # 2048 share set 0 (4 sets x 64B).
        ms.load(0, _addrs(1024), 4, t=2, uid=2)
        ms.load(0, _addrs(2048), 4, t=3, uid=3)
        ev = ms.l2.events()
        wb = np.flatnonzero(ev.kind == WRITEBACK_READ)
        assert len(wb) == 1
        assert ev.line[wb[0]] == 0
        byte_mask = ev.dirty[ev.ref[wb[0]]]
        assert byte_mask[:4].all()
        assert not byte_mask[4:].any()

    def test_flush_writes_back_and_evicts_everything(self):
        ms = _tiny_memsys()
        ms.store(0, _addrs(0, 64), 4, t=1, uid=1)
        ms.flush(t=100)
        assert (ms.l2.tags == -1).all()
        ev = ms.l2.events()
        assert (ev.kind == WRITEBACK_READ).sum() == 2
        assert len(ev.dirty) == 2
        assert (ev.kind == EVICT).sum() == 2

    def test_clean_eviction_has_no_writeback(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0), 4, t=1, uid=1)
        ms.flush(t=2)
        ev = ms.l2.events()
        assert not (ev.kind == WRITEBACK_READ).any()
        assert not len(ev.dirty)


class TestTiming:
    def test_latency_ordering(self):
        ms = _tiny_memsys()
        miss = ms.load(0, _addrs(0), 4, t=0, uid=1)
        hit = ms.load(0, _addrs(0), 4, t=1, uid=2)
        assert hit == ms.l1s[0].config.hit_latency
        assert miss > ms.l2.config.hit_latency  # went to memory

    def test_l2_hit_between(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0), 4, t=0, uid=1)
        # Evict from tiny L1 (2 sets x 2 ways: lines 0, 128, 256 map to set 0).
        ms.load(0, _addrs(128), 4, t=1, uid=2)
        ms.load(0, _addrs(256), 4, t=2, uid=3)
        l2hit = ms.load(0, _addrs(0), 4, t=3, uid=4)
        assert ms.l1s[0].config.hit_latency < l2hit
        assert l2hit == ms.l1s[0].config.hit_latency + ms.l2.config.hit_latency

    def test_store_latency_is_buffered(self):
        ms = _tiny_memsys(store_latency=4)
        assert ms.store(0, _addrs(0), 4, t=0, uid=1) == 4

    def test_multi_line_load_takes_max(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0), 4, t=0, uid=1)
        # One resident line + one missing line: latency is the miss latency.
        lat = ms.load(0, _addrs(0, 64), 4, t=1, uid=2)
        assert lat > ms.l1s[0].config.hit_latency

    def test_hit_miss_counters(self):
        ms = _tiny_memsys()
        ms.load(0, _addrs(0), 4, t=0, uid=1)
        ms.load(0, _addrs(0), 4, t=1, uid=2)
        assert ms.l1s[0].misses == 1
        assert ms.l1s[0].hits == 1
