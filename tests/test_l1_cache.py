"""L1D cache behaviour tests."""

import dataclasses

import pytest

from repro.cache.l1 import AccessResult, L1DCache
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.config import (
    L1_FILL_LATENCY,
    L1_HIT_LATENCY,
    GPUConfig,
    L1Config,
    tiny_gpu,
)


def make_l1(magic=False, magic_latency=0, **l1_kwargs):
    cfg = tiny_gpu()
    if l1_kwargs:
        cfg = dataclasses.replace(cfg, l1=L1Config(**l1_kwargs))
    if magic:
        cfg = cfg.with_magic_memory(magic_latency)
    return L1DCache("l1", cfg, sm_id=0)


def load(rid, line):
    return MemoryRequest(rid=rid, kind=AccessKind.LOAD, line=line, sm_id=0, warp_id=0)


def store(rid, line):
    return MemoryRequest(rid=rid, kind=AccessKind.STORE, line=line, sm_id=0, warp_id=0)


class TestLoads:
    def test_cold_miss_enters_miss_queue(self):
        l1 = make_l1()
        assert l1.try_access(load(0, 0x100), 0) is AccessResult.QUEUED
        assert len(l1.miss_queue) == 1
        assert l1.misses_issued == 1

    def test_second_load_merges(self):
        l1 = make_l1()
        l1.try_access(load(0, 0x100), 0)
        assert l1.try_access(load(1, 0x100), 1) is AccessResult.QUEUED
        assert len(l1.miss_queue) == 1  # merged, no duplicate traffic
        assert l1.mshr.merges == 1

    def test_fill_completes_all_merged_and_hits_after(self):
        l1 = make_l1()
        first = load(0, 0x100)
        l1.try_access(first, 0)
        l1.try_access(load(1, 0x100), 1)
        l1.miss_queue.pop(2)  # crossbar drains
        first.is_response = True
        l1.deliver_fill(first, 10)
        horizon = 10 + 60
        done = []
        for cycle in range(11, horizon):
            done.extend(l1.collect_completions(cycle))
            if len(done) == 2:
                break
        assert sorted(r.rid for r in done) == [0, 1]
        assert l1.try_access(load(2, 0x100), horizon) is AccessResult.HIT

    def test_hit_latency_applied(self):
        l1 = make_l1()
        first = load(0, 0x100)
        l1.try_access(first, 0)
        l1.miss_queue.pop(0)
        first.is_response = True
        l1.deliver_fill(first, 0)
        # wait for install
        for cycle in range(0, 100):
            if l1.collect_completions(cycle):
                break
        hit = load(1, 0x100)
        assert l1.try_access(hit, 200) is AccessResult.HIT
        lat = L1_HIT_LATENCY
        assert l1.collect_completions(200 + lat - 1) == []
        assert l1.collect_completions(200 + lat) == [hit]

    def test_mshr_exhaustion_stalls(self):
        l1 = make_l1()
        cap = l1.mshr.capacity
        # Miss queue is smaller than MSHRs; drain it as we go.
        for i in range(cap):
            result = l1.try_access(load(i, 0x1000 + i), i)
            assert result is AccessResult.QUEUED
            if not l1.miss_queue.empty:
                l1.miss_queue.pop(i)
        result = l1.try_access(load(99, 0x9999), 100)
        assert result is AccessResult.STALL_MSHR_FULL
        assert l1.stall_counts[AccessResult.STALL_MSHR_FULL] == 1

    def test_miss_queue_full_stalls(self):
        l1 = make_l1()
        depth = l1.miss_queue.capacity
        for i in range(depth):
            assert l1.try_access(load(i, 0x2000 + i), 0) is AccessResult.QUEUED
        assert (
            l1.try_access(load(99, 0x5000), 1)
            is AccessResult.STALL_MISSQ_FULL
        )

    def test_merge_slots_exhaustion_stalls(self):
        l1 = make_l1(magic=True, magic_latency=10_000)
        merge_cap = l1.mshr.max_merge
        for i in range(merge_cap):
            assert l1.try_access(load(i, 0x100), i).is_stall is False
        assert (
            l1.try_access(load(99, 0x100), 50)
            is AccessResult.STALL_MERGE_FULL
        )


class TestStores:
    def test_store_is_write_through(self):
        l1 = make_l1()
        assert l1.try_access(store(0, 0x100), 0) is AccessResult.STORE_SENT
        assert len(l1.miss_queue) == 1
        assert l1.stores_sent == 1

    def test_store_evicts_local_copy(self):
        l1 = make_l1()
        first = load(0, 0x100)
        l1.try_access(first, 0)
        l1.miss_queue.pop(0)
        first.is_response = True
        l1.deliver_fill(first, 0)
        for cycle in range(0, 100):
            if l1.collect_completions(cycle):
                break
        l1.try_access(store(1, 0x100), 200)
        # next load misses again (write-evict)
        assert l1.try_access(load(2, 0x100), 201) is AccessResult.QUEUED

    def test_store_stalls_on_full_miss_queue(self):
        l1 = make_l1()
        for i in range(l1.miss_queue.capacity):
            l1.try_access(store(i, 0x3000 + i), 0)
        assert (
            l1.try_access(store(99, 0x4000), 1)
            is AccessResult.STALL_MISSQ_FULL
        )


class TestMagicMode:
    def test_magic_fills_after_exact_latency(self):
        l1 = make_l1(magic=True, magic_latency=37)
        r = load(0, 0x100)
        l1.try_access(r, 0)
        assert l1.miss_queue.empty  # bypasses the memory system
        # The response returns after *exactly* the fixed latency.
        assert l1.collect_completions(36) == []
        assert l1.collect_completions(37) == [r]

    def test_magic_zero_latency(self):
        l1 = make_l1(magic=True, magic_latency=0)
        r = load(0, 0x100)
        l1.try_access(r, 0)
        assert l1.collect_completions(0) == [r]

    def test_magic_stores_vanish(self):
        l1 = make_l1(magic=True)
        assert l1.try_access(store(0, 0x1), 0) is AccessResult.STORE_SENT
        assert l1.miss_queue.empty


class TestEpoch:
    def test_resource_epoch_advances_on_events(self):
        l1 = make_l1()
        e0 = l1.resource_epoch()
        r = load(0, 0x100)
        l1.try_access(r, 0)
        assert l1.resource_epoch() == e0  # allocation is not a clearing event
        l1.miss_queue.pop(1)
        assert l1.resource_epoch() == e0 + 1  # miss-queue slot freed
        r.is_response = True
        l1.deliver_fill(r, 2)
        for cycle in range(2, 100):
            if l1.collect_completions(cycle):
                break
        assert l1.resource_epoch() == e0 + 3  # + fill + MSHR release

    def test_miss_latency_accounting(self):
        l1 = make_l1()
        r = load(0, 0x100)
        l1.try_access(r, 5)
        l1.miss_queue.pop(6)
        r.is_response = True
        l1.deliver_fill(r, 105)
        # Fill lands after fill latency plus the response network latency.
        delay = L1_FILL_LATENCY + l1._config.icnt.network_latency
        assert l1.collect_completions(105 + delay - 1) == []
        assert l1.collect_completions(105 + delay) == [r]
        assert l1.miss_latency.mean == pytest.approx(100 + delay)
