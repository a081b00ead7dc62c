"""Tests for optional architecture features: L1 write-back policy, TLP
throttling (active warp limit), and DRAM refresh."""

import dataclasses

import pytest

from repro.cache.l1 import AccessResult, L1DCache
from repro.core.metrics import run_kernel
from repro.cores.sm import SM
from repro.errors import ConfigError
from repro.gpu import GPU
from repro.mem.request import AccessKind, MemoryRequest, RequestFactory
from repro.sim.config import CoreConfig, DRAMConfig, L1Config, tiny_gpu
from repro.workloads.synthetic import SyntheticKernelSpec, build_kernel


def wb_config():
    cfg = tiny_gpu()
    return dataclasses.replace(
        cfg, l1=dataclasses.replace(cfg.l1, write_policy="write_back"))


def store(rid, line):
    return MemoryRequest(rid=rid, kind=AccessKind.STORE, line=line, sm_id=0, warp_id=0)


def load(rid, line):
    return MemoryRequest(rid=rid, kind=AccessKind.LOAD, line=line, sm_id=0, warp_id=0)


class TestWriteBackL1:
    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            L1Config(write_policy="write_around")

    def test_store_miss_fetches_line(self):
        l1 = L1DCache("l1", wb_config(), 0)
        assert l1.try_access(store(0, 0x10), 0) is AccessResult.QUEUED
        # Downstream request is a fetch, not a write.
        assert l1.miss_queue.peek().kind is AccessKind.LOAD

    def test_store_hit_absorbed_locally(self):
        l1 = L1DCache("l1", wb_config(), 0)
        r = store(0, 0x10)
        l1.try_access(r, 0)
        l1.miss_queue.pop(0)
        r.is_response = True
        l1.deliver_fill(r, 1)
        for cycle in range(1, 100):
            l1.collect_completions(cycle)
            if l1.tags.lookup(0x10, cycle, count=False):
                break
        before = len(l1.miss_queue)
        assert l1.try_access(store(1, 0x10), 200) is AccessResult.HIT
        assert len(l1.miss_queue) == before  # no downstream traffic
        assert l1.store_hits_local == 1

    def test_dirty_eviction_writes_back(self):
        cfg = wb_config()
        l1 = L1DCache("l1", cfg, 0)
        n_sets = l1.tags.n_sets
        assoc = l1.tags.assoc
        # Dirty one line in set 0 via a store fill.
        first = store(0, 0)
        l1.try_access(first, 0)
        l1.miss_queue.pop(0)
        first.is_response = True
        l1.deliver_fill(first, 0)
        for cycle in range(0, 60):
            l1.collect_completions(cycle)
        # Conflict-fill the same set until the dirty line evicts.
        for i in range(1, assoc + 1):
            r = load(i, i * n_sets)
            l1.try_access(r, 100 + i)
            if not l1.miss_queue.empty:
                while not l1.miss_queue.empty:
                    l1.miss_queue.pop(100 + i)
            r.is_response = True
            l1.deliver_fill(r, 100 + i)
        for cycle in range(102, 400):
            l1.collect_completions(cycle)
            if l1.writebacks_sent:
                break
        assert l1.writebacks_sent >= 1
        # Writeback travels as a STORE (a real write at the L2).
        kinds = [r.kind for r in l1.miss_queue]
        assert AccessKind.STORE in kinds

    def test_write_back_absorbs_repeated_stores(self):
        """Repeated stores to the same line: write-through sends every one
        to the L2; write-back absorbs all but the first locally."""
        from repro.workloads.trace import trace_kernel

        program = [("store", [5])] * 10 + [("compute", 1)]
        kernel = trace_kernel({(0, 0): list(program), (1, 0): list(program)},
                              mlp_limit=2)
        wt = run_kernel(tiny_gpu(), kernel)
        wb = run_kernel(wb_config(), kernel)
        # DRAM traffic never grows (the shared L2 already dedups repeats),
        # and absorbing the stores locally finishes measurably faster.
        assert wb.dram_reads + wb.dram_writes <= wt.dram_reads + wt.dram_writes
        assert wb.cycles < wt.cycles

    def test_write_back_run_drains_cleanly(self):
        spec = SyntheticKernelSpec(
            name="st", pattern="stream", iterations=6, compute_per_iter=1,
            loads_per_iter=1, stores_per_iter=2, mlp_limit=4)
        gpu = GPU(wb_config(), build_kernel(spec))
        gpu.run(max_cycles=300_000)
        for sm in gpu.sms:
            assert sm.l1.is_idle()
        for l2 in gpu.l2_slices:
            assert l2.is_idle()


class TestActiveWarpLimit:
    def programs(self, n):
        return [[("compute", 2), ("load", [i]), ("compute", 2)]
                for i in range(n)]

    def make_sm(self, limit):
        cfg = tiny_gpu().with_magic_memory(20)
        cfg = dataclasses.replace(
            cfg, core=dataclasses.replace(cfg.core, active_warp_limit=limit))
        return SM(0, cfg, [iter(p) for p in self.programs(4)], 2,
                  RequestFactory())

    def test_validation(self):
        with pytest.raises(ConfigError):
            CoreConfig(active_warp_limit=0)

    def test_limit_caps_concurrent_warps(self):
        sm = self.make_sm(limit=2)
        assert len(sm.scheduler) == 2
        assert len(sm._inactive_warps) == 2

    def test_all_warps_eventually_retire(self):
        sm = self.make_sm(limit=1)
        for cycle in range(2000):
            sm.step(cycle)
            if sm.done:
                break
        assert sm.done

    def test_unlimited_default(self):
        sm = self.make_sm(limit=None)
        assert len(sm.scheduler) == 4

    def test_instructions_identical_under_throttling(self):
        a = self.make_sm(limit=None)
        b = self.make_sm(limit=1)
        for cycle in range(4000):
            if not a.done:
                a.step(cycle)
            if not b.done:
                b.step(cycle)
        assert a.done and b.done
        assert a.instructions == b.instructions


class TestDRAMRefresh:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DRAMConfig(refresh_interval=100, refresh_cycles=100)
        with pytest.raises(ConfigError):
            DRAMConfig(refresh_interval=-1)

    def test_refresh_disabled_by_default(self):
        m_gpu = GPU(tiny_gpu(), build_kernel(SyntheticKernelSpec(
            name="x", pattern="stream", iterations=4, compute_per_iter=1,
            loads_per_iter=1)))
        m_gpu.run(max_cycles=100_000)
        assert all(d.refreshes == 0 for d in m_gpu.dram_channels)

    def test_refresh_fires_and_costs_performance(self):
        spec = SyntheticKernelSpec(
            name="x", pattern="stream", iterations=16, compute_per_iter=1,
            loads_per_iter=2, mlp_limit=6)
        base_cfg = tiny_gpu()
        refresh_cfg = dataclasses.replace(
            base_cfg, dram=dataclasses.replace(
                base_cfg.dram, refresh_interval=200, refresh_cycles=60))
        base = GPU(base_cfg, build_kernel(spec))
        base.run(max_cycles=300_000)
        refreshed = GPU(refresh_cfg, build_kernel(spec))
        refreshed.run(max_cycles=300_000)
        assert sum(d.refreshes for d in refreshed.dram_channels) > 0
        assert refreshed.cycles > base.cycles  # refresh steals bandwidth

    def test_refresh_closes_rows(self):
        from repro.dram.bankstate import NO_ROW
        from repro.dram.controller import DRAMChannel
        from repro.mem.address import AddressMapper

        cfg = dataclasses.replace(
            tiny_gpu(), dram=dataclasses.replace(
                tiny_gpu().dram, refresh_interval=50, refresh_cycles=10))
        channel = DRAMChannel("d", cfg, AddressMapper(cfg), 0)
        channel.bank_file.open_row[0] = 7
        channel._refresh(100)
        assert channel.bank_file.open_row[0] == NO_ROW
        assert channel.bank_file.busy_until[0] >= 110
        assert channel._next_refresh > 100
