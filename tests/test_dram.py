"""DRAM channel tests: bank timing, FR-FCFS, bus serialization, queues."""

import dataclasses

import pytest

from repro.cache.l2 import L2Slice
from repro.dram.bankstate import NO_ROW, BankFile
from repro.dram.controller import DRAMChannel
from repro.dram.scheduler import ACTIVATE, CAS, make_scheduler
from repro.errors import ConfigError
from repro.mem.address import AddressMapper
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.config import DRAM_ROW_BYTES, tiny_gpu


def make_channel(**dram_kwargs):
    cfg = tiny_gpu()
    if dram_kwargs:
        cfg = dataclasses.replace(
            cfg, dram=dataclasses.replace(cfg.dram, **dram_kwargs)
        )
    mapper = AddressMapper(cfg)
    channel = DRAMChannel("d", cfg, mapper, partition_id=0)
    l2 = L2Slice("l2", cfg, mapper, partition_id=0)
    l2.dram = channel
    channel.l2 = l2
    return channel, l2, mapper, cfg


#: Per-channel bank counts: the shipped configs (16) and the Table I
#: scaled ``dram`` / ``l2+dram`` design points (64).
BANK_COUNTS = (16, 64)


def banked_config(n_banks):
    cfg = tiny_gpu()
    return dataclasses.replace(
        cfg, dram=dataclasses.replace(cfg.dram, banks=n_banks)
    )


def read(rid, line):
    return MemoryRequest(rid=rid, kind=AccessKind.LOAD, line=line, sm_id=0, warp_id=0)


def writeback(rid, line):
    return MemoryRequest(
        rid=rid, kind=AccessKind.WRITEBACK, line=line, sm_id=-1, warp_id=-1
    )


def run_until_returns(channel, n, limit=5000):
    """Step the channel until n responses appear in the return queue."""
    for cycle in range(limit):
        channel.step(cycle)
        if len(channel.return_queue) >= n:
            return cycle
    raise AssertionError(f"only {len(channel.return_queue)} returns in {limit} cycles")  # noqa: REP003 - test-helper failure, not simulator code


@pytest.mark.parametrize("n_banks", BANK_COUNTS)
class TestBankFile:
    def test_min_busy_tracks_earliest_bank(self, n_banks):
        banks = BankFile(n_banks)
        assert banks.min_busy() == 0
        for i in range(n_banks):
            banks.busy_until[i] = 100 + i
        assert banks.min_busy() == 100
        banks.busy_until[n_banks - 1] = 7
        assert banks.min_busy() == 7

    def test_lockout_extends_busy_and_closes_rows(self, n_banks):
        banks = BankFile(n_banks)
        for i in range(n_banks):
            banks.open_row[i] = i
            banks.busy_until[i] = 50 if i % 2 else 500
        banks.lockout(200)
        assert banks.busy_until == [
            200 if i % 2 else 500 for i in range(n_banks)
        ]
        assert banks.min_busy() == 200
        assert banks.open_row == [NO_ROW] * n_banks


class TestServiceFlow:
    def test_read_returns_after_activate_cas_transfer(self):
        channel, l2, mapper, cfg = make_channel()
        l2.miss_queue.push(read(0, 0), 0)
        done = run_until_returns(channel, 1)
        timing = cfg.dram
        minimum = timing.t_rcd + timing.t_cas + cfg.dram_transfer_cycles
        assert done >= minimum - 1
        assert channel.reads == 1

    def test_row_hits_counted_for_same_row_stream(self):
        channel, l2, mapper, cfg = make_channel()
        # Consecutive local lines in one partition share a row initially.
        for i in range(4):
            l2.miss_queue.push(read(i, i * cfg.n_partitions), 0)
        run_until_returns(channel, 4)
        hits = sum(channel.bank_file.row_hits)
        assert hits == 3  # first opens the row, rest hit

    def test_row_outcomes_closed_hit_conflict(self):
        """Reads of rows 0, 0, 1 on one bank, one at a time: a closed-row
        activate, a row hit that skips it, then a precharge conflict."""
        channel, l2, mapper, cfg = make_channel(t_rcd=7, t_rp=11)
        bank0 = [
            line for line in range(0, 1 << 16, cfg.n_partitions)
            if mapper.dram_bank(line) == 0
        ]
        row0 = [line for line in bank0 if mapper.dram_row(line) == 0]
        row1 = [line for line in bank0 if mapper.dram_row(line) == 1]
        latencies = []
        cycle = 0
        for rid, line in enumerate((row0[0], row0[1], row1[0])):
            l2.miss_queue.push(read(rid, line), cycle)
            start = cycle
            while channel.return_queue.empty:
                channel.step(cycle)
                cycle += 1
            channel.return_queue.pop(cycle)
            latencies.append(cycle - start)
        banks = channel.bank_file
        assert (banks.row_closed[0], banks.row_hits[0],
                banks.row_conflicts[0]) == (1, 1, 1)
        closed, hit, conflict = latencies
        assert closed - hit == cfg.dram.t_rcd
        assert conflict - closed == cfg.dram.t_rp

    def test_writeback_completes_without_return(self):
        channel, l2, mapper, cfg = make_channel()
        l2.miss_queue.push(writeback(0, 0), 0)
        for cycle in range(600):
            channel.step(cycle)
            if channel.writes:
                break
        assert channel.writes == 1
        assert channel.return_queue.empty

    def test_store_fetch_returns_like_read(self):
        """Write-allocate STORE fetches must come back (deadlock guard)."""
        channel, l2, mapper, cfg = make_channel()
        store = MemoryRequest(
            rid=0, kind=AccessKind.STORE, line=0, sm_id=0, warp_id=0
        )
        l2.miss_queue.push(store, 0)
        run_until_returns(channel, 1)
        assert channel.return_queue.peek().kind is AccessKind.STORE

    def test_bus_serializes_transfers(self):
        channel, l2, mapper, cfg = make_channel()
        n = 6
        # Same row -> row hits -> bus-limited spacing.  Feed respecting the
        # miss queue's capacity.
        pending = [read(i, i * cfg.n_partitions) for i in range(n)]
        done = None
        for cycle in range(5000):
            while pending and l2.miss_queue.can_push():
                l2.miss_queue.push(pending.pop(0), cycle)
            channel.step(cycle)
            if len(channel.return_queue) >= n:
                done = cycle
                break
        assert done is not None
        # n transfers cannot finish faster than n * transfer_cycles.
        assert done >= n * cfg.dram_transfer_cycles

    def test_sched_queue_admits_one_per_cycle(self):
        channel, l2, mapper, cfg = make_channel()
        for i in range(4):
            l2.miss_queue.push(read(i, i), 0)
        channel.step(0)
        assert len(channel.sched_queue) == 1
        channel.step(1)
        assert len(channel.sched_queue) + channel.reads >= 2


class TestSchedulers:
    def _queue_with(self, mapper, reqs):
        """Build a scheduler queue with the coordinates the controller
        caches on each request at admission."""
        from repro.mem.queue import StatQueue

        q = StatQueue("q", 32)
        for r in reqs:
            r.dram_bank = mapper.dram_bank(r.line)
            r.dram_row = mapper.dram_row(r.line)
            q.push(r, 0)
        return q

    @pytest.mark.parametrize("n_banks", BANK_COUNTS)
    def test_frfcfs_prefers_row_hit_over_older_conflict(self, n_banks):
        cfg = banked_config(n_banks)
        mapper = AddressMapper(cfg)
        sched = make_scheduler("frfcfs")
        banks = BankFile(cfg.dram.banks)
        old = read(0, 0)
        young = read(1, 0 + cfg.n_partitions)  # same bank/row region
        row = mapper.dram_row(young.line)
        banks.open_row[mapper.dram_bank(young.line)] = row
        queue = self._queue_with(mapper, [old, young])
        # "old" also maps to the same row here, so pick oldest hit = old.
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, True, 1
        )
        assert choice == (CAS, old)

    @pytest.mark.parametrize("n_banks", BANK_COUNTS)
    def test_frfcfs_activates_for_oldest_when_no_hits(self, n_banks):
        cfg = banked_config(n_banks)
        mapper = AddressMapper(cfg)
        sched = make_scheduler("frfcfs")
        banks = BankFile(cfg.dram.banks)
        a = read(0, 0)
        queue = self._queue_with(mapper, [a])
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, True, 1
        )
        assert choice == (ACTIVATE, a)

    @pytest.mark.parametrize("n_banks", BANK_COUNTS)
    def test_frfcfs_does_not_close_row_with_pending_hits(self, n_banks):
        cfg = banked_config(n_banks)
        mapper = AddressMapper(cfg)
        sched = make_scheduler("frfcfs")
        banks = BankFile(cfg.dram.banks)
        hit = read(0, 0)
        bank_idx = mapper.dram_bank(hit.line)
        banks.open_row[bank_idx] = mapper.dram_row(hit.line)
        row_lines = DRAM_ROW_BYTES // cfg.line_bytes
        # Request to a different row of the SAME bank.
        conflict_local = mapper.local_line(hit.line) + row_lines * cfg.dram.banks
        conflict = read(1, conflict_local * cfg.n_partitions)
        assert mapper.dram_bank(conflict.line) == bank_idx
        queue = self._queue_with(mapper, [conflict, hit])
        # The hit is bus-gated (bus_gate_ok False); activate must NOT fire
        # on its bank.
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, False, 1
        )
        assert choice is None

    @pytest.mark.parametrize("n_banks", BANK_COUNTS)
    def test_fcfs_serves_strictly_in_order(self, n_banks):
        cfg = banked_config(n_banks)
        mapper = AddressMapper(cfg)
        sched = make_scheduler("fcfs")
        banks = BankFile(cfg.dram.banks)
        a, b = read(0, 0), read(1, cfg.n_partitions)
        banks.open_row[mapper.dram_bank(b.line)] = mapper.dram_row(b.line)
        queue = self._queue_with(mapper, [a, b])
        # b is a ready row hit but FCFS must handle a first (activate).
        choice = sched.select(
            queue, banks.busy_until, banks.open_row, 0, True, 1
        )
        # a and b share the open row in this mapping? ensure decision is for a.
        assert choice[1] is a

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigError):
            make_scheduler("mystery")


class TestReturnPathGuard:
    def test_reads_gated_by_return_queue_headroom(self):
        channel, l2, mapper, cfg = make_channel(return_queue_depth=2)
        pending = [read(i, i * cfg.n_partitions) for i in range(8)]
        for cycle in range(2000):
            while pending and l2.miss_queue.can_push():
                l2.miss_queue.push(pending.pop(0), cycle)
            channel.step(cycle)
        # Never more returns than capacity, and no stuck completions.
        assert len(channel.return_queue) <= 2
        # Drain and confirm the rest flow.
        drained = len(channel.return_queue)
        for cycle in range(2000, 6000):
            if not channel.return_queue.empty:
                channel.return_queue.pop(cycle)
                drained += 1
            channel.step(cycle)
            if drained == 8:
                break
        assert drained == 8


class SpyScheduler:
    """Delegating scheduler that records the cycle and outcome of every
    ``select`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def select(self, queue, busy_until, open_row, now, bus_gate_ok, read_headroom):
        choice = self.inner.select(
            queue, busy_until, open_row, now, bus_gate_ok, read_headroom
        )
        self.calls.append((now, choice and choice[0]))
        return choice


def spied_channel(**dram_kwargs):
    channel, l2, mapper, cfg = make_channel(**dram_kwargs)
    spy = channel._scheduler = SpyScheduler(channel._scheduler)
    return channel, l2, mapper, cfg, spy


def block_on_headroom(channel, l2, cfg, line=0):
    """Fill the one-slot return queue, then queue a read that opens its
    row but cannot CAS: the scan finds nothing, and no bank timing or
    bus gate is pending.  Returns the cycle the channel reached."""
    channel.return_queue.push(read(99, cfg.n_partitions), 0)
    l2.miss_queue.push(read(0, line), 0)
    for cycle in range(200):
        channel.step(cycle)
    assert channel.sched_queue._items and channel.reads == 0
    return 200


class TestSelectGate:
    def test_select_not_rerun_while_nothing_changes(self):
        channel, l2, mapper, cfg, spy = spied_channel(return_queue_depth=1)
        cycle = block_on_headroom(channel, l2, cfg)
        scans = len(spy.calls)
        assert spy.calls[-1] == (cfg.dram.t_rcd, None)  # the blocked CAS
        for c in range(cycle, cycle + 500):
            assert channel.next_wake(c) > c
            channel.step(c)
        assert len(spy.calls) == scans

    def test_return_queue_pop_reruns_select(self):
        channel, l2, mapper, cfg, spy = spied_channel(return_queue_depth=1)
        cycle = block_on_headroom(channel, l2, cfg)
        channel.return_queue.pop(cycle)
        assert channel.next_wake(cycle + 1) == cycle + 1
        channel.step(cycle + 1)
        assert spy.calls[-1] == (cycle + 1, CAS)

    def test_admit_reruns_select(self):
        channel, l2, mapper, cfg, spy = spied_channel(return_queue_depth=1)
        cycle = block_on_headroom(channel, l2, cfg)
        l2.miss_queue.push(writeback(1, cfg.n_partitions), cycle)
        channel.step(cycle + 1)
        # The writeback hits the open row and needs no return slot, so
        # the rerun issues its CAS past the blocked read.
        assert spy.calls[-1] == (cycle + 1, CAS)
        assert channel.sched_queue._items[0].rid == 0

    def test_select_reruns_at_bank_retry_cycle(self):
        channel, l2, mapper, cfg, spy = spied_channel()
        bank = mapper.dram_bank(0)
        channel.bank_file.busy_until[bank] = 100
        l2.miss_queue.push(read(0, 0), 0)
        for c in range(101):
            if 0 < c < 100:
                assert channel.next_wake(c) == 100
            channel.step(c)
        assert spy.calls == [(0, None), (100, ACTIVATE)]

    def test_refresh_reruns_select(self):
        interval, lockout = 300, 10
        channel, l2, mapper, cfg, spy = spied_channel(
            return_queue_depth=1, refresh_interval=interval,
            refresh_cycles=lockout,
        )
        cycle = block_on_headroom(channel, l2, cfg)
        scans = len(spy.calls)
        for c in range(cycle, interval + lockout + 1):
            channel.step(c)
        # The refresh closed the row, so the rerun re-activates it.
        assert spy.calls[scans:] == [(interval + lockout, ACTIVATE)]
