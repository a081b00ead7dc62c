"""One memory partition's L2 slice.

Banked, write-back, write-allocate, with the full Table I resource set:

* **L2 access queue** — filled by the request crossbar, drained by the
  banks (at most one accept per bank per cycle, head-of-line order).
* **banks** — pipelined tag/data access of ``bank_latency`` cycles; a bank
  whose completed request cannot acquire downstream resources (data port,
  response queue, MSHR, miss queue, replaceable line) holds at its output
  register, eventually filling its pipeline and refusing new input, which
  backs the access queue up into the crossbar — the paper's back-pressure
  cascade.
* **L2 data port** — every line-carrying response occupies the partition's
  return port for ``ceil(line / data_port_bytes)`` cycles.
* **MSHR / miss queue / response queue** — per Table I.

Fills returning from DRAM install into a way *reserved at miss time*
(dirty victims generate writeback traffic to DRAM at miss time as well),
then fan out one response per merged requester through the data port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop

from repro.cache.mshr import MSHRTable
from repro.cache.tag_array import TagArray
from repro.mem.address import AddressMapper
from repro.mem.pipe import DelayPipe
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.config import MSHR_MAX_MERGE, GPUConfig


@dataclass(slots=True)
class _Bank:
    """One L2 bank: a fixed-latency pipeline plus an output register."""

    pipe: DelayPipe[MemoryRequest]
    depth: int
    output: MemoryRequest | None = None
    #: Miss-resource epoch (the slice's ``mshr.releases +
    #: miss_queue.pops``, the only events that can clear a miss-path
    #: stall) at which the held output last failed on such a stall; it
    #: is not retried until the epoch moves.  Epochs only grow, so a
    #: stale value never matches again.
    wait_epoch: int = -1


class L2Slice(Component):
    """L2 cache slice + queue set for one memory partition."""

    def __init__(
        self,
        name: str,
        config: GPUConfig,
        mapper: AddressMapper,
        partition_id: int,
    ) -> None:
        self.name = name
        self.partition_id = partition_id
        self._config = config
        #: Global line -> local line shift and local line -> bank mask
        #: (mapper.local_line / mapper.l2_bank, inlined per request).
        self._part_shift = mapper.part_shift
        self._bank_mask = mapper.l2_bank_mask
        cfg = config.l2
        n_sets = cfg.size_bytes // (config.line_bytes * cfg.assoc)
        self.tags = TagArray(f"{name}.tags", n_sets, cfg.assoc)
        self.mshr = MSHRTable(f"{name}.mshr", cfg.mshr_entries, MSHR_MAX_MERGE)
        self.access_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.access_queue", cfg.access_queue_depth
        )
        self.miss_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.miss_queue", cfg.miss_queue_depth
        )
        self.response_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.response_queue", cfg.response_queue_depth
        )
        self.banks = [
            _Bank(
                pipe=DelayPipe(f"{name}.bank{i}", cfg.bank_latency),
                depth=cfg.bank_latency,
            )
            for i in range(cfg.banks)
        ]
        self._port_cycles = config.l2_port_cycles
        self._port_free_at = 0
        #: Responses awaiting the data port (produced by fills).
        self._pending_responses: deque[MemoryRequest] = deque()
        self._pending_cap = 4 * MSHR_MAX_MERGE
        #: Set by the GPU wiring: the DRAM channel whose return queue we drain.
        self.dram = None
        # --- statistics ---
        self.store_hits: int = 0
        self.store_completions: int = 0
        self.writebacks: int = 0
        self.fills: int = 0
        self.port_busy_cycles: int = 0

    # ------------------------------------------------------------------
    # component protocol
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        # Each stage runs only when it has input, so an idle slice costs a
        # few truth tests and the bank scan.
        if self.dram is not None and self.dram.return_queue._items:
            self._process_fills(now)
        if self._pending_responses:
            self._emit_pending_responses(now)
        # Bank outputs: a free register takes its ready pipe head; a held
        # output is re-resolved unless gated on an unchanged miss epoch
        # (read once per scan: resolving an output never moves it).
        epoch = -1
        for bank in self.banks:
            if bank.output is None:
                heap = bank.pipe._heap
                if not heap or heap[0][0] > now:
                    continue
                bank.output = heappop(heap)[2]
            else:
                if epoch < 0:
                    epoch = self.mshr.releases + self.miss_queue.pops
                if bank.wait_epoch == epoch:
                    continue  # nothing the miss-path stall waits on changed
            if self._resolve(bank, now):
                bank.output = None
        if self.access_queue._items:
            self._step_bank_inputs(now)

    def next_wake(self, now: int) -> int:
        if self._pending_responses or (
            self.dram is not None and self.dram.return_queue._items
        ):
            return now
        items = self.access_queue._items
        if items:
            bank = self.banks[
                (items[0].line >> self._part_shift) & self._bank_mask]
            if len(bank.pipe._heap) < bank.depth:
                return now
            # Head-of-line blocked on a full bank pipe: it frees only
            # when that bank's output moves, which the loop below covers.
        # The remaining time-dependent state is in the banks: a held
        # output retries every cycle unless epoch-gated, and a free
        # output register takes its pipe head once that is ready.
        epoch = self.mshr.releases + self.miss_queue.pops
        wake = WAKE_NEVER
        for bank in self.banks:
            if bank.output is not None:
                if bank.wait_epoch != epoch:
                    return now
                continue  # gated: DRAM admits or fills wake it
            heap = bank.pipe._heap
            if heap and heap[0][0] < wake:
                wake = heap[0][0]
        return wake if wake > now else now

    # ------------------------------------------------------------------
    # fills from DRAM
    # ------------------------------------------------------------------
    def _process_fills(self, now: int) -> None:
        """Install at most one returning DRAM line per cycle."""
        return_queue = self.dram.return_queue
        if len(self._pending_responses) >= self._pending_cap:
            return  # back-pressure towards DRAM
        response = return_queue.pop(now)
        line = response.line
        entry = self.mshr.release(line, now)
        self.tags.fill(line >> self._part_shift, now, dirty=entry.has_store)
        self.fills += 1
        response.timestamps["l2_fill"] = now
        for original in entry.requests:
            if original.kind is AccessKind.LOAD:
                original.is_response = True
                original.timestamps["l2_fill"] = now
                self._pending_responses.append(original)
            else:
                self.store_completions += 1
                original.retired = True  # store data merged into the line

    def _emit_pending_responses(self, now: int) -> None:
        """Push fill responses through the data port into the response queue."""
        pending = self._pending_responses
        response_queue = self.response_queue
        while (
            pending
            and now >= self._port_free_at
            and len(response_queue._items) < response_queue.capacity
        ):
            response = pending.popleft()
            response.timestamps["l2_out"] = now
            response_queue.push(response, now)
            self._port_free_at = now + self._port_cycles
            self.port_busy_cycles += self._port_cycles

    # ------------------------------------------------------------------
    # bank pipeline
    # ------------------------------------------------------------------
    def _resolve(self, bank: _Bank, now: int) -> bool:
        """Try to retire the bank's output; False => it stays held.

        A miss-path stall (merge slots, MSHR table or miss-queue slots
        exhausted) can only clear when an MSHR entry is released or the
        miss queue pops, so it records that epoch in ``bank.wait_epoch``
        and is not retried before it moves.  Load hits blocked on the
        port or response queue and reservation failures retry every
        cycle, since each attempt re-stamps LRU or counts a failure.
        """
        request = bank.output
        timestamps = request.timestamps
        local = request.line >> self._part_shift
        tags = self.tags
        hit = tags.lookup(local, now, count=False)
        if "l2_probed" not in timestamps:
            # Count the access outcome once, not once per blocked retry.
            timestamps["l2_probed"] = now
            lookups = tags.lookups
            lookups.denominator += 1
            if hit:
                lookups.numerator += 1
        if hit:
            if request.kind is AccessKind.STORE:
                tags.mark_dirty(local)
                self.store_hits += 1
                self.store_completions += 1
                timestamps["l2_hit"] = now
                request.retired = True  # write-through store ends at L2
                return True
            # Load hit: needs the data port and a response-queue slot.
            response_queue = self.response_queue
            if (
                now < self._port_free_at
                or len(response_queue._items) >= response_queue.capacity
            ):
                return False
            request.is_response = True
            timestamps["l2_hit"] = now
            timestamps["l2_out"] = now
            response_queue.push(request, now)
            self._port_free_at = now + self._port_cycles
            self.port_busy_cycles += self._port_cycles
            return True
        # Miss path.
        mshr = self.mshr
        entry = mshr._entries.get(request.line)
        if entry is not None and len(entry.requests) < mshr.max_merge:
            mshr.merge(request, now)
            request.l2_miss = True
            timestamps["l2_miss"] = now
            return True
        # Reserving may evict a dirty line needing a writeback slot, so
        # a new entry demands two free miss-queue slots before committing.
        miss_queue = self.miss_queue
        if (
            entry is not None  # merge slots exhausted
            or len(mshr._entries) >= mshr.capacity
            or miss_queue.capacity - len(miss_queue._items) < 2
        ):
            bank.wait_epoch = mshr.releases + miss_queue.pops
            return False
        evicted = tags.reserve(local, now)
        if evicted is False:
            return False  # reservation failure: every way pending a fill
        mshr.allocate(request, now)
        request.l2_miss = True
        timestamps["l2_miss"] = now
        if evicted is not None and evicted.dirty:
            self._emit_writeback(evicted.line, request, now)
        miss_queue.push(request, now)
        return True

    def _emit_writeback(
        self, local_line: int, cause: MemoryRequest, now: int
    ) -> None:
        """Queue a writeback of an evicted dirty local line to DRAM."""
        global_line = (local_line << self._part_shift) | self.partition_id
        writeback = MemoryRequest(
            rid=-cause.rid - 1,  # negative ids mark internally generated traffic
            kind=AccessKind.WRITEBACK,
            line=global_line,
            sm_id=-1,
            warp_id=-1,
            issued_at=now,
        )
        writeback.timestamps["l2_writeback"] = now
        self.writebacks += 1
        self.miss_queue.push(writeback, now)

    def _step_bank_inputs(self, now: int) -> None:
        """Feed access-queue heads into their banks, at most one accept
        per bank per cycle, stopping at the first head that cannot go."""
        queue = self.access_queue
        items = queue._items
        shift = self._part_shift
        mask = self._bank_mask
        accepted = 0  # bitmask of banks that took a request this cycle
        while items:
            bank_idx = (items[0].line >> shift) & mask
            bank = self.banks[bank_idx]
            if accepted >> bank_idx & 1 or len(bank.pipe._heap) >= bank.depth:
                break  # head-of-line blocking on a busy bank
            request = queue.pop(now)
            request.timestamps["l2_in"] = now
            bank.pipe.insert(request, now)
            accepted |= 1 << bank_idx

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return (
            self.access_queue.empty
            and self.miss_queue.empty
            and self.response_queue.empty
            and not self._pending_responses
            and len(self.mshr) == 0
            and all(b.output is None and b.pipe.empty for b in self.banks)
        )

    def finalize(self, now: int) -> None:
        self.access_queue.finalize(now)
        self.miss_queue.finalize(now)
        self.response_queue.finalize(now)
        self.mshr.finalize(now)

    # ------------------------------------------------------------------
    # sanitizer / telemetry introspection
    # ------------------------------------------------------------------
    def sample_queues(self):
        return (
            ("l2_accessq", self.access_queue),
            ("l2_missq", self.miss_queue),
            ("l2_respq", self.response_queue),
        )

    def sample_mshrs(self):
        return (("l2_mshr", self.mshr),)

    def sample_counters(self):
        return (
            ("l2_fills", self.fills),
            ("l2_writebacks", self.writebacks),
            ("l2_port_busy_cycles", self.port_busy_cycles),
        )

    def inspect_inflight(self):
        for bank in self.banks:
            yield from bank.pipe
            if bank.output is not None:
                yield bank.output
        yield from self._pending_responses
