"""DRAM channel controller (one per memory partition).

Pipeline per cycle:

1. retire finished accesses — reads into the return queue towards L2
   (head-of-line stall when that queue is full), writes complete silently;
2. pull requests from the partition's L2 miss queue into the Table I
   *scheduler queue* (the structure whose full-time Section III reports);
3. issue one DRAM command chosen by the scheduling policy: a CAS dequeues
   the request and books its line transfer on the data bus
   (``line_bytes / (bus_bytes * DRAM_DATA_RATE)`` cycles — the Table I
   bus-width lever); a precharge+activate opens a row while the request
   *stays in the scheduler queue* — so a loaded channel shows up as a full
   scheduler queue, exactly what Section III measures.

A CAS only issues when the data bus is booked at most a small window
ahead, and reads only while in-flight reads leave headroom in the return
queue, so completions can never wedge the controller.

A scheduler scan that finds no command is not repeated until its answer
can change: a bank's timing expires, the bus gate opens, a request is
admitted, the L2 pops the return queue, or a refresh runs.
"""

from __future__ import annotations

from heapq import heappop

from repro.dram.bankstate import BankFile
from repro.dram.scheduler import ACTIVATE, make_scheduler
from repro.mem.address import AddressMapper
from repro.mem.pipe import DelayPipe
from repro.mem.queue import StatQueue
from repro.mem.request import AccessKind, MemoryRequest
from repro.sim.component import WAKE_NEVER, Component
from repro.sim.config import DRAM_BUS_WINDOW_TRANSFERS, GPUConfig
from repro.utils.stats import Accumulator


class DRAMChannel(Component):
    """One GDDR channel plus its controller."""

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
        self._mapper = mapper
        cfg = config.dram
        self.sched_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.sched_queue", cfg.sched_queue_depth
        )
        self.return_queue: StatQueue[MemoryRequest] = StatQueue(
            f"{name}.return_queue", cfg.return_queue_depth
        )
        #: Flat per-bank timing vectors and row-outcome counters.
        self.bank_file = BankFile(cfg.banks)
        self._scheduler = make_scheduler(cfg.scheduler)
        self._transfer_cycles = config.dram_transfer_cycles
        # The bus may be booked up to DRAM_BUS_WINDOW_TRANSFERS transfers
        # beyond the earliest possible data arrival (now + tCAS); measuring
        # from ``now`` alone would lock the channel whenever tCAS exceeds
        # the window.
        self._bus_window = DRAM_BUS_WINDOW_TRANSFERS * self._transfer_cycles
        self._bus_free_at = 0
        self._completions: DelayPipe[MemoryRequest] = DelayPipe(
            f"{name}.completions", 0
        )
        self._reads_in_flight = 0
        self._next_refresh = cfg.refresh_interval or None
        #: Select gate: after a scan found nothing at event epoch
        #: ``_idle_epoch`` (see :meth:`_epoch`), the next scan waits for
        #: cycle ``_retry_at`` or for the epoch to move.
        self._idle_epoch = -1
        self._retry_at = 0
        #: Set by the GPU wiring: the L2 slice whose miss queue we drain.
        self.l2 = None
        # --- statistics ---
        self.reads: int = 0
        self.writes: int = 0
        self.refreshes: int = 0
        self.bus_busy_cycles: int = 0
        self.service_latency = Accumulator(f"{name}.service_latency")

    # ------------------------------------------------------------------
    # component protocol
    # ------------------------------------------------------------------
    def step(self, now: int) -> None:
        sched = self.sched_queue._items
        heap = self._completions._heap
        miss = self.l2.miss_queue._items if self.l2 is not None else ()
        # Fast path: controller completely idle and nothing to admit.
        if not (sched or heap or miss):
            return
        if self._next_refresh is not None and now >= self._next_refresh:
            self._refresh(now)
        if heap and heap[0][0] <= now:
            self._retire(now)
        if miss and len(sched) < self.sched_queue.capacity:
            self._admit(now)
        if sched:
            # Rescan only once the last scan's answer can have changed:
            # its retry cycle came or the event epoch moved (inlined
            # _epoch(): per-cycle path).
            epoch = (self.sched_queue.pushes + self.return_queue.pops
                     + self.refreshes)
            if now >= self._retry_at or epoch != self._idle_epoch:
                self._issue(now, epoch)

    def next_wake(self, now: int) -> int:
        # Mirrors step(): the idle fast path defers even refreshes, so an
        # idle channel sleeps until external input (the L2 miss queue,
        # which the L2's own hint covers).
        sched = self.sched_queue._items
        heap = self._completions._heap
        miss = self.l2.miss_queue._items if self.l2 is not None else ()
        if not (sched or heap or miss):
            return WAKE_NEVER
        if miss and len(sched) < self.sched_queue.capacity:
            return now  # admit
        # Busy channels take refresh lockouts at their due cycle.
        refresh = self._next_refresh
        wake = WAKE_NEVER if refresh is None else refresh
        if heap and heap[0][0] < wake:
            wake = heap[0][0]  # a completion retires (or head-of-line blocks)
        if sched:
            # A gated scan waits for its retry cycle; otherwise a command
            # can issue as soon as any bank's timing expires.
            if self._epoch() == self._idle_epoch:
                retry = self._retry_at
            else:
                retry = self.bank_file.min_busy()
            if retry < wake:
                wake = retry
        return wake if wake > now else now

    def _epoch(self) -> int:
        """Count of the events that can change a scan's answer other than
        time: admits, return-queue pops (the only change to read
        headroom, since a retire moves a read from in-flight into the
        queue) and refreshes."""
        return self.sched_queue.pushes + self.return_queue.pops + self.refreshes

    def _refresh(self, now: int) -> None:
        """Lock every bank out for a refresh and close its row."""
        cfg = self._config.dram
        self.bank_file.lockout(now + cfg.refresh_cycles)
        self.refreshes += 1
        # Catch up if the channel idled through several intervals.
        while self._next_refresh <= now:
            self._next_refresh += cfg.refresh_interval

    def _retire(self, now: int) -> None:
        heap = self._completions._heap
        return_queue = self.return_queue
        while heap and heap[0][0] <= now:
            request = heap[0][2]
            if request.kind is AccessKind.WRITEBACK:
                heappop(heap)
                request.timestamps["dram_done"] = now
                request.retired = True  # writebacks terminate at DRAM
                self.writes += 1
            else:
                # LOADs and write-allocate STORE fetches both return data to
                # the L2 so their MSHR entries release.
                if len(return_queue._items) >= return_queue.capacity:
                    break  # L2 fill path congested; hold completions
                heappop(heap)
                request.timestamps["dram_done"] = now
                self._reads_in_flight -= 1
                return_queue.push(request, now)

    def _admit(self, now: int) -> None:
        """Move one request from the L2 miss queue to the scheduler queue;
        :meth:`step` calls it once per cycle while the scheduler queue has
        room (back-pressure lands in the miss queue when it is full)."""
        request = self.l2.miss_queue.pop(now)
        request.timestamps["dram_in"] = now
        # Cache the bank/row coordinates once; the scheduler's
        # first-ready scan consults them every cycle the request waits.
        request.dram_bank = self._mapper.dram_bank(request.line)
        request.dram_row = self._mapper.dram_row(request.line)
        self.sched_queue.push(request, now)

    def _issue(self, now: int, epoch: int) -> None:
        """One scheduler scan at event epoch ``epoch`` (see :meth:`step`)."""
        bank_file = self.bank_file
        timing = self._config.dram
        bus_gate_ok = (
            self._bus_free_at - (now + timing.t_cas) <= self._bus_window
        )
        # Both command kinds need a bank whose timing has expired, so a
        # channel with every bank mid-access skips the queue scan.  Short
        # of an event, only time changes a failed scan's answer: a bank's
        # timing expiring or the bus gate opening.
        choice = None
        retry = min(bank_file.busy_until)
        if retry <= now:
            choice = self._scheduler.select(
                self.sched_queue,
                bank_file.busy_until,
                bank_file.open_row,
                now,
                bus_gate_ok,
                self.return_queue.capacity - len(self.return_queue._items)
                - self._reads_in_flight,
            )
            retry = WAKE_NEVER
            if choice is None:
                for busy in bank_file.busy_until:
                    if now < busy < retry:
                        retry = busy
        if choice is None:
            if not bus_gate_ok:
                opens = self._bus_free_at - timing.t_cas - self._bus_window
                if opens < retry:
                    retry = opens
            self._idle_epoch = epoch
            self._retry_at = retry
            return
        command, request = choice
        bank = request.dram_bank
        row = request.dram_row
        if command == ACTIVATE:
            # Precharge (if a row is open) + activate; the request stays in
            # the scheduler queue until its CAS.
            if bank_file.open_row[bank] < 0:
                bank_file.row_closed[bank] += 1
                bank_file.busy_until[bank] = now + timing.t_rcd
            else:
                bank_file.row_conflicts[bank] += 1
                bank_file.busy_until[bank] = now + timing.t_rp + timing.t_rcd
            bank_file.open_row[bank] = row
            request.timestamps.setdefault("dram_act", now)
            return
        # CAS: dequeue, book the data bus, schedule completion.
        if "dram_act" not in request.timestamps:
            bank_file.row_hits[bank] += 1
        data_start = max(now + timing.t_cas, self._bus_free_at)
        done = data_start + self._transfer_cycles
        self._bus_free_at = done
        self.bus_busy_cycles += self._transfer_cycles
        self.sched_queue.remove(request, now)
        self.service_latency.add(done - now)
        if request.kind is not AccessKind.WRITEBACK:
            self._reads_in_flight += 1
            self.reads += 1
        self._completions.insert_at(request, done)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        return (
            self.sched_queue.empty
            and self.return_queue.empty
            and self._completions.empty
        )

    def finalize(self, now: int) -> None:
        self.sched_queue.finalize(now)
        self.return_queue.finalize(now)

    # ------------------------------------------------------------------
    # sanitizer / telemetry introspection
    # ------------------------------------------------------------------
    def inspect_inflight(self):
        yield from self._completions

    def sample_queues(self):
        return (
            ("dram_schedq", self.sched_queue),
            ("dram_returnq", self.return_queue),
        )

    def sample_counters(self):
        return (
            ("dram_bus_busy_cycles", self.bus_busy_cycles),
            ("dram_reads", self.reads),
            ("dram_writes", self.writes),
        )

    @property
    def row_hit_rate(self) -> float:
        total = self.total_accesses
        return sum(self.bank_file.row_hits) / total if total else 0.0

    @property
    def total_accesses(self) -> int:
        banks = self.bank_file
        return (sum(banks.row_hits) + sum(banks.row_conflicts)
                + sum(banks.row_closed))
