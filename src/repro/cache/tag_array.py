"""Set-associative tag array with line reservation.

The tag array tracks line *state* only (tags, valid/reserved/dirty); data
movement is modelled by the latencies of the surrounding controllers.

Reservation implements GPGPU-Sim's miss handling: on a miss the controller
reserves a victim way for the future fill.  While reserved, the way cannot
be evicted — if every candidate way of a set is reserved, the controller
suffers a *reservation failure* and must retry, which is one of the
resource-contention effects the paper calls out ("prolonged contention of
cache resources such as MSHRs and replaceable cache lines").

Replacement is LRU, the GPGPU-Sim / paper baseline, tracked with per-way
last-use stamps written on every hit and fill.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.utils.stats import RatioStat


class LineState(enum.Enum):
    INVALID = 0
    VALID = 1
    #: Way held for an outstanding fill; not evictable.
    RESERVED = 2


@dataclass(frozen=True, slots=True)
class Eviction:
    """Description of a line displaced by a reserve/fill."""

    line: int
    dirty: bool


class TagArray:
    """Tags + state for one cache; indexed by line index.

    Storage is flat: way ``w`` of set ``s`` is slot ``s * assoc + w`` of
    the parallel ``_tag`` / ``_state`` / ``_dirty`` / ``_last_use``
    lists, and one ``line -> slot`` dict holds the non-INVALID slots, so
    the per-access probe is a dict lookup and construction builds no
    per-way objects.
    """

    def __init__(self, name: str, n_sets: int, assoc: int) -> None:
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ConfigError(f"{name}: n_sets must be a power of two, got {n_sets}")
        if assoc < 1:
            raise ConfigError(f"{name}: assoc must be >= 1")
        self.name = name
        self.n_sets = n_sets
        self.assoc = assoc
        slots = n_sets * assoc
        self._tag = [-1] * slots
        self._state = [LineState.INVALID] * slots
        self._dirty = [False] * slots
        #: Cycle of each slot's last hit or fill (LRU stamps).
        self._last_use = [-1] * slots
        #: ``line -> slot`` for the non-INVALID slots.  Maintained by
        #: reserve/fill/invalidate (the only tag mutators).
        self._slot_of: dict[int, int] = {}
        self.lookups = RatioStat(f"{name}.hit_rate")
        #: Reservation failures (all candidate ways of a set reserved).
        self.reservation_fails: int = 0

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def lookup(self, line: int, now: int, *, count: bool = True) -> bool:
        """Probe for ``line``; True only for a VALID line (hit).

        A RESERVED match is *not* a hit (the data has not arrived), but the
        caller can detect it via :meth:`state_of` to merge into an MSHR.
        Updates the way's LRU stamp and the hit-rate statistic on hits.
        """
        slot = self._slot_of.get(line)
        if slot is not None and self._state[slot] is LineState.VALID:
            if count:
                lookups = self.lookups
                lookups.numerator += 1
                lookups.denominator += 1
            self._last_use[slot] = now
            return True
        if count:
            self.lookups.denominator += 1
        return False

    def state_of(self, line: int) -> LineState:
        """Current state of ``line`` (INVALID if not present)."""
        slot = self._slot_of.get(line)
        if slot is None:
            return LineState.INVALID
        return self._state[slot]

    def mark_dirty(self, line: int) -> None:
        """Mark a VALID line dirty (write hit)."""
        slot = self._slot_of.get(line)
        if slot is None or self._state[slot] is not LineState.VALID:
            raise SimulationError(f"{self.name}: mark_dirty on absent line {line:#x}")
        self._dirty[slot] = True

    def _allocate(self, line: int) -> tuple[int, Eviction | None] | None:
        """Claim a slot in ``line``'s set in RESERVED state; None when
        every way is reserved.  Single pass: stops at the first INVALID
        way, else evicts the least recently used VALID way (strict <, so
        the first minimum wins ties)."""
        state = self._state
        stamps = self._last_use
        base = (line & (self.n_sets - 1)) * self.assoc
        victim = -1
        evicted = None
        best_stamp = 0
        for slot in range(base, base + self.assoc):
            slot_state = state[slot]
            if slot_state is LineState.INVALID:
                victim = slot
                break
            if slot_state is LineState.VALID:
                stamp = stamps[slot]
                if victim < 0 or stamp < best_stamp:
                    victim = slot
                    best_stamp = stamp
        else:
            if victim < 0:
                return None
            old = self._tag[victim]
            evicted = Eviction(line=old, dirty=self._dirty[victim])
            del self._slot_of[old]
        self._tag[victim] = line
        state[victim] = LineState.RESERVED
        self._dirty[victim] = False
        self._slot_of[line] = victim
        return victim, evicted

    def reserve(self, line: int, now: int) -> Eviction | None | bool:
        """Reserve a way for a future fill of ``line``.

        Returns ``False`` on reservation failure (every way reserved),
        otherwise the :class:`Eviction` displaced (or None).  The victim is
        the least recently used non-reserved way, preferring invalid ways.
        """
        result = self._allocate(line)
        if result is None:
            self.reservation_fails += 1
            return False
        return result[1]

    def fill(self, line: int, now: int, *, dirty: bool = False) -> Eviction | None:
        """Install ``line`` as VALID.

        Uses the previously reserved way when one exists; otherwise
        allocates a victim directly (the L1 path, which does not reserve).
        Returns any displaced line.
        """
        slot = self._slot_of.get(line)
        evicted: Eviction | None = None
        if slot is None:
            result = self._allocate(line)
            if result is None:
                raise SimulationError(
                    f"{self.name}: fill of {line:#x} found no allocatable way"
                )
            slot, evicted = result
        self._state[slot] = LineState.VALID
        self._dirty[slot] = dirty
        self._last_use[slot] = now
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present and VALID; True when something dropped."""
        slot = self._slot_of.get(line)
        if slot is None or self._state[slot] is not LineState.VALID:
            return False
        del self._slot_of[line]
        self._state[slot] = LineState.INVALID
        self._tag[slot] = -1
        self._dirty[slot] = False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.lookups.ratio

    def occupancy(self) -> int:
        """Number of VALID lines currently held."""
        return self._state.count(LineState.VALID)

    def reserved_count(self) -> int:
        """Number of RESERVED ways (outstanding fills)."""
        return self._state.count(LineState.RESERVED)
