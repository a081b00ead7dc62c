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


@dataclass(slots=True)
class _Way:
    tag: int = -1
    state: LineState = LineState.INVALID
    dirty: bool = False


@dataclass(frozen=True, slots=True)
class Eviction:
    """Description of a line displaced by a reserve/fill."""

    line: int
    dirty: bool


class TagArray:
    """Tags + state for one cache; indexed by line index."""

    def __init__(self, name: str, n_sets: int, assoc: int) -> None:
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ConfigError(f"{name}: n_sets must be a power of two, got {n_sets}")
        if assoc < 1:
            raise ConfigError(f"{name}: assoc must be >= 1")
        self.name = name
        self.n_sets = n_sets
        self.assoc = assoc
        self._sets = [[_Way() for _ in range(assoc)] for _ in range(n_sets)]
        #: Per-set ``line -> way index`` for the non-INVALID ways, so the
        #: per-access probe is a dict lookup instead of a way scan.
        #: Maintained by reserve/fill/invalidate (the only tag mutators).
        self._tag_map: list[dict[int, int]] = [{} for _ in range(n_sets)]
        #: Per-set, per-way cycle of the last hit or fill (LRU stamps).
        self._last_use = [[-1] * assoc for _ in range(n_sets)]
        self.lookups = RatioStat(f"{name}.hit_rate")
        #: Reservation failures (all candidate ways of a set reserved).
        self.reservation_fails: int = 0

    # ------------------------------------------------------------------
    # indexing helpers
    # ------------------------------------------------------------------
    def _find(self, line: int) -> tuple[int, int | None]:
        set_idx = line & (self.n_sets - 1)
        return set_idx, self._tag_map[set_idx].get(line)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def lookup(self, line: int, now: int, *, count: bool = True) -> bool:
        """Probe for ``line``; True only for a VALID line (hit).

        A RESERVED match is *not* a hit (the data has not arrived), but the
        caller can detect it via :meth:`state_of` to merge into an MSHR.
        Updates the way's LRU stamp and the hit-rate statistic on hits.
        """
        set_idx, way_idx = self._find(line)
        hit = way_idx is not None and (
            self._sets[set_idx][way_idx].state is LineState.VALID
        )
        if count:
            if hit:
                self.lookups.hit()
            else:
                self.lookups.miss()
        if hit:
            self._last_use[set_idx][way_idx] = now
        return hit

    def state_of(self, line: int) -> LineState:
        """Current state of ``line`` (INVALID if not present)."""
        set_idx, way_idx = self._find(line)
        if way_idx is None:
            return LineState.INVALID
        return self._sets[set_idx][way_idx].state

    def mark_dirty(self, line: int) -> None:
        """Mark a VALID line dirty (write hit)."""
        set_idx, way_idx = self._find(line)
        if way_idx is None or self._sets[set_idx][way_idx].state is not LineState.VALID:
            raise SimulationError(f"{self.name}: mark_dirty on absent line {line:#x}")
        self._sets[set_idx][way_idx].dirty = True

    def _allocate(self, set_idx: int, line: int) -> tuple[int, Eviction | None] | None:
        """Claim a way for ``line`` in RESERVED state; None when every way
        is reserved.  Single pass: stops at the first INVALID way, else
        evicts the least recently used VALID way (strict <, so the first
        minimum wins ties)."""
        ways = self._sets[set_idx]
        stamps = self._last_use[set_idx]
        victim_idx = None
        evicted = None
        best_stamp = 0
        for way_idx, way in enumerate(ways):
            state = way.state
            if state is LineState.INVALID:
                victim_idx = way_idx
                break
            if state is LineState.VALID:
                stamp = stamps[way_idx]
                if victim_idx is None or stamp < best_stamp:
                    victim_idx = way_idx
                    best_stamp = stamp
        else:
            if victim_idx is None:
                return None
            victim = ways[victim_idx]
            evicted = Eviction(line=victim.tag, dirty=victim.dirty)
            del self._tag_map[set_idx][victim.tag]
        way = ways[victim_idx]
        way.tag = line
        way.state = LineState.RESERVED
        way.dirty = False
        self._tag_map[set_idx][line] = victim_idx
        return victim_idx, evicted

    def reserve(self, line: int, now: int) -> Eviction | None | bool:
        """Reserve a way for a future fill of ``line``.

        Returns ``False`` on reservation failure (every way reserved),
        otherwise the :class:`Eviction` displaced (or None).  The victim is
        the least recently used non-reserved way, preferring invalid ways.
        """
        result = self._allocate(line & (self.n_sets - 1), line)
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
        set_idx = line & (self.n_sets - 1)
        way_idx = self._tag_map[set_idx].get(line)
        evicted: Eviction | None = None
        if way_idx is None:
            result = self._allocate(set_idx, line)
            if result is None:
                raise SimulationError(
                    f"{self.name}: fill of {line:#x} found no allocatable way"
                )
            way_idx, evicted = result
        way = self._sets[set_idx][way_idx]
        way.state = LineState.VALID
        way.dirty = dirty
        self._last_use[set_idx][way_idx] = now
        return evicted

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if present and VALID; True when something dropped."""
        set_idx, way_idx = self._find(line)
        if way_idx is None:
            return False
        way = self._sets[set_idx][way_idx]
        if way.state is not LineState.VALID:
            return False
        del self._tag_map[set_idx][line]
        way.state = LineState.INVALID
        way.tag = -1
        way.dirty = False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        return self.lookups.ratio

    def occupancy(self) -> int:
        """Number of VALID lines currently held."""
        return sum(
            1
            for ways in self._sets
            for way in ways
            if way.state is LineState.VALID
        )

    def reserved_count(self) -> int:
        """Number of RESERVED ways (outstanding fills)."""
        return sum(
            1
            for ways in self._sets
            for way in ways
            if way.state is LineState.RESERVED
        )
