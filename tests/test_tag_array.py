"""Tag-array tests: lookup, reservation, fill, eviction, statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.cache.tag_array import Eviction, LineState, TagArray


def make(n_sets=4, assoc=2):
    return TagArray("t", n_sets, assoc)


class TestBasics:
    def test_pow2_sets_required(self):
        with pytest.raises(ConfigError):
            TagArray("t", 3, 2)

    def test_miss_then_hit_after_fill(self):
        tags = make()
        assert not tags.lookup(0x10, 0)
        tags.fill(0x10, 1)
        assert tags.lookup(0x10, 2)
        assert tags.lookups.denominator == 2
        assert tags.lookups.numerator == 1

    def test_reserved_line_is_not_a_hit(self):
        tags = make()
        tags.reserve(0x20, 0)
        assert not tags.lookup(0x20, 1)
        assert tags.state_of(0x20) is LineState.RESERVED

    def test_fill_promotes_reserved(self):
        tags = make()
        tags.reserve(0x20, 0)
        evicted = tags.fill(0x20, 1)
        assert evicted is None  # eviction happened at reserve time
        assert tags.state_of(0x20) is LineState.VALID


class TestEviction:
    def test_lru_eviction_order(self):
        tags = make(n_sets=1, assoc=2)
        tags.fill(1, 10)
        tags.fill(2, 20)
        tags.lookup(1, 30)  # 1 becomes MRU
        evicted = tags.fill(3, 40)
        assert evicted == Eviction(line=2, dirty=False)

    def test_lru_stamps_are_per_set(self):
        tags = make(n_sets=2, assoc=2)
        tags.fill(0, 1)  # set 0
        tags.fill(2, 2)  # set 0
        tags.fill(1, 9)  # set 1
        tags.fill(3, 3)  # set 1
        assert tags.fill(4, 10).line == 0  # oldest in set 0
        assert tags.fill(5, 11).line == 3  # oldest in set 1, not line 0

    def test_dirty_eviction_reports_dirty(self):
        tags = make(n_sets=1, assoc=1)
        tags.fill(1, 0, dirty=True)
        evicted = tags.fill(2, 1)
        assert evicted.dirty and evicted.line == 1

    def test_mark_dirty_then_evict(self):
        tags = make(n_sets=1, assoc=1)
        tags.fill(1, 0)
        tags.mark_dirty(1)
        evicted = tags.fill(2, 1)
        assert evicted.dirty

    def test_reservation_failure_when_all_ways_reserved(self):
        tags = make(n_sets=1, assoc=2)
        assert tags.reserve(1, 0) is None
        assert tags.reserve(2, 0) is None
        assert tags.reserve(3, 0) is False
        assert tags.reservation_fails == 1

    def test_reserved_ways_never_evicted(self):
        tags = make(n_sets=1, assoc=2)
        tags.reserve(1, 0)
        tags.fill(2, 1)  # valid line in the other way
        evicted = tags.reserve(3, 2)
        assert evicted is not None and evicted.line == 2
        assert tags.state_of(1) is LineState.RESERVED


class TestInvalidate:
    def test_invalidate_valid_line(self):
        tags = make()
        tags.fill(5, 0)
        assert tags.invalidate(5)
        assert not tags.lookup(5, 1)

    def test_invalidate_absent_is_noop(self):
        tags = make()
        assert not tags.invalidate(5)

    def test_invalidate_reserved_is_refused(self):
        tags = make()
        tags.reserve(5, 0)
        assert not tags.invalidate(5)
        assert tags.state_of(5) is LineState.RESERVED


class TestOccupancy:
    def test_occupancy_counts(self):
        tags = make(n_sets=2, assoc=2)
        tags.fill(0, 0)
        tags.fill(1, 0)
        tags.reserve(2, 0)
        assert tags.occupancy() == 2
        assert tags.reserved_count() == 1

    def test_counts_span_every_set_of_the_flat_layout(self):
        tags = make(n_sets=4, assoc=2)
        for line in range(8):  # both ways of all four sets
            if line % 2:
                tags.reserve(line, line)
            else:
                tags.fill(line, line)
        assert (tags.occupancy(), tags.reserved_count()) == (4, 4)
        tags.fill(1, 10)  # a reserved way turns VALID
        tags.invalidate(0)
        assert (tags.occupancy(), tags.reserved_count()) == (4, 3)

    def test_evictions_stay_within_their_set(self):
        tags = make(n_sets=4, assoc=2)
        others = [1, 2, 3, 5, 6, 7]  # both ways of sets 1-3
        for t, line in enumerate(others):
            tags.fill(line, t)
        set0 = slice(0, tags.assoc)
        rest = slice(tags.assoc, None)
        before = (tags._tag[rest], tags._state[rest], tags._dirty[rest],
                  tags._last_use[rest])
        evicted = [tags.fill(4 * k, 100 + k) for k in range(10)]
        assert [e.line for e in evicted if e] == [4 * k for k in range(8)]
        assert sorted(tags._tag[set0]) == [32, 36]
        assert (tags._tag[rest], tags._state[rest], tags._dirty[rest],
                tags._last_use[rest]) == before
        assert all(tags.state_of(line) is LineState.VALID for line in others)


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=200),
)
def test_fill_lookup_consistency(lines):
    """After filling a line it stays a hit until a conflicting fill evicts it."""
    tags = TagArray("t", 4, 2)
    resident: dict[int, int] = {}  # line -> fill order
    for t, line in enumerate(lines):
        evicted = tags.fill(line, t)
        resident[line] = t
        if evicted is not None:
            assert evicted.line in resident
            del resident[evicted.line]
        # every resident line must hit; capacity respected per set
        assert tags.occupancy() == len(resident)
    for line in resident:
        assert tags.lookup(line, 10_000, count=False)
