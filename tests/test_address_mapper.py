"""Address-mapping tests: partition/bank/row decomposition invariants."""

from hypothesis import given, strategies as st

from repro.mem.address import AddressMapper
from repro.sim.config import DRAM_ROW_BYTES, GPUConfig, tiny_gpu


def test_partitions_interleave_consecutive_lines():
    mapper = AddressMapper(GPUConfig())
    partitions = [mapper.partition(line) for line in range(8)]
    assert partitions == [0, 1, 2, 3, 0, 1, 2, 3]


def test_local_line_strips_partition_bits():
    mapper = AddressMapper(GPUConfig())
    assert mapper.local_line(0) == 0
    assert mapper.local_line(4) == 1
    assert mapper.local_line(9) == 2


def test_l2_bank_alternates_within_partition():
    cfg = GPUConfig()
    mapper = AddressMapper(cfg)
    # lines mapping to partition 0: 0, 4, 8, 12 -> locals 0,1,2,3
    banks = [mapper.l2_bank(line) for line in (0, 4, 8, 12)]
    assert banks == [0, 1, 0, 1]


def test_row_layout_gives_streaming_row_runs():
    """Consecutive local lines share a DRAM row for row_lines accesses."""
    cfg = GPUConfig()
    mapper = AddressMapper(cfg)
    row_lines = DRAM_ROW_BYTES // cfg.line_bytes
    part0_lines = [line for line in range(0, 4 * row_lines * 4, 4)]
    rows_banks = [(mapper.dram_bank(l), mapper.dram_row(l)) for l in part0_lines]
    # First row_lines lines: same (bank, row).
    assert len(set(rows_banks[:row_lines])) == 1
    # The next chunk moves to another bank.
    assert rows_banks[row_lines] != rows_banks[0]


@given(st.integers(0, 2**40))
def test_decomposition_is_injective(line):
    """(partition, bank, row, column) uniquely reconstructs the line."""
    cfg = tiny_gpu()
    mapper = AddressMapper(cfg)
    part = mapper.partition(line)
    local = mapper.local_line(line)
    assert 0 <= part < cfg.n_partitions
    assert local * cfg.n_partitions + part == line
    assert 0 <= mapper.dram_bank(line) < cfg.dram.banks
    assert 0 <= mapper.l2_bank(line) < cfg.l2.banks
    assert mapper.dram_row(line) >= 0


@given(st.integers(0, 2**30), st.integers(0, 2**30))
def test_same_partition_iff_congruent(a, b):
    mapper = AddressMapper(GPUConfig())
    same = mapper.partition(a) == mapper.partition(b)
    assert same == ((a - b) % 4 == 0)


def test_single_partition_mapping():
    """n_partitions=1: every line is local and partition 0."""
    import dataclasses

    cfg = dataclasses.replace(tiny_gpu(), n_partitions=1)
    mapper = AddressMapper(cfg)
    for line in (0, 1, 17, 12345):
        assert mapper.partition(line) == 0
        assert mapper.local_line(line) == line
