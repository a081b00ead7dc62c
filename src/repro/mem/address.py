"""Address mapping across partitions, L2 banks and DRAM banks/rows.

All mapping operates on *line indices* (byte address / line size).  Lines
are interleaved across memory partitions at line granularity, matching
GPGPU-Sim's default: consecutive lines hit different partitions, spreading
bandwidth demand.  Within a partition the *local* line index is laid out as

    [ row | dram bank | column ]

so a streaming access pattern produces runs of row-buffer hits on one bank
before moving to the next bank, while the L2 bank is taken from the low
local bits so consecutive local lines alternate L2 banks.
"""

from __future__ import annotations

from repro.sim.config import DRAM_ROW_BYTES, GPUConfig


class AddressMapper:
    """Precomputed masks/shifts for the partition/bank/row mapping."""

    def __init__(self, config: GPUConfig) -> None:
        self.n_partitions = config.n_partitions
        self.part_mask = config.n_partitions - 1
        #: Width of the partition bits at the bottom of a global line
        #: index.  ``part_shift``, ``part_mask`` and ``l2_bank_mask`` are
        #: public so per-request code can apply them inline.
        self.part_shift = self.part_mask.bit_length()
        self.l2_banks = config.l2.banks
        self.l2_bank_mask = config.l2.banks - 1
        self.dram_banks = config.dram.banks
        self._dram_bank_mask = config.dram.banks - 1
        self.row_lines = DRAM_ROW_BYTES // config.line_bytes
        self._row_shift = self.row_lines.bit_length() - 1
        self._bank_row_shift = self.part_shift + self._row_shift
        self._row_line_shift = (
            self._bank_row_shift + self._dram_bank_mask.bit_length())

    def partition(self, line: int) -> int:
        """Memory partition servicing ``line``."""
        return line & self.part_mask

    def local_line(self, line: int) -> int:
        """Line index within its partition's local address space."""
        return line >> self.part_shift

    # The accessors below inline local_line(): they run per request.
    def l2_bank(self, line: int) -> int:
        """L2 bank within the partition."""
        return (line >> self.part_shift) & self.l2_bank_mask

    def dram_bank(self, line: int) -> int:
        """DRAM bank within the partition's channel."""
        return (line >> self._bank_row_shift) & self._dram_bank_mask

    def dram_row(self, line: int) -> int:
        """DRAM row within the bank."""
        return line >> self._row_line_shift
