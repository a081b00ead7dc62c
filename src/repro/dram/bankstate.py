"""Per-bank DRAM state.

Each bank tracks its open row and the cycle until which it is busy with the
current access (including the data transfer).  Service latency for a new
access depends on the row-buffer state:

* **row hit** — the requested row is open: CAS latency only.
* **row closed** — no row open: activate (tRCD) + CAS.
* **row conflict** — a different row is open: precharge (tRP) + activate
  (tRCD) + CAS.

Storage layout
--------------

All bank state lives in a :class:`BankFile`: flat integer vectors
(``busy_until``, ``open_row`` and the row-outcome counters) indexed by
bank, which the controller and the scheduling policies scan every cycle
without touching a Python object per bank.
"""

from __future__ import annotations

#: ``open_row`` sentinel for a closed (precharged) bank.  Real row ids are
#: non-negative, so equality against a request's row never matches it.
NO_ROW = -1


class BankFile:
    """Flat per-bank state vectors for one DRAM channel."""

    __slots__ = (
        "n_banks",
        "busy_until",
        "open_row",
        "row_hits",
        "row_conflicts",
        "row_closed",
    )

    def __init__(self, n_banks: int) -> None:
        self.n_banks = n_banks
        #: Cycle until which each bank is busy with its current command.
        self.busy_until: list[int] = [0] * n_banks
        #: Open row per bank (:data:`NO_ROW` = closed).
        self.open_row: list[int] = [NO_ROW] * n_banks
        #: Row-buffer outcome statistics (cold path: plain lists).
        self.row_hits = [0] * n_banks
        self.row_conflicts = [0] * n_banks
        self.row_closed = [0] * n_banks

    def min_busy(self) -> int:
        """Earliest cycle at which any bank's timing expires."""
        return min(self.busy_until)

    def lockout(self, until: int) -> None:
        """Refresh: extend every bank's busy window and close its row."""
        busy_until = self.busy_until
        open_row = self.open_row
        for i in range(self.n_banks):
            if busy_until[i] < until:
                busy_until[i] = until
            open_row[i] = NO_ROW
