"""One TCAM bank: a :class:`TernaryCAM` plus a free-row allocator.

The behavioral engine stores words at caller-chosen row indices; every
application on top of it (router, classifier, cache) had to track which
rows were free by hand.  A bank owns that bookkeeping: ``insert`` returns
the row it allocated (always the lowest free index, so priority-encoder
ordering stays stable under churn), ``delete`` returns the row to the
free pool, and ``update`` rewrites in place.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from ..designs import DesignKind
from ..errors import OperationError
from ..functional.engine import EnergyModel, TernaryCAM
from ..planes import TernaryPlanes

__all__ = ["CamBank"]


class CamBank:
    """A :class:`TernaryCAM` with insert/delete/update row lifecycle.

    >>> bank = CamBank(bank_id=0, rows=4, width=8)
    >>> bank.insert("1010XXXX")
    0
    >>> bank.insert("0101XXXX")
    1
    >>> bank.delete(0)
    >>> bank.insert("1111XXXX")  # lowest free row is reused
    0
    """

    def __init__(self, bank_id: int, rows: int, width: int,
                 design: DesignKind = DesignKind.DG_1T5, *,
                 energy_model: Optional[EnergyModel] = None,
                 planes: Optional[TernaryPlanes] = None):
        self.bank_id = bank_id
        # ``planes`` injects a row-slice view of a fabric's contiguous
        # arena; standalone banks own private storage.
        self.cam = TernaryCAM(rows=rows, width=width, design=design,
                              energy_model=energy_model, planes=planes)
        # Min-heap of free rows: allocation is deterministic
        # lowest-first.
        self._free: List[int] = list(range(rows))
        heapq.heapify(self._free)

    # -- capacity ----------------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.cam.rows

    @property
    def width(self) -> int:
        return self.cam.width

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def occupancy(self) -> int:
        return self.cam.rows - len(self._free)

    @property
    def is_full(self) -> bool:
        return not self._free

    # -- lifecycle ---------------------------------------------------------------

    def insert(self, word: str) -> int:
        """Store ``word`` in the lowest free row; returns that row."""
        if not self._free:
            raise OperationError(f"bank {self.bank_id} is full "
                                 f"({self.cam.rows} rows)")
        row = heapq.heappop(self._free)
        try:
            self.cam.write(row, word)
        except Exception:
            heapq.heappush(self._free, row)
            raise
        return row

    def insert_many(self, words: Sequence[str], *,
                    packed=None) -> List[int]:
        """Bulk insert via the vectorized packer; returns allocated rows.

        ``packed`` forwards pre-packed (value, care) planes to
        :meth:`TernaryCAM.write_many` so already-validated fabric loads
        don't pack twice.
        """
        if len(words) > len(self._free):
            raise OperationError(
                f"bank {self.bank_id} cannot hold {len(words)} more words "
                f"({len(self._free)} rows free)")
        rows = [heapq.heappop(self._free) for _ in words]
        try:
            self.cam.write_many(rows, words, packed=packed)
        except Exception:
            for row in rows:
                heapq.heappush(self._free, row)
            raise
        return rows

    def place_many(self, rows: Sequence[int], words: Sequence[str], *,
                   packed=None) -> None:
        """Write words at caller-fixed rows (the restore/replay path).

        Unlike :meth:`insert_many`, the rows are chosen by the caller —
        a durable reshard record carries the exact placements the live
        reshard produced, and replaying it must reproduce them
        bit-for-bit rather than re-running the allocator.  Every target
        row must currently be free.
        """
        if len(rows) != len(words):
            raise OperationError("rows and words must have equal length")
        placed = set()
        free = set(self._free)
        for row in rows:
            if not 0 <= row < self.cam.rows:
                raise OperationError(f"row {row} out of range")
            if row not in free or row in placed:
                raise OperationError(
                    f"row {row} of bank {self.bank_id} is not free")
            placed.add(row)
        self.cam.write_many(list(rows), list(words), packed=packed)
        self._free = [row for row in self._free if row not in placed]
        heapq.heapify(self._free)

    def sync_free_rows(self) -> None:
        """Rebuild the free heap from the valid plane.

        Snapshot restore loads arena content underneath the bank
        (planes-level, no per-row inserts); afterwards the allocator's
        free pool is exactly the invalid rows.
        """
        self._free = [row for row in range(self.cam.rows)
                      if not self.cam._valid[row]]
        heapq.heapify(self._free)

    def delete(self, row: int) -> None:
        """Erase an occupied row and return it to the free pool."""
        if not 0 <= row < self.cam.rows:
            raise OperationError(f"row {row} out of range")
        if not self.cam._valid[row]:
            raise OperationError(f"row {row} of bank {self.bank_id} "
                                 "is not occupied")
        self.cam.erase(row)
        heapq.heappush(self._free, row)

    def update(self, row: int, word: str) -> None:
        """Rewrite an occupied row in place (row index is preserved)."""
        if not 0 <= row < self.cam.rows:
            raise OperationError(f"row {row} out of range")
        if not self.cam._valid[row]:
            raise OperationError(f"row {row} of bank {self.bank_id} "
                                 "is not occupied; use insert")
        self.cam.write(row, word)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CamBank #{self.bank_id} {self.cam.rows}x{self.cam.width}, "
                f"{self.occupancy} occupied>")
