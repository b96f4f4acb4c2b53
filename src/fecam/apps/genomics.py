"""Seed matching for DNA read mapping — the paper's bioinformatics
motivation (Sec. I, citing the seed-and-vote in-memory accelerator [2]).

Reads are chopped into fixed-length seeds; each seed is matched in
parallel against reference k-mers stored in a
:class:`~fecam.store.CamStore`.  Ambiguous IUPAC bases ('N') map to
don't-care symbols, which is exactly the ternary capability binary CAMs
lack.  A ``store_config`` shards a large reference index across banks
and batches seed lookups through the vectorized search path —
:func:`vote_alignment` resolves a whole read in one store pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import OperationError
from ..store import CamStore, StoreConfig, StoreStats

__all__ = ["encode_base", "encode_seed", "SeedIndex", "vote_alignment"]

_BASE_BITS = {"A": "00", "C": "01", "G": "10", "T": "11", "N": "XX"}


def encode_base(base: str) -> str:
    """2-bit DNA encoding; 'N' (unknown) becomes two don't-cares."""
    try:
        return _BASE_BITS[base.upper()]
    except KeyError:
        raise OperationError(f"invalid base {base!r}") from None


def encode_seed(seed: str) -> str:
    """Encode a DNA string into a ternary TCAM word (2 bits per base)."""
    if not seed:
        raise OperationError("empty seed")
    return "".join(encode_base(b) for b in seed)


@dataclass
class SeedHit:
    position: int  # reference offset of the stored k-mer
    row: int


class SeedIndex:
    """Associative-store index of all k-mers of a reference sequence.

    >>> idx = SeedIndex("ACGTACGTACGT", k=4)
    >>> [h.position for h in idx.lookup("TACG")]
    [3, 7]
    """

    def __init__(self, reference: str, k: int = 8, *,
                 store_config: Optional[StoreConfig] = None):
        config = store_config or StoreConfig()
        if k < 2:
            raise OperationError("seed length must be >= 2")
        if len(reference) < k:
            raise OperationError("reference shorter than the seed length")
        self.reference = reference.upper()
        self.k = k
        positions = len(self.reference) - k + 1
        self._store = CamStore(config.with_geometry(width=2 * k,
                                                    rows=positions))
        # Priority = reference position, so matches come back in
        # ascending-position order across every backend.
        self._store.insert_many(
            [encode_seed(self.reference[pos:pos + k])
             for pos in range(positions)],
            keys=list(range(positions)),
            priorities=list(range(positions)))

    def _encode_query(self, seed: str) -> str:
        if len(seed) != self.k:
            raise OperationError(f"seed must be {self.k} bases")
        word = encode_seed(seed)
        if "X" in word:
            raise OperationError("query seeds must not contain N")
        return word

    def lookup(self, seed: str) -> List[SeedHit]:
        """All reference positions whose k-mer matches the seed.

        The *query* must be concrete (A/C/G/T): TCAM queries are binary.
        Ambiguity lives on the stored side ('N' in the reference).
        """
        result = self._store.search(self._encode_query(seed))
        return [SeedHit(position=m.key, row=m.row) for m in result.matches]

    def lookup_batch(self, seeds: Sequence[str]) -> List[List[SeedHit]]:
        """Vectorized lookup of many seeds (one store pass)."""
        if not seeds:
            return []
        results = self._store.search_batch(
            [self._encode_query(seed) for seed in seeds])
        return [[SeedHit(position=m.key, row=m.row) for m in r.matches]
                for r in results]

    def lookup_reference_scan(self, seed: str) -> List[int]:
        """Software reference implementation (for verification)."""
        hits = []
        for pos in range(len(self.reference) - self.k + 1):
            kmer = self.reference[pos:pos + self.k]
            if all(r == "N" or r == s for r, s in zip(kmer, seed.upper())):
                hits.append(pos)
        return hits

    @property
    def energy_spent(self) -> float:
        return self._store.stats.energy_total

    @property
    def store_stats(self) -> StoreStats:
        """Full telemetry of the backing store."""
        return self._store.stats


def vote_alignment(read: str, index: SeedIndex,
                   stride: Optional[int] = None) -> Optional[int]:
    """Seed-and-vote read mapping: each seed votes for the alignment
    offset implied by its hit; the plurality offset wins.

    All seeds of the read are matched in one batched store pass.
    Returns the winning reference offset or None when nothing matched.
    """
    k = index.k
    stride = stride or k
    starts = [s for s in range(0, len(read) - k + 1, stride)
              if "N" not in read[s:s + k].upper()]
    votes: Counter = Counter()
    hit_lists = index.lookup_batch([read[s:s + k] for s in starts])
    for seed_start, hits in zip(starts, hit_lists):
        for hit in hits:
            votes[hit.position - seed_start] += 1
    if not votes:
        return None
    offset, count = votes.most_common(1)[0]
    return offset if count > 0 else None
