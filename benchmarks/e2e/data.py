"""Seeded router-style table, query pool and the correctness oracle.

Nothing here imports ``fecam``: the generator hands the program plain
strings, and the oracle recomputes every expected answer from the
character matrices with NumPy alone, so a bug shared by every fecam
layer cannot hide behind itself.

The table is families of *nested prefixes*: one random 64-bit base per
family, stored at a random subset of the lengths {16, 24, 32, 48, 64}
with the trailing bits ``X``.  A query built from a rule (its ``X``
positions filled with random bits) therefore matches that rule and
every shorter stored prefix of the same family: 1 to 5 matches, mean
about 2.  Uniformly random tables (what the older ``bench_*`` scripts
use) match nothing and eliminate every row in step 1, so they never
exercise result hydration, the priority encoder or the paper's
early-termination model.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

WIDTH = 64
PREFIX_LENGTHS = (16, 24, 32, 48, 64)
#: Probability that a family stores a given length; 0.5 makes the mean
#: match count of a hit query 1 + 0.5 * (mean shorter lengths = 2) = 2.
LENGTH_KEEP = 0.5
FILL = 0.5
POOL_SIZE = 32768
HIT_SHARE = 0.8
#: Classifier-style field mask of ``masked_scan``: upper 32 bits cared.
UPPER32_MASK = "1" * 32 + "0" * 32

_ORD_0, _ORD_X = ord("0"), ord("X")


@dataclass(frozen=True)
class Geometry:
    name: str
    banks: int
    rows_per_bank: int

    @property
    def rows(self) -> int:
        return self.banks * self.rows_per_bank


GEOMETRY_S = Geometry("S", 8, 512)
GEOMETRY_L = Geometry("L", 32, 1024)
GEOMETRY_SMOKE = Geometry("smoke", 4, 64)


def _strings(chars: np.ndarray) -> List[str]:
    """Rows of an (n, WIDTH) uint8 character matrix as Python strings."""
    flat = chars.tobytes().decode("ascii")
    return [flat[i:i + WIDTH] for i in range(0, len(flat), WIDTH)]


@dataclass
class Table:
    """Rules in insertion order (already shuffled across families)."""

    bits: np.ndarray        # (n, WIDTH) uint8 0/1; random beyond the prefix
    lengths: np.ndarray     # (n,) prefix length of each rule
    words: List[str]        # ternary words, 'X' beyond the prefix
    keys: List[int]
    priorities: List[float]

    def __len__(self) -> int:
        return len(self.words)


def _family_tops(rng: np.random.Generator, count: int,
                 exclude: Optional[np.ndarray] = None) -> np.ndarray:
    """Distinct 16-bit family tags, so no two families share a /16 and a
    query's expected matches all come from one family (no priority ties
    for the store's insertion-order tie-break to decide)."""
    candidates = np.arange(1 << 16)
    if exclude is not None:
        candidates = np.setdiff1d(candidates, exclude)
    return rng.choice(candidates, size=count, replace=False)


def _top_bits(tops: np.ndarray) -> np.ndarray:
    shifts = np.arange(15, -1, -1)
    return ((tops[:, None] >> shifts) & 1).astype(np.uint8)


def _words_of(bits: np.ndarray, lengths: np.ndarray) -> List[str]:
    beyond = np.arange(WIDTH)[None, :] >= lengths[:, None]
    return _strings(np.where(beyond, _ORD_X, bits + _ORD_0).astype(np.uint8))


def make_table(rng: np.random.Generator, n_rules: int, *, key_base: int = 0,
               exclude_tops: Optional[np.ndarray] = None,
               lengths: tuple = PREFIX_LENGTHS) -> "tuple[Table, np.ndarray]":
    """``n_rules`` nested-prefix rules; returns the table and the family
    tags it used (so a second table can stay disjoint from it)."""
    # Every family keeps at least one length in expectation terms only,
    # so over-draw families and truncate to exactly n_rules.
    n_families = max(4, int(n_rules / (len(lengths) * LENGTH_KEEP) * 1.5) + 4)
    tops = _family_tops(rng, n_families, exclude_tops)
    base = rng.integers(0, 2, size=(n_families, WIDTH), dtype=np.uint8)
    base[:, :16] = _top_bits(tops)
    keep = rng.random((n_families, len(lengths))) < LENGTH_KEEP
    family, which = np.nonzero(keep)
    if len(family) < n_rules:
        raise ValueError("family over-draw too small for the table")
    family, which = family[:n_rules], which[:n_rules]
    order = rng.permutation(n_rules)
    family, which = family[order], which[order]
    rule_lengths = np.asarray(lengths)[which]
    bits = base[family]
    return (Table(bits=bits, lengths=rule_lengths,
                  words=_words_of(bits, rule_lengths),
                  keys=list(range(key_base, key_base + n_rules)),
                  # The store sorts ascending, so the longest prefix
                  # (most specific route) must carry the lowest value.
                  priorities=[-float(n) for n in rule_lengths]),
            tops[np.unique(family)])


def make_queries(rng: np.random.Generator, table: Table, count: int,
                 hit_share: float = HIT_SHARE) -> np.ndarray:
    """(count, WIDTH) uint8 query bits: ``hit_share`` built from a rule
    with its wildcards filled at random, the rest uniform random."""
    queries = rng.integers(0, 2, size=(count, WIDTH), dtype=np.uint8)
    is_hit = rng.random(count) < hit_share
    source = rng.integers(0, len(table), size=count)
    inside = np.arange(WIDTH)[None, :] < table.lengths[source][:, None]
    take = is_hit[:, None] & inside
    queries[take] = table.bits[source][take]
    return queries


def query_strings(query_bits: np.ndarray) -> List[str]:
    return _strings(query_bits + _ORD_0)


def random_words(rng: np.random.Generator, bits: np.ndarray,
                 lengths: np.ndarray) -> List[str]:
    """Fresh ternary words keeping each row's /16 family tag and prefix
    length (the churn writer's replacement words)."""
    fresh = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    fresh[:, :16] = bits[:, :16]
    return _words_of(fresh, lengths)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(n, 64) 0/1 matrix -> (n,) uint64, string position 0 = MSB."""
    return np.packbits(bits, axis=1).view(">u8").ravel().astype(np.uint64)


def expected_matches(table: Table, query_bits: np.ndarray,
                     mask: Optional[str] = None) -> List[List[int]]:
    """Reference answer for every query: matching keys, best first.

    A rule matches when every position that is cared by the rule *and*
    compared by the mask agrees with the query:
    ``(rule ^ query) & care & mask == 0``.  Rules are grouped by their
    distinct care pattern (a handful in a prefix table, but nothing
    here assumes prefixes); within a group a query matches exactly the
    rules whose cared value equals the query's, found by binary search
    over the group's sorted values instead of a Q x R comparison.
    """
    care_bits = (np.arange(WIDTH)[None, :]
                 < table.lengths[:, None]).astype(np.uint8)
    if mask is not None:
        care_bits &= np.frombuffer(mask.encode("ascii"),
                                   dtype=np.uint8) - _ORD_0
    care = _pack(care_bits)
    value = _pack(table.bits) & care
    # rank[i] = position of rule i in (priority, insertion order): the
    # order the priority encoder must return.
    rank = np.empty(len(table), dtype=np.int64)
    rank[np.lexsort((np.arange(len(table)),
                     np.asarray(table.priorities)))] = np.arange(len(table))
    packed = _pack(query_bits)
    pair_q, pair_rule = [], []
    for pattern in np.unique(care):
        members = np.flatnonzero(care == pattern)
        order = np.argsort(value[members], kind="stable")
        members = members[order]
        values = value[members]
        wanted = packed & pattern
        lo = np.searchsorted(values, wanted, side="left")
        counts = np.searchsorted(values, wanted, side="right") - lo
        q_idx = np.repeat(np.arange(len(packed)), counts)
        within = np.arange(len(q_idx)) - np.repeat(
            np.cumsum(counts) - counts, counts)
        pair_q.append(q_idx)
        pair_rule.append(members[np.repeat(lo, counts) + within])
    q_idx = np.concatenate(pair_q)
    rules = np.concatenate(pair_rule)
    order = np.lexsort((rank[rules], q_idx))
    matched = np.asarray(table.keys)[rules[order]].tolist()
    out: List[List[int]] = []
    pos = 0
    for n in np.bincount(q_idx, minlength=len(packed)).tolist():
        out.append(matched[pos:pos + n])
        pos += n
    return out


def ternary_match(word: str, query: str) -> bool:
    """Whether a stored ternary word matches a binary query (unmasked)."""
    return all(w == "X" or w == q for w, q in zip(word, query))
