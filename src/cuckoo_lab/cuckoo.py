"""An executable cuckoo hash table with an unbounded stash.

Insertion runs a breadth-first augmenting-path search over the occupancy
graph instead of the classic random-walk kick-out: the package's one
matching kernel, :func:`cuckoo_lab.matching.augment`, which
``max_matching`` runs too.  That makes the table
an online maximum-matching machine: a key is stashed only when no
augmenting path exists, so for any d the number of placed keys equals
the maximum matching size of the bipartite graph induced by all stored
keys' bin choices, instance by instance, not just in expectation.
Deletions restore that invariant by giving the stashed keys, in stash
order, re-insertion attempts until one succeeds.

Searches are pruned by a set of dead bins: occupied bins from which no
displacement chain reaches an empty bin.  Every bin a failed search
visits becomes dead.  The set is closed under "the occupant's other
choices" (a dead bin's occupant can only move into dead bins), so a
successful search never passes through a dead bin and never changes one,
and the pruned breadth-first search reaches the live bins in the order
the full search would, through the same parents: it performs the same
chain.  Only emptying a dead bin can revive dead bins, so that clears
the whole set.  The stash keeps each key's cached choices in
insertion order, so re-insertion attempts never rehash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .hashing import bin_choices
from .matching import augment


class DuplicateKeyError(ValueError):
    """Raised when inserting a key the table already stores."""


_STASH = -1  # location marker in the key index


@dataclass(frozen=True)
class LookupResult:
    found: bool
    in_stash: bool = False
    bin: Optional[int] = None


@dataclass
class TableStats:
    placed: int = 0
    stashed: int = 0
    displacements: int = 0
    stash_peak: int = 0


@dataclass(frozen=True)
class LoadStats:
    placed: int
    stash_size: int


@dataclass(eq=False)
class CuckooTable:
    """m unit-capacity bins, d hashed choices per key, and an unbounded
    stash in insertion order.  A table is single-writer; see the module
    docstring for the placed-count/maximum-matching guarantee.
    """

    m: int
    d: int
    seeds: tuple[int, ...]
    partition_boundary: Optional[int] = None
    stats: TableStats = field(default_factory=TableStats)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if len(self.seeds) != self.d:
            raise ValueError(f"need exactly {self.d} seeds")
        if self.partition_boundary is not None:
            if self.d != 2:
                raise ValueError("partitioned tables use d = 2")
            if not 0 < self.partition_boundary < self.m:
                raise ValueError("partition boundary must split the bins")
        # bins hold (key, choices) so displacement chains never rehash
        self._bins: list[Optional[tuple[int, tuple[int, ...]]]] = [None] * self.m
        # stashed key -> its choices, in stash (insertion) order
        self._stash: dict[int, tuple[int, ...]] = {}
        self._where: dict[int, int] = {}
        # occupied bins from which no displacement chain reaches an empty
        # bin; closed under the occupant's choices (module docstring)
        self._dead: set[int] = set()

    # -- write path ---------------------------------------------------------

    def bin_choices(self, key: int) -> tuple[int, ...]:
        return bin_choices(key, self.seeds, self.m, self.d, self.partition_boundary)

    def insert(self, key: int) -> Optional[int]:
        """Insert a key; returns its bin index, or None if it went to the
        stash.  Duplicate keys are rejected (set semantics)."""
        if key in self._where:
            raise DuplicateKeyError(f"key {key} already stored")
        choices = self.bin_choices(key)
        chain = augment(self._bins, self._dead, choices)
        if chain is None:
            self._stash[key] = choices
            self._where[key] = _STASH
            self.stats.stashed = len(self._stash)
            if self.stats.stashed > self.stats.stash_peak:
                self.stats.stash_peak = self.stats.stashed
            return None
        self._settle(chain, key, choices)
        return chain[0]

    def _settle(self, chain: list[int], key: int, choices: tuple[int, ...]) -> None:
        """Record a chain that :func:`~cuckoo_lab.matching.augment` shifted:
        where each displaced key went, and ``key`` in the freed bin."""
        bins, where = self._bins, self._where
        for b in chain[1:]:
            where[bins[b][0]] = b
        self.stats.displacements += len(chain) - 1
        bins[chain[0]] = (key, choices)
        where[key] = chain[0]
        self.stats.placed += 1

    def remove(self, key: int) -> bool:
        """Delete a key from its bin or the stash.

        Removing a stashed key changes no bin, so no stashed key gains a
        chain to an empty bin and nothing else is done.  Removing a placed
        key empties its bin; if that bin was dead the dead set is cleared,
        otherwise no dead bin can reach it and the set stays valid.  Then
        the stashed keys get augmenting re-insertion attempts, in stash
        order, from their cached choices.  Every augmenting path ends at
        the emptied bin, so at most one attempt can succeed and the loop
        stops there; that restores the placed-count/maximum-matching
        invariant.  The dead set only prunes bins no chain could use, so
        the promoted key and its chain are those a search without it would
        find; a stashed key whose choices are all dead fails in O(d).
        """
        loc = self._where.pop(key, None)
        if loc is None:
            return False
        if loc == _STASH:
            del self._stash[key]
            self.stats.stashed = len(self._stash)
            return True
        self._bins[loc] = None
        self.stats.placed -= 1
        if loc in self._dead:
            self._dead.clear()
        bins, dead = self._bins, self._dead
        for stashed_key, choices in self._stash.items():
            chain = augment(bins, dead, choices)
            if chain is not None:
                del self._stash[stashed_key]
                self._settle(chain, stashed_key, choices)
                break
        self.stats.stashed = len(self._stash)
        return True

    # -- read path ----------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        """Probe the key's d bins, then the stash."""
        for b in self.bin_choices(key):
            slot = self._bins[b]
            if slot is not None and slot[0] == key:
                return LookupResult(found=True, bin=b)
        if key in self._stash:
            return LookupResult(found=True, in_stash=True)
        return LookupResult(found=False)

    def load_stats(self) -> LoadStats:
        return LoadStats(placed=self.stats.placed, stash_size=len(self._stash))

    # -- introspection used by tests and the trace harness -------------------

    def stored_keys(self) -> list[int]:
        """All keys currently held, bins first (ascending), then stash order."""
        keys = [slot[0] for slot in self._bins if slot is not None]
        keys.extend(self._stash)
        return keys

    def stash_keys(self) -> tuple[int, ...]:
        return tuple(self._stash)

    def bin_of(self, key: int) -> Optional[int]:
        loc = self._where.get(key)
        return None if loc is None or loc == _STASH else loc

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: int) -> bool:
        return key in self._where


def new_table(m: int, d: int, seeds: Sequence[int], partition_boundary: Optional[int] = None) -> CuckooTable:
    """Construct an empty table; layout is fully determined by the seeds."""
    return CuckooTable(m=m, d=d, seeds=tuple(seeds), partition_boundary=partition_boundary)
