"""An executable cuckoo hash table with an unbounded stash.

Insertion runs a breadth-first augmenting-path search over the occupancy
graph instead of the classic random-walk kick-out.  That makes the table
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

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .hashing import bin_choices


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
    lookups: int = 0
    stash_peak: int = 0
    stash_limit_exceeded: bool = False


@dataclass(frozen=True)
class LoadStats:
    placed: int
    stash_size: int
    load_fraction: float
    overflow_fraction: float


@dataclass(eq=False)
class CuckooTable:
    """m unit-capacity bins, d hashed choices per key, append-ordered stash.

    ``stash_limit`` is advisory: overflowing it only sets a flag in the
    stats (the stash models a CAM whose overflow should be reported, not
    dropped).  A table is single-writer; see the module docstring for the
    placed-count/maximum-matching guarantee.
    """

    m: int
    d: int
    seeds: tuple[int, ...]
    partition_boundary: Optional[int] = None
    stash_limit: Optional[int] = None
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
        bin_index = self._place_by_augmenting(choices)
        if bin_index is None:
            self._stash[key] = choices
            self._where[key] = _STASH
            self.stats.stashed = len(self._stash)
            if self.stats.stashed > self.stats.stash_peak:
                self.stats.stash_peak = self.stats.stashed
            if self.stash_limit is not None and self.stats.stashed > self.stash_limit:
                self.stats.stash_limit_exceeded = True
            return None
        self._set_bin(bin_index, key, choices)
        self.stats.placed += 1
        return bin_index

    def _place_by_augmenting(self, choices: Sequence[int]) -> Optional[int]:
        """BFS over the occupancy graph for a chain of displacements that
        frees one of ``choices``; performs the chain and returns the freed
        bin, or None when every reachable bin stays full.  Dead bins are
        skipped; a failed search marks every bin it visited dead."""
        bins = self._bins
        dead = self._dead
        roots: list[int] = []
        seen = set()
        for b in choices:
            if b in seen or b in dead:
                continue
            if bins[b] is None:
                return b
            seen.add(b)
            roots.append(b)

        parent: dict[int, int] = {}
        queue = deque(roots)
        empty = None
        while queue:
            b = queue.popleft()
            occupant = bins[b]
            assert occupant is not None
            for nb in occupant[1]:
                if nb in seen or nb in dead:
                    continue
                seen.add(nb)
                parent[nb] = b
                if bins[nb] is None:
                    empty = nb
                    break
                queue.append(nb)
            if empty is not None:
                break
        if empty is None:
            dead |= seen
            return None

        # walk back to the root, shifting occupants one hop forward
        chain = [empty]
        while chain[-1] in parent:
            chain.append(parent[chain[-1]])
        chain.reverse()  # root .. empty
        for src, dst in zip(reversed(chain[:-1]), reversed(chain[1:])):
            moved = bins[src]
            assert moved is not None
            bins[dst] = moved
            self._where[moved[0]] = dst
            self.stats.displacements += 1
        bins[chain[0]] = None
        return chain[0]

    def _set_bin(self, bin_index: int, key: int, choices: tuple[int, ...]) -> None:
        self._bins[bin_index] = (key, choices)
        self._where[key] = bin_index

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
        for stashed_key, choices in self._stash.items():
            bin_index = self._place_by_augmenting(choices)
            if bin_index is not None:
                del self._stash[stashed_key]
                self._set_bin(bin_index, stashed_key, choices)
                self.stats.placed += 1
                break
        self.stats.stashed = len(self._stash)
        return True

    # -- read path ----------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        """Probe the key's d bins, then the stash."""
        self.stats.lookups += 1
        for b in self.bin_choices(key):
            slot = self._bins[b]
            if slot is not None and slot[0] == key:
                return LookupResult(found=True, bin=b)
        if key in self._stash:
            return LookupResult(found=True, in_stash=True)
        return LookupResult(found=False)

    def load_stats(self) -> LoadStats:
        placed = self.stats.placed
        stash = len(self._stash)
        stored = placed + stash
        return LoadStats(
            placed=placed,
            stash_size=stash,
            load_fraction=placed / self.m,
            overflow_fraction=stash / stored if stored else 0.0,
        )

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


def new_table(
    m: int,
    d: int,
    seeds: Sequence[int],
    partition_boundary: Optional[int] = None,
    stash_limit: Optional[int] = None,
) -> CuckooTable:
    """Construct an empty table; layout is fully determined by the seeds."""
    return CuckooTable(
        m=m,
        d=d,
        seeds=tuple(seeds),
        partition_boundary=partition_boundary,
        stash_limit=stash_limit,
    )
