"""An executable cuckoo hash table with an unbounded stash.

A key with an empty choice takes the first one in choice order, with no
search: 90-98% of the inserts at load 1/2 and 71-77% at load 1.  Only a
key whose choices are all occupied runs a breadth-first augmenting-path
search over the occupancy graph instead of the classic random-walk
kick-out: the package's one matching kernel,
:func:`cuckoo_lab.matching.augment`, which ``max_matching`` runs too.  A
free choice is the shortest chain there is.  That makes the table an
online maximum-matching machine: a key is stashed only when no augmenting
path exists, so for any d the number of placed keys equals the maximum
matching size of the bipartite graph induced by all stored keys' bin
choices, instance by instance, not just in expectation.

Searches are pruned by dead bins: occupied bins from which no
displacement chain reaches an empty bin.  The table keeps one mark list
with an entry per bin, -1 for a dead bin and 0 for any other; the search
writes its own marks there while it runs and sets them back before it
returns.  Every bin a failed search visits becomes dead.  The dead bins
are closed under "the occupant's other choices" (a dead bin's occupant
can only move into dead bins), so a successful search never passes
through a dead bin and never changes one, and the pruned breadth-first
search reaches the live bins in the order the full search would, through
the same parents: it performs the same chain.  Two invariants make
deletions cheap:

(a) every choice of every stashed key is a dead bin (its failed search
    marked them), and
(b) the dead marks are never cleared: a deletion clears only those of
    the dead bins it revives.

Deleting a placed key from a live bin leaves the dead bins closed, and by
(a) no stashed key can reach that bin, so nothing else is done.
Deleting one from a dead bin walks backwards from the emptied bin
through the dead bins whose occupants choose a bin already reached: the
reach, exactly the dead bins with a chain to the emptied bin.  The
stashed keys with a choice in the reach are the only ones with an
augmenting path, so the earliest of them in stash order is the key a
re-insertion loop over the stash would promote.  If it chooses the
emptied bin, it takes that bin without a search: no other choice of a
stashed key is empty.  Otherwise its search, pruned by the rest of the
dead bins, finds the chain the full search would.  After a promotion
every bin of the reach again holds a key whose choices are all dead, so
the reach is dead again; with no promotion it comes back to life.

The walk reads an index from each bin to the locations of the keys that
choose it, not to the keys: the occupant of dead bin b is indexed by the
code b under each of its choices other than b, and the key stashed t-th
by the code ~t under all its choices.  So a walk step tests a bin code
against its mark, or a stash code against the earliest one seen, and
looks up no key; the stash maps each code ~t to its key and choices.  An
occupant is not indexed under its own bin, which the walk would only
skip.  A promotion moves keys along its chain, so it recodes them: a
key that moves from bin x to bin y loses its entry under y, gains the
entry y under x, and has x replaced by y under its other choices, and
the promoted key's ~t becomes the root.  Each step removes only entries
that are there, and the walk reads a bin's codes as a set, so the steps
may run in any order; the table runs them from the chain's end back to
its root.  A key is indexed when it is stashed.  The bins a failed
search marks dead wait in a list, so an insert-only build never indexes
their occupants; the next deletion that empties a dead bin indexes them
before it walks.

The stash keeps each key's cached choices in insertion order, so
promotions never rehash.  A table builds its choice maps once, over one
checked plan (:func:`cuckoo_lab.hashing.choice_maps`), so a key is hashed
without re-checking the table's shape: insert and lookup use the per-key
map, and ``insert_many`` the batch map: it hashes the whole key sequence,
a block at a time in 128-bit lanes, and then places the keys one by one,
as ``insert`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .hashing import choice_maps
from .matching import augment


class DuplicateKeyError(ValueError):
    """Raised when inserting a key the table already stores."""


@dataclass(frozen=True)
class LookupResult:
    found: bool
    in_stash: bool = False
    bin: Optional[int] = None


# the two answers that name no bin, shared by every lookup (they are frozen)
_MISS = LookupResult(found=False)
_IN_STASH = LookupResult(found=True, in_stash=True)


@dataclass
class TableStats:
    placed: int = 0
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
    stats: TableStats = field(init=False, default_factory=TableStats)

    def __post_init__(self) -> None:
        # checks d, the seed count, m and the partition boundary
        self._choices, self._batch_choices = choice_maps(self.seeds, self.m, self.d, self.partition_boundary)
        # bins hold (key, choices) so displacement chains never rehash
        self._bins: list[Optional[tuple[int, tuple[int, ...]]]] = [None] * self.m
        # key -> its bin, or ~t for the t-th key stashed: negative, and
        # larger for a key stashed earlier
        self._where: dict[int, int] = {}
        # ~t -> (key, choices) of each stashed key, in stash (insertion) order
        self._stash: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._tickets = 0
        # per bin: -1 for an occupied bin from which no displacement chain
        # reaches an empty bin, else 0; the dead bins are closed under the
        # occupant's choices (module docstring), and augment's own marks
        # last only while it runs
        self._mark = [0] * self.m
        # bin c -> the codes of the keys that choose it: b for the occupant
        # of dead bin b when c != b, and ~t for a stashed key; every dead
        # bin is indexed but those in _marked, which a remove from a dead
        # bin takes in before it walks
        self._choosers: list[tuple[int, ...]] = [()] * self.m
        self._marked: list[int] = []

    # -- write path ---------------------------------------------------------

    def insert(self, key: int) -> Optional[int]:
        """Insert a key; returns its bin index, or None if it went to the
        stash.  Duplicate keys are rejected (set semantics)."""
        return self._place(key, self._choices(key))

    def insert_many(self, keys: Iterable[int]) -> None:
        """Insert the keys in order, as :meth:`insert` would one by one,
        but hash them all first with the batch choice map.  A duplicate
        raises :class:`DuplicateKeyError` with the keys before it stored."""
        keys = tuple(keys)
        for key, choices in zip(keys, self._batch_choices(keys)):
            self._place(key, choices)

    def _place(self, key: int, choices: tuple[int, ...]) -> Optional[int]:
        """Store a new key whose choices are hashed: in its first empty
        choice, else in the bin that ends its augmenting chain, or in the
        stash when it has none."""
        if key in self._where:
            raise DuplicateKeyError(f"key {key} already stored")
        bins = self._bins
        for b in choices:
            if bins[b] is None:
                bins[b] = (key, choices)
                self._where[key] = b
                self.stats.placed += 1
                return b
        chain = augment(bins, self._mark, choices, self._marked)
        if chain is None:
            code = ~self._tickets
            self._tickets += 1
            self._stash[code] = (key, choices)
            self._choose(code, choices)
            self._where[key] = code
            if len(self._stash) > self.stats.stash_peak:
                self.stats.stash_peak = len(self._stash)
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
        chain to an empty bin; the key only leaves the index.  Removing a
        placed key from a live bin is O(1): by invariant (a) of the module
        docstring no stashed key can reach that bin.  Removing one from a
        dead bin walks backwards from it to its reach, the dead bins with
        a chain to it, and promotes the stashed key that a re-insertion
        loop over the whole stash would: the earliest in stash order with
        a choice in the reach.  Its search runs from its cached choices,
        pruned by the dead bins outside the reach, and ends at the emptied
        bin; that restores the placed-count/maximum-matching invariant.
        The cost is in proportion to the reach, not to the stash.
        """
        loc = self._where.pop(key, None)
        if loc is None:
            return False
        if loc < 0:
            self._unchoose(loc, self._stash.pop(loc)[1])
            return True
        bins = self._bins
        if self._mark[loc] < 0:
            # loc's occupant may wait in _marked, so the marks are taken in first
            for b in self._marked:
                self._choose(b, bins[b][1])
            self._marked.clear()
            self._unchoose(loc, bins[loc][1])
            bins[loc] = None
            self._refill(loc)
        else:
            bins[loc] = None
        self.stats.placed -= 1
        return True

    def _refill(self, loc: int) -> None:
        """Fill the emptied dead bin ``loc`` from the stash, or revive the
        dead bins whose only way to an empty bin leads through it.

        The walk revives each bin of the reach (mark 0) as it reaches it,
        so a revived mark is what says a bin is already in the reach.  A
        promoted key that chooses ``loc`` takes it; any other searches
        with the rest of the dead bins still marked.  The promotion marks
        the reach dead again and recodes the keys that moved."""
        bins, choosers, mark = self._bins, self._choosers, self._mark
        mark[loc] = 0
        reach = [loc]
        none = top = ~self._tickets  # below every stashed key's code
        # the loop reads the reach as it grows; every bin code in the index
        # is a dead bin, revived once it is in the reach
        for r in reach:
            for c in choosers[r]:
                if c >= 0:
                    if mark[c]:
                        mark[c] = 0
                        reach.append(c)
                elif c > top:
                    top = c
        if top == none:
            for b in reach[1:]:
                self._unchoose(b, bins[b][1])
            return
        key, choices = self._stash.pop(top)
        # the stashed key has a choice in the reach, and the reach leads
        # only to loc, the one empty bin it can choose
        chain = [loc] if loc in choices else augment(bins, mark, choices)
        for b in reach:
            mark[b] = -1
        # each key gives up the code of the bin it left and takes that of
        # the bin it entered; the order of the steps is free (module
        # docstring), and runs from the chain's end back to its root
        for i in range(len(chain) - 1, 0, -1):
            moved = bins[chain[i]][1]
            self._unchoose(chain[i - 1], moved)
            self._choose(chain[i], moved)
        self._unchoose(top, choices)
        self._choose(chain[0], choices)
        self._settle(chain, key, choices)

    def _choose(self, code: int, choices: tuple[int, ...]) -> None:
        choosers = self._choosers
        for c in choices:
            if c != code:
                choosers[c] += (code,)

    def _unchoose(self, code: int, choices: tuple[int, ...]) -> None:
        choosers = self._choosers
        for c in choices:
            if c != code:
                codes = choosers[c]
                i = codes.index(code)
                choosers[c] = codes[:i] + codes[i + 1 :]

    # -- read path ----------------------------------------------------------

    def lookup(self, key: int) -> LookupResult:
        """Probe the key's d bins, then the stash."""
        bins = self._bins
        for b in self._choices(key):
            slot = bins[b]
            if slot is not None and slot[0] == key:
                return LookupResult(found=True, bin=b)
        # a placed key is found in its bin, so one still known is stashed
        return _IN_STASH if key in self._where else _MISS

    def load_stats(self) -> LoadStats:
        return LoadStats(placed=self.stats.placed, stash_size=len(self._stash))

    # -- introspection, read by the tests and perfbench's answer checks -----

    def stash_keys(self) -> tuple[int, ...]:
        return tuple(key for key, _ in self._stash.values())

    def bin_of(self, key: int) -> Optional[int]:
        loc = self._where.get(key)
        return None if loc is None or loc < 0 else loc

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, key: int) -> bool:
        return key in self._where


# perfbench/run.py, selftest.py and baselines.py build their tables through this
def new_table(m: int, d: int, seeds: Sequence[int], partition_boundary: Optional[int] = None) -> CuckooTable:
    """Construct an empty table; layout is fully determined by the seeds."""
    return CuckooTable(m=m, d=d, seeds=tuple(seeds), partition_boundary=partition_boundary)
