"""Cuckoo table semantics and the placed-count/maximum-matching guarantee."""

import dataclasses
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from cuckoo_lab import cuckoo
from cuckoo_lab.cuckoo import _IN_STASH, _MISS, CuckooTable, DuplicateKeyError, LoadStats, TableStats, new_table
from cuckoo_lab.hashing import choice_maps
from cuckoo_lab.matching import BipartiteGraph, augment, max_matching
from cuckoo_lab.simulate import SplitMix64

from oracles import ReferenceCuckooTable, hopcroft_karp_matching, reference_bin_choices


def _table(m=8, d=2, seed=1, boundary=None) -> CuckooTable:
    return new_table(m, d, SplitMix64(seed).draws(1 << 64, d), boundary)


def _choices_of(table: CuckooTable):
    """The table's per-key map from a key to its bin choices."""
    return choice_maps(table.seeds, table.m, table.d, table.partition_boundary)[0]


def _induced_graph(table: CuckooTable) -> BipartiteGraph:
    choices = _choices_of(table)
    return BipartiteGraph(
        n=len(table),
        m=table.m,
        choices=tuple(choices(k) for k in table._where),
    )


def _check_equivalence(table: CuckooTable) -> None:
    placed = table.load_stats().placed
    assert placed == max_matching(_induced_graph(table))[0]


def _find_key_with_choices(table: CuckooTable, wanted, start=0) -> int:
    choices = _choices_of(table)
    key = start
    while True:
        if choices(key) == wanted and key not in table:
            return key
        key += 1


# ---------------------------------------------------------------------------
# construction


def test_new_table_shapes():
    t = _table(m=4, d=2)
    stats = t.load_stats()
    assert (stats.placed, stats.stash_size) == (0, 0)
    t = _table(m=4, d=3)
    assert len(_choices_of(t)(123)) == 3
    t = _table(m=4, d=2, boundary=2)
    lo, hi = _choices_of(t)(99)
    assert 0 <= lo < 2 <= hi < 4


def test_new_table_validation():
    with pytest.raises(ValueError, match="d must be >= 2"):
        _table(m=4, d=1)
    with pytest.raises(ValueError, match="need 2 seeds, got 1"):
        new_table(4, 2, [1])
    with pytest.raises(ValueError):
        _table(m=4, d=3, boundary=2)
    with pytest.raises(ValueError):
        _table(m=4, d=2, boundary=0)
    with pytest.raises(ValueError, match="m must be >= 1"):
        _table(m=0)
    with pytest.raises(ValueError, match="partition boundary must split the bins"):
        _table(m=4, d=2, boundary=4)
    # the counters start at zero: a caller cannot hand over filled ones
    with pytest.raises(TypeError):
        CuckooTable(m=4, d=2, seeds=(1, 2), stats=TableStats())


# ---------------------------------------------------------------------------
# insert / lookup / remove


def test_insert_into_empty_places():
    t = _table()
    assert t.insert(42) is not None
    assert t.lookup(42).found


def test_insert_duplicate_rejected():
    t = _table()
    t.insert(7)
    with pytest.raises(DuplicateKeyError):
        t.insert(7)


def test_third_key_on_two_bins_is_stashed():
    t = _table(m=2)
    outcomes = [t.insert(k) for k in (10, 20, 30)]
    assert sum(1 for o in outcomes if o is None) == 1
    assert t.load_stats().placed == 2
    assert t.load_stats().stash_size == 1
    _check_equivalence(t)


def test_stash_limit_is_advisory():
    # the stash has no cap: every key that finds no bin is kept
    t = _table(m=2)
    outcomes = [t.insert(k * 1000 + 17) for k in range(6)]
    assert outcomes.count(None) == 4
    assert t.load_stats() == LoadStats(placed=2, stash_size=4)  # nothing dropped
    assert t.stats.stash_peak == 4
    _check_equivalence(t)


def test_displacement_chain():
    t = _table(m=2)
    k1 = _find_key_with_choices(t, (0, 0))
    t.insert(k1)
    k2 = _find_key_with_choices(t, (0, 1))
    assert t.bin_of(k1) == 0
    assert t.insert(k2) is not None  # displaces k1 or lands in bin 1
    assert t.load_stats().placed == 2
    assert t.stats.displacements <= 1
    _check_equivalence(t)


def _count_searches(monkeypatch) -> list:
    """The choices of every augmenting search the table runs from now on."""
    calls = []

    def counting(bins, mark, choices, *rest):
        calls.append(choices)
        return augment(bins, mark, choices, *rest)

    monkeypatch.setattr(cuckoo, "augment", counting)
    return calls


def test_a_free_choice_never_enters_the_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    assert _table(m=1000).insert(42) is not None
    keys = SplitMix64(31).draws(1 << 64, 500)
    batched = _table(m=1000)
    batched.insert_many(keys[:1])
    assert calls == []
    # at load 1/2 a search runs for exactly the keys whose every choice is
    # taken when they arrive, by insert and by insert_many alike
    one_by_one, busy = _table(m=1000), []
    for key in keys:
        if all(one_by_one._bins[b] is not None for b in one_by_one._choices(key)):
            busy.append(one_by_one._choices(key))
        one_by_one.insert(key)
    batched.insert_many(keys[1:])
    assert 0 < len(busy) < len(keys) // 10
    assert calls == busy + busy
    assert _state(batched, keys) == _state(one_by_one, keys)


def test_a_key_with_every_choice_taken_searches_once(monkeypatch):
    t = _table(m=2)
    k1 = _find_key_with_choices(t, (0, 0))
    k2 = _find_key_with_choices(t, (1, 1))
    t.insert(k1)
    t.insert(k2)
    calls = _count_searches(monkeypatch)
    k3 = _find_key_with_choices(t, (0, 1))
    assert t.insert(k3) is None
    assert calls == [(0, 1)]


def test_a_free_choice_is_the_first_free_bin_in_choice_order(monkeypatch):
    # (free, free) takes the first, (taken, free) the second, and a free
    # repeated bin (c, c) takes c; each is counted as placed, none moves a key
    calls = _count_searches(monkeypatch)
    t = _table(m=4)
    t._choices = {10: (1, 2), 11: (1, 0), 12: (3, 3)}.__getitem__
    assert [t.insert(k) for k in (10, 11, 12)] == [1, 0, 3]
    assert [t.bin_of(k) for k in (10, 11, 12)] == [1, 0, 3]
    assert t._bins == [(11, (1, 0)), (10, (1, 2)), None, (12, (3, 3))]
    assert t.stats == TableStats(placed=3, displacements=0, stash_peak=0)
    assert calls == []


def test_lookup_variants():
    t = _table(m=2)
    keys = [10, 20, 30]
    for k in keys:
        t.insert(k)
    stashed = t.stash_keys()[0]
    res = t.lookup(stashed)
    assert res.found and res.in_stash and res.bin is None
    placed = next(k for k in keys if k != stashed)
    res = t.lookup(placed)
    assert res.found and not res.in_stash
    assert res.bin == t.bin_of(placed)
    assert not t.lookup(999).found


def test_remove_round_trip():
    t = _table()
    t.insert(5)
    assert t.remove(5)
    assert not t.lookup(5).found
    assert not t.remove(5)
    assert t.load_stats().placed == 0


def test_remove_promotes_stashed_key():
    t = _table(m=2)
    for k in (10, 20, 30):
        t.insert(k)
    stashed = t.stash_keys()[0]
    victim = next(k for k in (10, 20, 30) if t.bin_of(k) is not None)
    assert t.remove(victim)
    assert t.bin_of(stashed) is not None
    assert t.load_stats().stash_size == 0
    _check_equivalence(t)


def test_remove_stashed_key_changes_no_bin():
    t = _table(m=40, seed=4)
    for k in range(80):
        t.insert(k * 7919 + 3)
    stash = t.stash_keys()
    assert len(stash) >= 3
    victim = stash[len(stash) // 2]
    bins = {k: t.bin_of(k) for k in t._where if k != victim}
    before = dataclasses.replace(t.stats)
    assert t.remove(victim)
    assert {k: t.bin_of(k) for k in t._where} == bins
    assert t.stash_keys() == tuple(k for k in stash if k != victim)
    assert t.stats.displacements == before.displacements
    assert t.stats.placed == before.placed
    assert t.stats.stash_peak == before.stash_peak


def test_remove_absent_leaves_table_unchanged():
    t = _table()
    t.insert(1)
    before = (t.load_stats(), dict(t._where))
    assert not t.remove(12345)
    assert (t.load_stats(), t._where) == before


# ---------------------------------------------------------------------------
# batch insert


def _state(table: CuckooTable, keys) -> tuple:
    return [table.bin_of(k) for k in keys], table.stash_keys(), table.stats, len(table)


_SHAPES = [(2, None), (3, None), (2, 400)]


@pytest.mark.parametrize("d, boundary", _SHAPES, ids=["d2", "d3", "two-bank"])
@pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
def test_insert_many_equals_insert_loop(d, boundary, load):
    # at load 1.5 the stream runs into a second hashing block
    keys = SplitMix64(606).draws(1 << 64, int(1000 * load))
    one_by_one, batched = _table(1000, d, 7, boundary), _table(1000, d, 7, boundary)
    for key in keys:
        one_by_one.insert(key)
    batched.insert_many(keys)
    assert _state(batched, keys) == _state(one_by_one, keys)
    assert batched.stash_keys() or load < 1  # from load 1 on, the stash order is compared


@pytest.mark.parametrize("d, boundary", _SHAPES, ids=["d2", "d3", "two-bank"])
@pytest.mark.parametrize("repeat_at", [5, 1500])
def test_insert_many_stops_at_a_duplicate_as_the_loop_does(d, boundary, repeat_at):
    keys = SplitMix64(707).draws(1 << 64, 2000)
    keys.insert(repeat_at, keys[3])
    one_by_one, batched = _table(1000, d, 8, boundary), _table(1000, d, 8, boundary)
    with pytest.raises(DuplicateKeyError, match=f"key {keys[3]} already stored"):
        for key in keys:
            one_by_one.insert(key)
    with pytest.raises(DuplicateKeyError, match=f"key {keys[3]} already stored"):
        batched.insert_many(iter(keys))
    assert len(batched) == repeat_at
    assert _state(batched, keys) == _state(one_by_one, keys)


# ---------------------------------------------------------------------------
# matching equivalence


def test_insert_only_equivalence_random_instances():
    rng = random.Random(2024)
    for trial in range(60):
        n = rng.randint(1, 120)
        m = rng.randint(1, 120)
        t = _table(m=m, seed=trial + 1)
        for j in range(n):
            t.insert(rng.getrandbits(64))
        _check_equivalence(t)


def test_insert_only_equivalence_d3():
    rng = random.Random(77)
    for trial in range(20):
        t = _table(m=rng.randint(2, 40), d=3, seed=trial + 500)
        for j in range(rng.randint(1, 80)):
            t.insert(rng.getrandbits(64))
        _check_equivalence(t)


def test_equivalence_through_interleaved_operations():
    rng = random.Random(5150)
    for trial in range(12):
        m = rng.randint(2, 40)
        t = _table(m=m, seed=trial + 900)
        live = []
        for step in range(120):
            if live and rng.random() < 0.4:
                key = live.pop(rng.randrange(len(live)))
                assert t.remove(key)
            else:
                key = rng.getrandbits(64)
                if key in t:
                    continue
                t.insert(key)
                live.append(key)
            _check_equivalence(t)


def _dead(table: CuckooTable) -> set[int]:
    """The table's dead bins, read off its mark list."""
    return {b for b, mark in enumerate(table._mark) if mark < 0}


def _check_dead_bins(table: CuckooTable) -> None:
    # dead bins are occupied and their occupants can only move to dead bins
    dead = _dead(table)
    for b in dead:
        slot = table._bins[b]
        assert slot is not None
        assert all(c in dead for c in slot[1])


@pytest.mark.parametrize(
    "d, boundary", [(2, None), (3, None), (2, 400)], ids=["d2", "d3", "partitioned"]
)
def test_remove_matches_reference_at_full_load(d, boundary):
    # fill to n = m, then remove/insert/lookup at that load; after every
    # operation the layout, stash order and counters equal those of the
    # unpruned reference table
    m = 1000
    rng = random.Random(8800 + d)
    t = _table(m=m, d=d, seed=71 + d, boundary=boundary)
    ref = ReferenceCuckooTable(m, _choices_of(t))
    live: list[int] = []
    saw_dead = False
    for step in range(m + 500):
        r = rng.random()
        if step >= m and r < 0.4:
            key = live.pop(rng.randrange(len(live)))
            assert t.remove(key) == ref.remove(key)
        elif step >= m and r < 0.6:
            key = rng.choice(live) if r < 0.5 else rng.getrandbits(64)
            res = t.lookup(key)
            assert (res.found, res.in_stash, res.bin) == ref.lookup(key)
        else:
            key = rng.getrandbits(64)
            assert t.insert(key) == ref.insert(key)
            live.append(key)
        _check_matches_reference(t, ref)
        saw_dead = saw_dead or bool(_dead(t))
        if step % 250 == 249:
            _check_equivalence(t)
            _check_dead_bins(t)
    assert saw_dead
    assert t.load_stats().stash_size > 0


def test_shared_lookup_results_are_frozen_and_match_reference():
    # a miss and an in-stash answer are shared instances, so they must be
    # immutable; the reference hashes keys on its own, so bins agree too
    for shared in (_MISS, _IN_STASH):
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.found = not shared.found
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.bin = 0
    assert (_MISS.found, _MISS.in_stash, _MISS.bin) == (False, False, None)
    assert (_IN_STASH.found, _IN_STASH.in_stash, _IN_STASH.bin) == (True, True, None)
    m = 300
    t = _table(m=m, seed=5)
    ref = ReferenceCuckooTable(m, lambda k: reference_bin_choices(k, t.seeds, m, 2))
    rng = random.Random(77)
    stored = [rng.getrandbits(64) for _ in range(m)]
    for key in stored:
        assert t.insert(key) == ref.insert(key)
    answers = set()
    for key in stored + [rng.getrandbits(64) for _ in range(m)]:
        res = t.lookup(key)
        assert (res.found, res.in_stash, res.bin) == ref.lookup(key)
        if not res.found or res.in_stash:
            assert res is (_IN_STASH if res.found else _MISS)
        answers.add((res.found, res.in_stash))
    assert len(answers) == 3  # bin, stash and miss answers all seen


def test_no_key_loss_and_bin_validity():
    rng = random.Random(31)
    t = _table(m=30)
    choices = _choices_of(t)
    live = set()
    for step in range(400):
        if live and rng.random() < 0.35:
            key = rng.choice(sorted(live))
            t.remove(key)
            live.discard(key)
        else:
            key = rng.getrandbits(64)
            if key in live:
                continue
            t.insert(key)
            live.add(key)
        # every live key findable, every stored bin one of the key's choices
        for k in live:
            res = t.lookup(k)
            assert res.found
            if res.bin is not None:
                assert res.bin in choices(k)
        assert len(t) == len(live)
        binned = [slot[0] for slot in t._bins if slot is not None]
        assert len(binned) == len(set(binned))
        assert not set(binned) & set(t.stash_keys())


def test_full_scale_seeded_overflow():
    # one seeded build at full load: stash fraction near its expectation
    from cuckoo_lab.trace import synthetic_stream

    t = _table(m=10_000, seed=123_456)
    for key in synthetic_stream(10_000, 9):
        t.insert(key)
    assert t.load_stats().stash_size / 10_000 == pytest.approx(0.1619, abs=0.01)


def test_partitioned_table_respects_banks():
    t = _table(m=10, boundary=4, seed=11)
    keys = [k * 7919 for k in range(30)]
    for key in keys:
        t.insert(key)
    choices = _choices_of(t)
    for key in keys:
        b = t.bin_of(key)
        if b is None:
            continue
        lo, hi = choices(key)
        assert b in (lo, hi)
        assert 0 <= lo < 4 <= hi < 10
    _check_equivalence(t)


# ---------------------------------------------------------------------------
# removes in proportion to what they free: the dead bins, their invariants
# and the index of choosers behind the backward walk


def _check_remove_invariants(table: CuckooTable) -> None:
    """Marks of 0 and -1 only, as no search is running; invariant (a) of
    the module docstring, a closed set of occupied dead bins, and an index
    equal to its recomputation from every stashed key and the occupants of
    the dead bins not waiting in _marked."""
    assert set(table._mark) <= {0, -1}
    _check_dead_bins(table)
    dead = _dead(table)
    for choices in table._stash.values():
        assert set(choices) <= dead
    waiting = set(table._marked)
    assert len(waiting) == len(table._marked) and waiting <= dead
    owners = [table._bins[b] for b in dead - waiting]
    owners += table._stash.items()
    expected = sorted((c, key) for key, choices in owners for c in choices)
    assert sorted((c, key) for c, keys in enumerate(table._choosers) for key in keys) == expected


def _check_matches_reference(table: CuckooTable, ref: ReferenceCuckooTable) -> None:
    assert table._bins == ref.bins
    assert table.stash_keys() == tuple(ref.stash)
    assert dataclasses.asdict(table.stats) == ref.stats


# d, the two-bank split as a share of m, and the largest m: at d = 3 and
# m = 2000 one remove of the unpruned reference takes about 70 ms, since
# every stashed key's search spans the giant component
_SHAPES = {"d2": (2, None, 2000), "d3": (3, None, 400), "partitioned": (2, 0.4, 2000)}


class TableAgainstReference(RuleBasedStateMachine):
    """Inserts, removes and lookups on a table and on the unpruned
    reference; after every step the layout, stash order and counters are
    equal and the remove invariants hold, and every tenth step the placed
    count is the Hopcroft-Karp matching size.  The table starts filled to a
    load of up to 1.2 with as many as m = 2000 bins, and a fill step
    refills it."""

    @initialize(shape=st.sampled_from(sorted(_SHAPES)), size=st.sampled_from((8, 60, None)),
                load=st.sampled_from((0.0, 0.5, 1.0, 1.2)), seed=st.integers(0, 2**32))
    def make(self, shape, size, load, seed):
        d, split, largest = _SHAPES[shape]
        m = size or largest
        self.table = _table(m=m, d=d, seed=seed, boundary=None if split is None else round(split * m))
        self.ref = ReferenceCuckooTable(m, _choices_of(self.table))
        self.live: list[int] = []
        self.rng = random.Random(seed)
        self.steps = 0
        self.fill(load)

    @rule(load=st.sampled_from((0.5, 1.0, 1.2)))
    def fill(self, load):
        while len(self.live) < load * self.table.m:
            self.insert(self.rng.getrandbits(64))

    @rule(key=st.integers(0, 2**64 - 1))
    def insert(self, key):
        if key in self.table:
            return
        assert self.table.insert(key) == self.ref.insert(key)
        self.live.append(key)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 2**16))
    def remove(self, i):
        key = self.live.pop(i % len(self.live))
        assert self.table.remove(key) and self.ref.remove(key)

    @rule(key=st.integers(0, 2**64 - 1))
    def remove_absent(self, key):
        if key not in self.table:
            assert not self.table.remove(key) and not self.ref.remove(key)

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 2**16))
    def lookup(self, i):
        for key in (self.live[i % len(self.live)], self.rng.getrandbits(64)):
            res = self.table.lookup(key)
            assert (res.found, res.in_stash, res.bin) == self.ref.lookup(key)

    @invariant()
    def same_as_reference(self):
        _check_matches_reference(self.table, self.ref)
        _check_remove_invariants(self.table)
        self.steps += 1
        if self.steps % 10 == 0:
            size, _ = hopcroft_karp_matching(list(map(self.ref.choices_of, self.table._where)), self.table.m)
            assert self.table.load_stats().placed == size


TableAgainstReference.TestCase.settings = settings(max_examples=40, stateful_step_count=25)
test_table_against_reference_state_machine = TableAgainstReference.TestCase


class SmallTableAgainstReference(TableAgainstReference):
    """The machine above on tables of 3 to 12 bins, where a fault in the
    table shows within a few steps and its example shrinks in about a
    second."""

    @initialize(shape=st.sampled_from(sorted(_SHAPES)), size=st.integers(3, 12),
                load=st.sampled_from((0.0, 0.5, 1.0, 1.2)), seed=st.integers(0, 2**32))
    def make(self, shape, size, load, seed):
        super().make(shape, size, load, seed)


SmallTableAgainstReference.TestCase.settings = settings(max_examples=150, stateful_step_count=30)
test_small_table_against_reference_state_machine = SmallTableAgainstReference.TestCase


@pytest.mark.parametrize("d, boundary", [(2, None), (3, None), (2, 300)], ids=["d2", "d3", "partitioned"])
def test_drain_from_full_to_half_load_matches_reference(d, boundary):
    # fill to load 1, then remove down to load 0.5: the reach of an emptied
    # dead bin often holds no stashed key, so its bins come back to life
    m = 600
    rng = random.Random(4400 + d)
    t = _table(m=m, d=d, seed=17 + d, boundary=boundary)
    ref = ReferenceCuckooTable(m, _choices_of(t))
    live = [rng.getrandbits(64) for _ in range(m)]
    for key in live:
        assert t.insert(key) == ref.insert(key)
    _check_matches_reference(t, ref)
    _check_remove_invariants(t)
    # stashed keys leave the index while the marked bins still wait
    stash = t.stash_keys()
    for key in (stash[0], stash[len(stash) // 2], stash[-1]):
        live.remove(key)
        assert t.remove(key) and ref.remove(key)
        _check_matches_reference(t, ref)
        _check_remove_invariants(t)
    assert t._marked
    full_stash = len(t._stash)
    promoted = revived = 0
    while len(live) > m // 2:
        key = live.pop(rng.randrange(len(live)))
        from_dead = t.bin_of(key) in _dead(t)
        dead, stash = len(_dead(t)), len(t._stash)
        assert t.remove(key) and ref.remove(key)
        _check_matches_reference(t, ref)
        _check_remove_invariants(t)
        if from_dead:
            promoted += len(t._stash) < stash
            # no promotion: the emptied bin and the rest of its reach revive
            revived += len(_dead(t)) < dead - 1
    _check_equivalence(t)
    assert promoted and revived
    assert t.load_stats().stash_size < full_stash


def test_remove_searches_in_proportion_to_what_it_frees(monkeypatch):
    # a remove from a live bin searches nothing; one from a dead bin runs at
    # most one augmenting search, however large the stash
    m = 2000
    rng = random.Random(9)
    t = _table(m=m, seed=21)
    live = [rng.getrandbits(64) for _ in range(m)]
    for key in live:
        t.insert(key)
    assert len(t._stash) > 250
    calls = _count_searches(monkeypatch)
    outside = inside = 0
    for key in [k for k in live if t.bin_of(k) is not None][:400]:
        was_dead = t.bin_of(key) in _dead(t)
        stash = len(t._stash)
        del calls[:]
        assert t.remove(key)
        if was_dead:
            inside += 1
            assert len(calls) <= 1
            assert len(calls) == stash - len(t._stash)
        else:
            outside += 1
            assert calls == []
            assert len(t._stash) == stash
    assert outside > 50 and inside > 50
