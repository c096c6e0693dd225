"""Cuckoo table semantics and the placed-count/maximum-matching guarantee."""

import dataclasses
import random

import pytest

from cuckoo_lab.cuckoo import CuckooTable, DuplicateKeyError, LoadStats, new_table
from cuckoo_lab.matching import BipartiteGraph, max_matching
from cuckoo_lab.simulate import SplitMix64

from oracles import ReferenceCuckooTable


def _table(m=8, d=2, seed=1, boundary=None) -> CuckooTable:
    rng = SplitMix64(seed)
    return new_table(m, d, [rng.next_u64() for _ in range(d)], boundary)


def _induced_graph(table: CuckooTable) -> BipartiteGraph:
    keys = table.stored_keys()
    return BipartiteGraph(
        n=len(keys),
        m=table.m,
        choices=tuple(table.bin_choices(k) for k in keys),
    )


def _check_equivalence(table: CuckooTable) -> None:
    placed = table.load_stats().placed
    assert placed == max_matching(_induced_graph(table))[0]


def _find_key_with_choices(table: CuckooTable, wanted, start=0) -> int:
    key = start
    while True:
        if table.bin_choices(key) == wanted and key not in table:
            return key
        key += 1


# ---------------------------------------------------------------------------
# construction


def test_new_table_shapes():
    t = _table(m=4, d=2)
    stats = t.load_stats()
    assert (stats.placed, stats.stash_size) == (0, 0)
    t = _table(m=4, d=3)
    assert len(t.bin_choices(123)) == 3
    t = _table(m=4, d=2, boundary=2)
    lo, hi = t.bin_choices(99)
    assert 0 <= lo < 2 <= hi < 4


def test_new_table_validation():
    with pytest.raises(ValueError):
        _table(m=4, d=1)
    with pytest.raises(ValueError):
        new_table(4, 2, [1])  # seed count mismatch
    with pytest.raises(ValueError):
        _table(m=4, d=3, boundary=2)
    with pytest.raises(ValueError):
        _table(m=4, d=2, boundary=0)


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
    bins = {k: t.bin_of(k) for k in t.stored_keys() if k != victim}
    before = dataclasses.replace(t.stats)
    assert t.remove(victim)
    assert {k: t.bin_of(k) for k in t.stored_keys()} == bins
    assert t.stash_keys() == tuple(k for k in stash if k != victim)
    assert t.stats.displacements == before.displacements
    assert t.stats.placed == before.placed
    assert t.stats.stashed == before.stashed - 1


def test_remove_absent_leaves_table_unchanged():
    t = _table()
    t.insert(1)
    before = (t.load_stats(), t.stored_keys())
    assert not t.remove(12345)
    assert (t.load_stats(), t.stored_keys()) == before


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


def _check_dead_bins(table: CuckooTable) -> None:
    # dead bins are occupied and their occupants can only move to dead bins
    for b in table._dead:
        slot = table._bins[b]
        assert slot is not None
        assert all(c in table._dead for c in slot[1])


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
    ref = ReferenceCuckooTable(m, t.bin_choices)
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
        assert t._bins == ref.bins
        assert t.stash_keys() == tuple(ref.stash)
        assert dataclasses.asdict(t.stats) == ref.stats
        saw_dead = saw_dead or bool(t._dead)
        if step % 250 == 249:
            _check_equivalence(t)
            _check_dead_bins(t)
    assert saw_dead
    assert t.load_stats().stash_size > 0


def test_no_key_loss_and_bin_validity():
    rng = random.Random(31)
    t = _table(m=30)
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
                assert res.bin in t.bin_choices(k)
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
    for k in range(30):
        t.insert(k * 7919)
    for key in t.stored_keys():
        b = t.bin_of(key)
        if b is None:
            continue
        lo, hi = t.bin_choices(key)
        assert b in (lo, hi)
        assert 0 <= lo < 4 <= hi < 10
    _check_equivalence(t)
