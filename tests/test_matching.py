"""Matching kernel against brute force, plus the paper's structure lemmas
checked on the component shapes of sampled graphs."""

import hashlib
import random
import zlib

import pytest

from cuckoo_lab import matching, simulate
from cuckoo_lab.exact import ModelParams
from cuckoo_lab.matching import BipartiteGraph, augment, max_matching, mu_via_columns, mu_via_deficit
from cuckoo_lab.simulate import RngSeed, gen_graph

import oracles


def _graph(n, m, choices):
    return BipartiteGraph(n=n, m=m, choices=tuple(tuple(c) for c in choices))


def _components(g):
    return oracles.component_shapes(g.choices, g.m, max_matching(g)[1])


# ---------------------------------------------------------------------------
# augment's mark list: 0 may be entered, -1 is dead, and a search's own
# marks are gone when it returns


def test_augment_success_clears_every_mark_it_wrote():
    # the search reaches bins 0, 3 and 1, skips the dead bin 4, and shifts
    # a from 0 to 1 and b from 1 to the free bin 2; bin 3 is off the chain
    bins = [("a", (0, 4, 3, 1)), ("b", (1, 2)), None, ("c", (3,)), ("e", (4,))]
    mark = [0, 0, 0, 0, -1]
    assert augment(bins, mark, (0,)) == [0, 1, 2]
    assert mark == [0, 0, 0, 0, -1]
    assert bins == [None, ("a", (0, 4, 3, 1)), ("b", (1, 2)), ("c", (3,)), ("e", (4,))]


def test_augment_failure_marks_exactly_its_bins_dead():
    bins = [("a", (0, 1)), ("b", (1, 0)), ("c", (2, 3, 1)), ("d", (3, 2)), None]
    mark = [0] * 5
    marked = []
    assert augment(bins, mark, (1, 0), marked) is None
    assert mark == [-1, -1, 0, 0, 0]
    assert marked == [1, 0]  # visit order: the roots as given
    # were the dead bin 1 entered, b would move to the free bin 4
    bins[1] = ("b", (1, 4))
    assert augment(bins, mark, (2, 1), marked) is None
    assert mark == [-1, -1, -1, -1, 0]
    assert marked == [1, 0, 2, 3]
    assert bins[4] is None


# ---------------------------------------------------------------------------
# max_matching


def test_max_matching_examples():
    assert max_matching(_graph(2, 2, [[0, 0], [0, 0]]))[0] == 1
    assert max_matching(_graph(0, 3, []))[0] == 0
    assert max_matching(_graph(2, 2, [[0, 1], [0, 1]]))[0] == 2


def test_max_matching_matched_set_is_consistent():
    g = _graph(4, 4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    size, matched = max_matching(g)
    assert size == 4
    used = [v for v in matched if v is not None]
    assert len(used) == len(set(used)) == size
    for u, v in enumerate(matched):
        assert v in g.choices[u]


def test_max_matching_searches_only_keys_with_no_free_choice(count_searches):
    calls = count_searches(matching)
    # each key's first choice is a distinct free bin
    assert max_matching(_graph(3, 4, [[2, 0], [0, 2], [3, 3]])) == (3, (2, 0, 3))
    assert calls == []
    # the third key finds both of its bins taken
    assert max_matching(_graph(3, 3, [[0], [1, 2], [1, 0]])) == (3, (0, 2, 1))
    assert calls == [(1, 0)]


def test_max_matching_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 8)
        m = rng.randint(1, 8)
        choices = [[rng.randrange(m) for _ in range(rng.randint(0, 3))] for _ in range(n)]
        g1 = _graph(n, m, choices)
        g2 = _graph(n, m, choices)
        assert max_matching(g1) == max_matching(g2)


def test_max_matching_against_brute_force():
    rng = random.Random(20240917)
    for _ in range(1500):
        n = rng.randint(0, 7)
        m = rng.randint(1, 7)
        choices = [
            [rng.randrange(m) for _ in range(rng.randint(0, 4))] for _ in range(n)
        ]
        g = _graph(n, m, choices)
        expected = oracles.brute_max_matching(choices, m)
        assert max_matching(g)[0] == expected


def _hk_cases():
    seed = RngSeed(0x4B4152)
    for d in (3, 4):
        for alpha in (0.5, 0.9, 1.0, 1.2):
            yield ModelParams.fixed_d(round(alpha * 2000), 2000, d), seed
    yield ModelParams.fixed2(1000, 1000), seed
    yield ModelParams.mixed_rand(1000, 1000, 0.5), seed
    yield ModelParams.partitioned(1000, 1000, 0.3), seed


def test_max_matching_against_hopcroft_karp():
    for params, seed in _hk_cases():
        for t in range(2):
            g = gen_graph(params, seed.derive(t))
            size, matched = max_matching(g)
            assert size == oracles.hopcroft_karp_matching(g.choices, g.m)[0], (params, t)
            used = [v for v in matched if v is not None]
            assert len(used) == len(set(used)) == size
            assert all(v is None or v in row for v, row in zip(matched, g.choices))


# sha256 of repr(max_matching(g)), the size and the matched tuple, for one
# seeded graph per case at m = 2000: which bin each key ends in depends on
# the order the search reaches bins and the chains it builds, so a change
# to the search that keeps every size still moves a digest
_MATCHING_GOLDEN = {
    "d2-half": (ModelParams.fixed2(1000, 2000), "83bccdd12c73378c658a699db3a7f2e1a985bf47a6df296d46b03b9aee05f26c"),
    "d2-full": (ModelParams.fixed2(2000, 2000), "5831bed60ed823fa75620837f600a5609f0c72f2fb3f833389b86be459b3c423"),
    "d3-half": (ModelParams.fixed_d(1000, 2000, 3), "0ac33e701d7d9c94c17d819e21cbb053334c8f63af89bdae6cac3a5c79c1bec5"),
    "d3-full": (ModelParams.fixed_d(2000, 2000, 3), "165754500e712a0c461230215616220bf81768c55c0e47b2871abf5267a49146"),
}


@pytest.mark.parametrize("case", sorted(_MATCHING_GOLDEN))
def test_max_matching_golden(case):
    params, expected = _MATCHING_GOLDEN[case]
    g = gen_graph(params, RngSeed(2027).derive(0))
    assert hashlib.sha256(repr(max_matching(g)).encode()).hexdigest() == expected


def test_components_independent_of_the_maximum_matching():
    # the shapes count the keys of one maximum matching in each component;
    # the oracle's matching, another maximum one, gives the same shapes
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randint(0, 40)
        m = rng.randint(1, 40)
        g = _graph(n, m, [[rng.randrange(m) for _ in range(rng.randint(0, 4))] for _ in range(n)])
        hk = oracles.hopcroft_karp_matching(g.choices, g.m)[1]
        assert oracles.component_shapes(g.choices, g.m, hk) == _components(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        _graph(1, 2, [[2]])
    with pytest.raises(ValueError):
        _graph(2, 2, [[0]])
    with pytest.raises(ValueError, match="non-negative"):
        _graph(0, -1, [])


# ---------------------------------------------------------------------------
# component shapes


def test_components_single_path():
    assert _components(_graph(1, 2, [[0, 1]])) == [(1, 2, 2, 1)]  # a tree with one spare bin


def test_components_parallel_edge_and_isolated_bins():
    assert sorted(_components(_graph(1, 3, [[0, 0]]))) == [(0, 1, 0, 0), (0, 1, 0, 0), (1, 1, 2, 1)]


def test_components_empty_graph():
    assert _components(_graph(0, 2, [])) == [(0, 1, 0, 0), (0, 1, 0, 0)]


def test_key_with_no_choice():
    g = _graph(2, 2, [[], [0]])
    assert mu_via_deficit(g) == max_matching(g)[0] == 1
    comps = _components(g)
    assert sorted(comps) == [(0, 1, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]
    assert sum(c.matched for c in comps) == max_matching(g)[0]


def test_components_conservation():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 30)
        m = rng.randint(1, 30)
        choices = [
            [rng.randrange(m) for _ in range(rng.randint(1, 2))] for _ in range(n)
        ]
        g = _graph(n, m, choices)
        comps = _components(g)
        assert sum(c.s for c in comps) == n
        assert sum(c.q for c in comps) == m
        assert sum(c.matched for c in comps) == max_matching(g)[0]
        assert sum(c.edges for c in comps) == sum(len(r) for r in choices)


# ---------------------------------------------------------------------------
# deficit-count shortcut


def test_mu_via_deficit_examples():
    assert mu_via_deficit(_graph(2, 2, [[0, 1], [0, 1]])) == 2
    assert mu_via_deficit(_graph(2, 2, [[0, 0], [0, 0]])) == 1
    assert mu_via_deficit(_graph(0, 3, [])) == 0


def test_mu_via_deficit_rejects_high_degree():
    with pytest.raises(ValueError):
        mu_via_deficit(_graph(1, 3, [[0, 1, 2]]))
    # the error names the first key of degree > 2
    with pytest.raises(ValueError, match=r"^left vertex 2 has degree 4 > 2$"):
        mu_via_deficit(_graph(4, 3, [[0], [1, 2], [0, 1, 2, 2], [0, 1, 2]]))


def test_mu_via_deficit_equals_matching_on_random_graphs():
    rng = random.Random(99)
    for _ in range(800):
        n = rng.randint(0, 60)
        m = rng.randint(1, 60)
        # keys with no choice, one choice, or two that may repeat a bin
        choices = [
            [rng.randrange(m) for _ in range(rng.randint(0, 2))] for _ in range(n)
        ]
        g = _graph(n, m, choices)
        assert mu_via_deficit(g) == max_matching(g)[0]
    seed = RngSeed(1000)
    for params in (
        ModelParams.fixed2(1000, 1000),
        ModelParams.mixed_det(1000, 1000, 1.5),
        ModelParams.mixed_rand(1000, 1000, 0.5),
        ModelParams.partitioned(1000, 1000, 0.3),
    ):
        for t in range(3):
            g = gen_graph(params, seed.derive(t))
            assert mu_via_deficit(g) == max_matching(g)[0], (params.variant, t)


def test_mu_via_columns_examples():
    # (m, xs, ys) with the choice rows of the same keys: one-choice keys
    # repeat their bin in ys
    cases = [
        (3, [0, 1], [0, 1], [[0], [1]]),  # two one-choice loops
        (2, [0, 0, 1], [1, 1, 1], [[0, 1], [0, 1], [1]]),  # parallel edges, then a loop
        (2, [1], [1], [[1, 1]]),  # a key that repeats its bin
        (4, [], [], []),  # n = 0
        (1, [0, 0, 0], [0, 0, 0], [[0], [0, 0], [0]]),  # m = 1
        (5, [3] * 6, [3] * 6, [[3, 3], [3], [3, 3], [3], [3], [3, 3]]),  # every key in one bin
        (4, [0, 1, 2, 3], [1, 2, 3, 0], [[0, 1], [1, 2], [2, 3], [3, 0]]),  # a cycle
        (6, [0, 1, 3, 4, 2, 0], [1, 2, 4, 5, 5, 0], [[0, 1], [1, 2], [3, 4], [4, 5], [2, 5], [0]]),
    ]
    for m, xs, ys, rows in cases:
        want = max_matching(_graph(len(rows), m, rows))[0]
        assert mu_via_columns(m, xs, ys) == want, (m, xs, ys)


def test_mu_via_columns_a_merged_cycle_saturates_the_whole_component():
    # a loop at bin 0 joins bin 1's tree, on either side of the union; a
    # further key inside the joined component matches nothing more, as two
    # bins hold at most two keys, and bins 2 and 3 stay trees
    for xs, ys in (([0, 1, 1], [0, 0, 1]), ([0, 0, 1], [0, 1, 1]), ([0, 1, 0], [0, 0, 1])):
        rows = [[x, y] for x, y in zip(xs, ys)]
        assert mu_via_columns(4, xs, ys) == max_matching(_graph(3, 4, rows))[0] == 2
    # a cycle through bins 0-2 joins bin 3's tree, then bin 3 takes a loop
    xs, ys = [0, 1, 2, 3, 3], [1, 2, 0, 0, 3]
    rows = [[x, y] for x, y in zip(xs, ys)]
    assert mu_via_columns(5, xs, ys) == max_matching(_graph(5, 5, rows))[0] == 4


def test_trial_columns_match_the_graph_and_its_matching():
    # the endpoint columns of every d <= 2 model are the ends of gen_graph's
    # rows, drawn from the same state, and their tree count is the maximum
    # matching size
    seed = RngSeed(31)
    for params in (
        ModelParams.fixed2(300, 300),
        ModelParams.fixed_d(300, 300, 2),
        ModelParams.mixed_det(300, 300, 1.5),
        ModelParams.mixed_rand(300, 300, 0.5),
        ModelParams.mixed_rand(300, 300, 0.0),
        ModelParams.mixed_rand(300, 300, 1.0),
        ModelParams.partitioned(300, 300, 0.3),
        ModelParams.fixed2(150, 300),
        ModelParams.fixed2(40, 1),
    ):
        for t in range(4):
            rng = seed.derive(t)
            xs, ys, _ = simulate._endpoints(params, rng)
            g = gen_graph(params, seed.derive(t))
            assert (xs, ys) == ([row[0] for row in g.choices], [row[-1] for row in g.choices])
            assert mu_via_columns(params.m, xs, ys) == max_matching(g)[0], (params, t)


def test_deficit_component_is_tree_with_full_degrees():
    # in any two-choice graph, a component with one spare bin is a tree on
    # 2s edges and has no parallel edges
    seed = RngSeed(31337)
    for t in range(200):
        g = gen_graph(ModelParams.fixed2(25, 25), seed.derive(t))
        for c in _components(g):
            if c.q == c.s + 1 and c.s > 0:
                assert c.edges == 2 * c.s == c.s + c.q - 1


# ---------------------------------------------------------------------------
# structure lemmas


def _broken_lemma(c, d):
    """The first structure lemma that component shape c breaks in a graph
    whose keys have at most d choices, or None.

    s keys reach at most (d-1)s + 1 bins (lemmas 1 and 8).  A component
    that reaches that many is a tree that places all its keys (lemmas 3-4
    and 9-10), and for d = 2 every key in it has two choices (lemma 6).
    A two-choice component with fewer bins fills all of them (lemma 2).
    """
    s, q, edges, matched = c
    top = (d - 1) * s + 1
    tree = edges == s + q - 1
    if d == 2:
        rules = (("lemma1", q <= top), ("lemma4", q < top or tree), ("lemma3", q < top or matched == s),
                 ("lemma6", q < top or edges == 2 * s), ("lemma2", q >= top or matched == q))
    else:
        rules = (("lemma8", q <= top), ("lemma9", q < top or matched == s), ("lemma10", q < top or tree))
    return next((lemma for lemma, holds in rules if not holds), None)


def test_assert_structure_examples():
    Shape = oracles.Component
    assert _broken_lemma(Shape(s=3, q=4, edges=6, matched=3), 2) is None
    assert _broken_lemma(Shape(s=2, q=4, edges=4, matched=2), 2) == "lemma1"  # too many bins
    assert _broken_lemma(Shape(s=1, q=3, edges=3, matched=1), 3) is None  # a star
    assert _broken_lemma(Shape(s=3, q=4, edges=6, matched=2), 2) == "lemma3"  # a key left out
    assert _broken_lemma(Shape(s=3, q=4, edges=7, matched=3), 2) == "lemma4"  # not a tree
    assert _broken_lemma(Shape(s=3, q=4, edges=5, matched=3), 2) == "lemma4"  # a key of degree one
    assert _broken_lemma(Shape(s=5, q=3, edges=10, matched=2), 2) == "lemma2"  # a bin left empty
    assert _broken_lemma(Shape(s=2, q=6, edges=6, matched=2), 3) == "lemma8"


_VARIANTS = [
    ModelParams.fixed2(20, 18),
    ModelParams.mixed_det(20, 18, 1.5),
    ModelParams.mixed_rand(20, 18, 0.6),
    ModelParams.partitioned(20, 18, 0.5),
    ModelParams.fixed_d(12, 30, 3),
    ModelParams.fixed_d(10, 40, 4),
]


def _case_id(params):
    return f"{params.variant}-d{params.d or 2}"


@pytest.mark.parametrize("params", _VARIANTS, ids=_case_id)
def test_structure_rules_hold_on_random_graphs(params):
    d = params.d if params.d else 2
    # a fixed seed per case; hash() of a str changes from process to process
    seed = RngSeed(0xC0FFEE ^ zlib.crc32(_case_id(params).encode()) & 0xFFFF)
    for t in range(10_000):
        g = gen_graph(params, seed.derive(t))
        for c in _components(g):
            violation = _broken_lemma(c, d)
            assert violation is None, (violation, c)
