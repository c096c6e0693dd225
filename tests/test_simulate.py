"""Seeded generation, Monte-Carlo statistics, and the concentration check."""

import collections
import concurrent.futures
import hashlib
import math
import operator
import os
from concurrent.futures.process import BrokenProcessPool

import pytest
from scipy.stats import chi2

from cuckoo_lab import matching
from cuckoo_lab.exact import ModelParams, concentration_tail_bound, evaluate
from cuckoo_lab.hashing import _LANES
from cuckoo_lab.matching import BipartiteGraph
from cuckoo_lab.simulate import (
    RngSeed,
    SplitMix64,
    _matching_size,
    concentration_experiment,
    effective_threads,
    estimate_mu,
    fan_out,
    gen_graph,
    mix64,
)

import oracles

# reference sequence of the 64-bit counter generator for seed 0
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_splitmix64_reference_vectors():
    # below 2^64 nothing is rejected: the draws are the raw words
    assert tuple(SplitMix64(0).draws(1 << 64, 4)) == SPLITMIX64_SEED0


def test_splitmix64_outputs_distinct():
    draws = SplitMix64(42).draws(1 << 64, 100_000)
    assert len(set(draws)) == len(draws)


def test_mix64_bijective_on_sample():
    values = {mix64(k) for k in range(10_000)}
    assert len(values) == 10_000


def test_below_range_and_determinism():
    rng = SplitMix64(9)
    draws = rng.draws(7, 10_000)
    assert all(0 <= v < 7 for v in draws)
    assert draws == SplitMix64(9).draws(7, 10_000)
    with pytest.raises(ValueError):
        rng.draws(0, 1)
    # no 64-bit word reduces onto a wider range without bias
    with pytest.raises(ValueError):
        rng.draws(2**64 + 1, 0)


@pytest.mark.parametrize("bound", [1, 7, 2000, (1 << 63) + 1, (1 << 64) - 1])
def test_draws_equal_rejection_one_by_one(bound):
    # bound = 2^63 + 1 rejects about half the raw outputs
    rng, ref = SplitMix64(31), oracles.ReferenceSplitMix64(31)
    assert rng.draws(bound, 5_000) == [ref.below(bound) for _ in range(5_000)]
    assert rng.state == ref.state
    assert rng.draws(bound, 1) == [ref.below(bound)] and rng.state == ref.state
    assert rng.draws(bound, 0) == [] and rng.state == ref.state
    with pytest.raises(ValueError):
        rng.draws(0, 1)


@pytest.mark.parametrize("bound", [7, (1 << 63) + 1, 1 << 64])
@pytest.mark.parametrize("count", [_LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1])
def test_draws_across_block_edges_equal_reference(bound, count):
    # at bound 2^63 + 1 about half the words are rejected, so the values
    # of one block run on into the next
    rng, ref = SplitMix64(0xC0FFEE), oracles.ReferenceSplitMix64(0xC0FFEE)
    assert rng.draws(bound, count) == [ref.below(bound) for _ in range(count)]
    assert rng.state == ref.state
    assert rng.draws(bound, 1) == [ref.below(bound)] and rng.state == ref.state


@pytest.mark.parametrize("p, choices", [(0.0, 1), (1.0, 2)])
def test_mixed_rand_coin_at_p_0_and_1(p, choices):
    # the coin compares a raw 64-bit word with p * 2^64: no word is below
    # 0, and every word is below 2^64
    for trial in range(20):
        graph = gen_graph(ModelParams.mixed_rand(50, 50, p), RngSeed(5).derive(trial))
        assert {len(row) for row in graph.choices} == {choices}


def test_derived_states_distinct():
    seed = RngSeed(77)
    states = {seed.derive(t).state for t in range(5_000)}
    assert len(states) == 5_000


# ---------------------------------------------------------------------------
# graph generation


def test_gen_graph_d2_degrees():
    g = gen_graph(ModelParams.fixed2(1000, 1000), RngSeed(1).derive(0))
    assert all(len(row) == 2 for row in g.choices)


def test_gen_graph_mixed_det_split():
    params = ModelParams.mixed_det(10, 8, 1.3)
    g = gen_graph(params, RngSeed(2).derive(0))
    degrees = [len(row) for row in g.choices]
    assert degrees == [1] * 7 + [2] * 3


def test_gen_graph_partitioned_banks():
    params = ModelParams.partitioned(500, 100, 0.5)
    g = gen_graph(params, RngSeed(3).derive(0))
    for up, down in g.choices:
        assert 0 <= up < 50 <= down < 100


def test_gen_graph_fixed_d_degrees():
    g = gen_graph(ModelParams.fixed_d(50, 60, 4), RngSeed(4).derive(0))
    assert all(len(row) == 4 for row in g.choices)


def test_gen_graph_mixed_rand_binomial_count():
    params = ModelParams.mixed_rand(10_000, 100, 0.5)
    g = gen_graph(params, RngSeed(5).derive(0))
    two_choice = sum(1 for row in g.choices if len(row) == 2)
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(two_choice - 5_000) <= 4 * sigma


# each chi-square check below fails a correct generator with probability
# 1e-3 over the choice of seed
_FALSE_ALARM = 1e-3


def _fits(counts, expected) -> bool:
    """Whether observed cell counts pass a chi-square goodness-of-fit test
    against the expected counts at the false-alarm level."""
    statistic = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    return statistic < chi2.ppf(1 - _FALSE_ALARM, len(counts) - 1)


def _pairs_uniform(pairs, rows, cols) -> bool:
    """Whether (row, col) pairs fit the uniform joint table: uniform in
    each coordinate, and the two independent."""
    table = collections.Counter(pairs)
    assert set(table) <= {(r, c) for r in rows for c in cols}
    cells = [table[r, c] for r in rows for c in cols]
    return _fits(cells, [len(pairs) / len(cells)] * len(cells))


def _graphs(params, count):
    return [gen_graph(params, RngSeed(99).derive(t)).choices for t in range(count)]


def test_gen_graph_partitioned_joint_table_chi_square():
    # banks of 3 and 6 bins: 18 cells of about 1000 keys each
    rows = [row for g in _graphs(ModelParams.partitioned(90, 9, 1 / 3), 200) for row in g]
    assert _pairs_uniform(rows, range(3), range(3, 9))


def test_gen_graph_mixed_rand_chi_square():
    # m = 5, p = 0.3: about 12000 two-choice keys over 25 cells
    n, m, p, graphs = 200, 5, 0.3, 200
    rows = [row for g in _graphs(ModelParams.mixed_rand(n, m, p), graphs) for row in g]
    pairs = [row for row in rows if len(row) == 2]
    assert _pairs_uniform(pairs, range(m), range(m))
    ones = collections.Counter(row[0] for row in rows if len(row) == 1)
    assert _fits([ones[b] for b in range(m)], [(len(rows) - len(pairs)) / m] * m)
    # the coin: two-choice keys against one-choice keys
    assert _fits([len(pairs), len(rows) - len(pairs)], [p * len(rows), (1 - p) * len(rows)])


def test_chi_square_checks_catch_a_choice_derived_from_another():
    # both choices of a pair from one word, each uniform on its own: the
    # down choice w mod 6 fixes the up choice w mod 3, and w mod 5 taken
    # twice fills only the diagonal
    words = SplitMix64(5).draws(1 << 64, 18_000)
    assert not _pairs_uniform([(w % 3, 3 + w % 6) for w in words], range(3), range(3, 9))
    assert not _pairs_uniform([(w % 5, w % 5) for w in words], range(5), range(5))


# sha256 of repr(choices) and the final generator state of one draw per
# variant, pinned from the draw-by-draw generator (one below() call per
# choice): key by key for the d-choice models, every coin and then every
# key's choices for mixed-rand, every up-bank and then every down-bank
# choice for partitioned; a moved draw changes the digest or the state
_GRAPH_GOLDEN = {
    "d2": ("4ca5d79b0853e49fdef313ae08da460841a0e0b188a162d3c81b0af043da0dfe", 0xFD796147859BA21C),
    "mixed-det": ("cbe42b90c3dc6cb4fed84613a3321397a78f494b4936beeff49bab38e81b3623", 0xF91FA2FAE8214918),
    "mixed-rand": ("a2a1f8b3e537710da51de211ba43b64e3e47f3d6d46f883b39a23325bfbba70e", 0x639BA5DAA3CB7F0B),
    "partitioned": ("3f40aca4396df68ec64cdbc8ca5940bdd902d1e86f99795cf0ae6ec156a1a76f", 0xFD796147859BA21C),
    "fixed-d": ("9cabf42d3a37aa6cc5a5081d3a67a180a66bf53cfe2432eb887d1c4752b37b40", 0x62CDDE0C0905424),
}
_GRAPH_PARAMS = {
    "d2": ModelParams.fixed2(1000, 1000),
    "mixed-det": ModelParams.mixed_det(1000, 1000, 1.5),
    "mixed-rand": ModelParams.mixed_rand(1000, 1000, 0.5),
    "partitioned": ModelParams.partitioned(1000, 1000, 0.3),
    "fixed-d": ModelParams.fixed_d(1000, 1000, 3),
}


@pytest.mark.parametrize("variant", sorted(_GRAPH_GOLDEN))
def test_gen_graph_golden(variant):
    rng = RngSeed(2024).derive(3)
    g = gen_graph(_GRAPH_PARAMS[variant], rng)
    digest = hashlib.sha256(repr(g.choices).encode()).hexdigest()
    assert (digest, rng.state) == _GRAPH_GOLDEN[variant]


# bin counts at which about half the raw words are rejected, each with the
# reference generator's arguments; the partitioned model's up bank has 2^63
# bins (nothing rejected) and its down bank 2^63 + 2 (about half rejected)
_REJECTING = {
    "d2": (ModelParams.fixed2(1500, (1 << 63) + 1), {}),
    "mixed-det": (ModelParams.mixed_det(1500, (1 << 63) + 1, 1.5), {"one_choice": 750}),
    "mixed-rand": (ModelParams.mixed_rand(1500, (1 << 63) + 1, 0.5), {"p": 0.5}),
    "partitioned": (ModelParams.partitioned(1500, (1 << 64) + 2, 0.5), {"up_bank": 1 << 63}),
    "fixed-d": (ModelParams.fixed_d(1000, (1 << 63) + 1, 3), {"d": 3}),
}


@pytest.mark.parametrize("variant", sorted(_REJECTING))
def test_gen_graph_rejecting_half_the_words_equals_draw_by_draw(variant):
    params, kwargs = _REJECTING[variant]
    rng = RngSeed(2024).derive(5)
    state = rng.state
    g = gen_graph(params, rng)
    expected = oracles.reference_graph_choices(variant, params.n, params.m, state, **kwargs)
    assert (g.choices, rng.state) == expected
    # the rejection path ran: far more words were read than choices made
    words = (rng.state - state) * pow(oracles._SPLITMIX_GAMMA, -1, 1 << 64) % (1 << 64)
    assert words > 1.4 * sum(map(len, g.choices))


@pytest.mark.parametrize("m", [400, (1 << 63) + 1])
def test_gen_graph_two_choice_models_draw_alike(m):
    # d2, fixed-d at d = 2 and mixed-det at a = 2 are one model, drawn
    # alike; at m = 2^63 + 1 about half the words are rejected
    drawn = set()
    for params in (ModelParams.fixed2(400, m), ModelParams.fixed_d(400, m, 2), ModelParams.mixed_det(400, m, 2.0)):
        rng = RngSeed(2024).derive(7)
        drawn.add((gen_graph(params, rng).choices, rng.state))
    assert len(drawn) == 1


# ---------------------------------------------------------------------------
# Monte-Carlo estimates


def test_estimate_mu_reproducible():
    params = ModelParams.fixed2(200, 200)
    a = estimate_mu(params, 50, RngSeed(123))
    b = estimate_mu(params, 50, RngSeed(123))
    assert a == b


def test_estimate_mu_golden():
    # pinned from the Hopcroft-Karp matching sizes and the draw-by-draw
    # generator; a moved draw or matching size changes the repr
    cases = [
        (ModelParams.fixed_d(2000, 2000, 3), 4,
         "SimStats(mean=1885.0, std_dev=5.887840577551898, min=1879.0, max=1893.0, "
         "std_error=2.943920288775949)"),
        (ModelParams.fixed_d(2000, 2000, 4), 4,
         "SimStats(mean=1963.5, std_dev=3.872983346207417, min=1958.0, max=1967.0, "
         "std_error=1.9364916731037085)"),
        (ModelParams.fixed2(2000, 2000), 20,
         "SimStats(mean=1671.95, std_dev=13.578136450694705, min=1647.0, max=1692.0, "
         "std_error=3.036163611152108)"),
    ]
    for params, trials, expected in cases:
        assert repr(estimate_mu(params, trials, RngSeed(7))) == expected


# repr(estimate_mu(params, 20, RngSeed(7))) and the sha256 of repr of its
# per-trial size list, for every d <= 2 model other than d2, pinned from
# the trial path that built a BipartiteGraph and ran mu_via_deficit on it;
# the digest catches two trials that trade sizes, which the moments miss
_D2_MODELS_GOLDEN = {
    ("mixed-det", 400): (
        "SimStats(mean=297.2, std_dev=6.469360986909555, min=286.0, max=313.0, std_error=1.446593093771489)",
        "3b284a93bf1adedeee5164fab22dd0ef985489e34a4d733bb5be7dfadf48ba6b"),
    ("mixed-rand 0.5", 400): (
        "SimStats(mean=296.45, std_dev=6.099827435005199, min=288.0, max=314.0, std_error=1.3639628795689804)",
        "c153ad7bd0e039a595a157af287b5f6495dc774fdb05179d7b9ef21f7cfa62d5"),
    ("mixed-rand 0", 400): (
        "SimStats(mean=252.1, std_dev=6.180614856144977, min=238.0, max=262.0, std_error=1.3820274961085253)",
        "2d5402ee23eedd0709323dde9030df49344862de34e24db7510baf9051617068"),
    ("mixed-rand 1", 400): (
        "SimStats(mean=333.65, std_dev=5.112162998801563, min=324.0, max=342.0, std_error=1.143114397737947)",
        "73369ce80390302aad954a19727d9a21e66cd1fc23d6cf63b4b06b9a548f8e3e"),
    ("partitioned", 400): (
        "SimStats(mean=325.2, std_dev=4.583724066279456, min=315.0, max=333.0, std_error=1.0249518602302614)",
        "a34676f1816cf394dd79badad3828bc10fe7bcb15b6e0880aa0a7569f0249f4f"),
    ("fixed-d 2", 400): (
        "SimStats(mean=335.3, std_dev=4.0535884037934125, min=326.0, max=341.0, std_error=0.9064099223686937)",
        "6e0cebd99c58758f87beb1b79317fa8eb4597fb1d32e2dcefb973fa974a87ba3"),
    ("mixed-det", 200): (
        "SimStats(mean=179.45, std_dev=3.0517466957034363, min=173.0, max=183.0, std_error=0.6823913061703248)",
        "720facab65b0675472e1fb83f6a6db33e024e5afaadcde7e5f7797e0798644f8"),
    ("mixed-rand 0.5", 200): (
        "SimStats(mean=181.8, std_dev=4.137123333148796, min=175.0, max=190.0, std_error=0.9250889004221218)",
        "f9b6117dc104042a45980097d646dd8f57ccd67343e94121fa8a92c77c87e5a0"),
    ("mixed-rand 0", 200): (
        "SimStats(mean=158.8, std_dev=5.454114815536306, min=151.0, max=169.0, std_error=1.2195771484627904)",
        "0322465425a8e14e7e7064c8df0071d12da24676e8ab0f518ba9a1b40ce6b814"),
    ("mixed-rand 1", 200): (
        "SimStats(mean=199.7, std_dev=0.9233805168766387, min=196.0, max=200.0, std_error=0.2064741604835056)",
        "681ae0aed98c0cdcdbcdc6a2ca25dee567a056ba0fa54e0407281c8fa3f53af6"),
    ("partitioned", 200): (
        "SimStats(mean=199.6, std_dev=0.9403246919632545, min=197.0, max=200.0, std_error=0.21026299321513872)",
        "07b03b3686614abfadf3622b05af7036f1dd58f783e39bfe71729a85a62c2076"),
    ("fixed-d 2", 200): (
        "SimStats(mean=199.75, std_dev=0.5501196042201808, min=198.0, max=200.0, std_error=0.12301048307916045)",
        "bb3a969e99fc821f63ccd6a3f14e444464b7e04f5f098ba24c61180448178e4f"),
}


def _d2_model(name, n, m=400):
    variant, _, arg = name.partition(" ")
    return {
        "mixed-det": lambda: ModelParams.mixed_det(n, m, 1.5),
        "mixed-rand": lambda: ModelParams.mixed_rand(n, m, float(arg or 0)),
        "partitioned": lambda: ModelParams.partitioned(n, m, 0.3),
        "fixed-d": lambda: ModelParams.fixed_d(n, m, 2),
    }[variant]()


@pytest.mark.parametrize("name, n", sorted(_D2_MODELS_GOLDEN))
def test_estimate_mu_golden_d2_models(name, n):
    params = _d2_model(name, n)
    sizes = fan_out(_matching_size, 20, (params, RngSeed(7)))
    got = (repr(estimate_mu(params, 20, RngSeed(7))), hashlib.sha256(repr(sizes).encode()).hexdigest())
    assert got == _D2_MODELS_GOLDEN[(name, n)]


def test_trials_with_two_choices_build_no_graph(monkeypatch):
    # every trial runs in this process, which counts the graphs built and
    # the augmenting searches run
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    counts = collections.Counter()
    check, augment = BipartiteGraph.__post_init__, matching.augment

    def counting_check(graph):
        counts["graphs"] += 1
        check(graph)

    def counting_augment(*args):
        counts["searches"] += 1
        return augment(*args)

    monkeypatch.setattr(BipartiteGraph, "__post_init__", counting_check)
    monkeypatch.setattr(matching, "augment", counting_augment)
    for name in sorted({name for name, _ in _D2_MODELS_GOLDEN}):
        estimate_mu(_d2_model(name, 400), 5, RngSeed(3))
    estimate_mu(ModelParams.fixed2(400, 400), 5, RngSeed(3))
    concentration_experiment(ModelParams.fixed2(100, 100), 100, 2.0, RngSeed(3))
    concentration_experiment(ModelParams.mixed_rand(100, 100, 0.5), 100, 2.0, RngSeed(3))
    assert counts == {}
    # d = 3 still builds one graph per trial and searches in it
    estimate_mu(ModelParams.fixed_d(400, 400, 3), 5, RngSeed(3))
    assert counts["graphs"] == 5 and counts["searches"] > 0


def test_estimate_mu_stats_shape():
    stats = estimate_mu(ModelParams.fixed2(100, 100), 64, RngSeed(9))
    assert stats.min <= stats.mean <= stats.max
    assert stats.std_error == pytest.approx(stats.std_dev / 8.0, rel=1e-12)


def test_estimate_mu_empty_model():
    stats = estimate_mu(ModelParams.fixed2(0, 5), 10, RngSeed(1))
    assert stats.mean == 0.0
    assert stats.std_dev == 0.0


def test_estimate_mu_single_trial():
    stats = estimate_mu(ModelParams.fixed2(10, 10), 1, RngSeed(3))
    assert stats.std_dev == 0.0
    assert stats.min == stats.max == stats.mean


def test_estimate_mu_validation():
    with pytest.raises(ValueError):
        estimate_mu(ModelParams.fixed2(5, 5), 0, RngSeed(1))


AGREEMENT_GRID = [
    ModelParams.fixed2(150, 150),
    ModelParams.fixed2(240, 200),
    ModelParams.fixed2(120, 200),
    ModelParams.mixed_det(150, 150, 1.4),
    ModelParams.mixed_det(200, 180, 1.75),
    ModelParams.mixed_rand(150, 150, 0.5),
    ModelParams.mixed_rand(180, 150, 0.25),
    ModelParams.partitioned(150, 150, 0.5),
    ModelParams.partitioned(200, 160, 0.25),
    ModelParams.partitioned(140, 200, 0.4),
    ModelParams.fixed_d(100, 100, 2),
]


@pytest.mark.parametrize("params", AGREEMENT_GRID, ids=lambda p: f"{p.variant}-{p.n}x{p.m}")
def test_simulated_mean_matches_exact(params):
    exact = evaluate(params).mu
    stats = estimate_mu(params, 600, RngSeed(0xACE))
    assert stats.std_error > 0
    assert abs(stats.mean - exact) <= 4 * stats.std_error


def test_simulated_mean_matches_exact_at_thousand():
    params = ModelParams.fixed2(1000, 1000)
    stats = estimate_mu(params, 100, RngSeed(4096))
    exact = evaluate(params).mu
    assert abs(stats.mean - exact) <= 3 * stats.std_error


def test_parallel_equals_sequential(monkeypatch):
    params = ModelParams.fixed2(80, 80)
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    seq = estimate_mu(params, 40, RngSeed(5))
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "2")
    assert estimate_mu(params, 40, RngSeed(5)) == seq


def test_effective_threads_env_cap(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    assert effective_threads() == 1
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "2")
    assert effective_threads() == 2
    for bad in ("junk", "0", "-3", "2x", " 2", ""):
        monkeypatch.setenv("CUCKOO_LAB_THREADS", bad)
        with pytest.raises(ValueError, match="CUCKOO_LAB_THREADS"):
            effective_threads()


def test_effective_threads_cpu_cap(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "64")
    assert effective_threads() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert effective_threads() == 1


class _BrokenPool:
    """Stands in for ProcessPoolExecutor: the pool breaks on first use."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        raise BrokenProcessPool("worker died")


def test_fan_out_falls_back_when_pool_breaks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    # fan_out imports the pool class when it needs one, so it finds this stand-in
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BrokenPool)
    params = ModelParams.fixed2(30, 30)
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    sequential = estimate_mu(params, 12, RngSeed(3))
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "3")
    assert estimate_mu(params, 12, RngSeed(3)) == sequential
    assert fan_out(lambda i: i * i, 12, ()) == [i * i for i in range(12)]


def test_fan_out_returns_each_index_in_order_through_a_pool(monkeypatch):
    # 7 indices over 3 workers: chunks of 3, 3 and 1, run in worker processes
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "3")
    assert fan_out(operator.mul, 7, (3,)) == [3 * i for i in range(7)]


def _fails_in_a_worker(parent_pid, i):
    if os.getpid() != parent_pid:
        raise ValueError(f"index {i} failed in a worker")
    return i


def test_fan_out_raises_what_a_worker_raises(monkeypatch):
    # a worker's error is the caller's error, not a broken pool: it is not
    # run again sequentially, where the second function would succeed
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "2")
    with pytest.raises(ValueError, match="math domain error"):
        fan_out(math.log, 3, ())
    with pytest.raises(ValueError, match="failed in a worker"):
        fan_out(_fails_in_a_worker, 3, (os.getpid(),))


# ---------------------------------------------------------------------------
# concentration


def test_concentration_lambda_zero_is_vacuous():
    frac, bound = concentration_experiment(ModelParams.fixed2(50, 50), 100, 0.0, RngSeed(8))
    assert bound == 1.0
    assert frac <= bound


def test_concentration_small_run_respects_bound():
    frac, bound = concentration_experiment(ModelParams.fixed2(400, 400), 300, 2.0, RngSeed(21))
    assert bound == concentration_tail_bound(2.0)
    assert frac <= bound


def test_concentration_requires_exact_model_and_trials():
    with pytest.raises(ValueError):
        concentration_experiment(ModelParams.fixed2(50, 50), 99, 1.0, RngSeed(1))
    with pytest.raises(ValueError):
        concentration_experiment(ModelParams.fixed_d(50, 50, 3), 100, 1.0, RngSeed(1))
