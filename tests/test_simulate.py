"""Seeded generation, Monte-Carlo statistics, and the concentration check."""

import hashlib
import math
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from cuckoo_lab import simulate
from cuckoo_lab.exact import ModelParams, concentration_tail_bound, evaluate
from cuckoo_lab.simulate import (
    RngSeed,
    SplitMix64,
    concentration_experiment,
    effective_threads,
    estimate_mu,
    fan_out,
    gen_graph,
    mix64,
    probability_threshold,
)

# reference sequence of the 64-bit counter generator for seed 0
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
)


def test_splitmix64_reference_vectors():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(4)) == SPLITMIX64_SEED0


def test_splitmix64_outputs_distinct():
    rng = SplitMix64(42)
    draws = [rng.next_u64() for _ in range(100_000)]
    assert len(set(draws)) == len(draws)


def test_mix64_bijective_on_sample():
    values = {mix64(k) for k in range(10_000)}
    assert len(values) == 10_000


def test_below_range_and_determinism():
    rng = SplitMix64(9)
    draws = [rng.below(7) for _ in range(10_000)]
    assert all(0 <= v < 7 for v in draws)
    rng2 = SplitMix64(9)
    assert draws == [rng2.below(7) for _ in range(10_000)]
    with pytest.raises(ValueError):
        rng.below(0)


def _below_one_by_one(rng, bound):
    """Rejection sampling from next_u64, one output at a time."""
    threshold = (1 << 64) - (1 << 64) % bound
    while True:
        v = rng.next_u64()
        if v < threshold:
            return v % bound


@pytest.mark.parametrize("bound", [1, 7, 2000, (1 << 63) + 1, (1 << 64) - 1])
def test_draws_equal_rejection_one_by_one(bound):
    # bound = 2^63 + 1 rejects about half the raw outputs
    rng, ref = SplitMix64(31), SplitMix64(31)
    assert rng.draws(bound, 5_000) == [_below_one_by_one(ref, bound) for _ in range(5_000)]
    assert rng.state == ref.state
    assert rng.below(bound) == _below_one_by_one(ref, bound) and rng.state == ref.state
    assert rng.draws(bound, 0) == [] and rng.state == ref.state
    with pytest.raises(ValueError):
        rng.draws(0, 1)


def test_probability_threshold_edges():
    assert probability_threshold(0.0) == 0
    assert probability_threshold(1.0) == 1 << 64
    assert probability_threshold(0.5) == 1 << 63
    with pytest.raises(ValueError):
        probability_threshold(1.2)


def test_derived_states_distinct():
    seed = RngSeed(77)
    states = {seed.derive(t).state for t in range(5_000)}
    assert len(states) == 5_000
    other = RngSeed(77, stream=5_000)
    assert other.derive(0).state == seed.derive(5_000).state


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


# sha256 of repr(choices) and the final generator state of one draw per
# variant, pinned from the draw-by-draw generator (one below() call per
# choice): a moved draw changes the digest or the state
_GRAPH_GOLDEN = {
    "d2": ("4ca5d79b0853e49fdef313ae08da460841a0e0b188a162d3c81b0af043da0dfe", 0xFD796147859BA21C),
    "mixed-det": ("cbe42b90c3dc6cb4fed84613a3321397a78f494b4936beeff49bab38e81b3623", 0xF91FA2FAE8214918),
    "mixed-rand": ("a6c853b9b3ca509c9c40bfed1dcdcfee4c188bef19ea24afc987cef2c4725986", 0x43B516CFB08EC591),
    "partitioned": ("5513695c3f123e159a1fade3a8329fe6cfc7c487a8abab22ba71ad64d7601114", 0xFD796147859BA21C),
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


def test_gen_graph_rejects_empty_bank():
    with pytest.raises(ValueError):
        gen_graph(ModelParams.partitioned(5, 3, 0.0), RngSeed(6).derive(0))


# ---------------------------------------------------------------------------
# Monte-Carlo estimates


def test_estimate_mu_reproducible():
    params = ModelParams.fixed2(200, 200)
    a = estimate_mu(params, 50, RngSeed(123))
    b = estimate_mu(params, 50, RngSeed(123))
    assert a == b
    c = estimate_mu(params, 50, 123)  # bare int seed accepted
    assert a == c


def test_estimate_mu_golden():
    # pinned from the Hopcroft-Karp matching sizes and the draw-by-draw
    # generator; a moved draw or matching size changes the repr
    cases = [
        (ModelParams.fixed_d(2000, 2000, 3), 4,
         "SimStats(trials=4, mean=1885.0, std_dev=5.887840577551898, min=1879.0, max=1893.0, "
         "std_error=2.943920288775949)"),
        (ModelParams.fixed_d(2000, 2000, 4), 4,
         "SimStats(trials=4, mean=1963.5, std_dev=3.872983346207417, min=1958.0, max=1967.0, "
         "std_error=1.9364916731037085)"),
        (ModelParams.fixed2(2000, 2000), 20,
         "SimStats(trials=20, mean=1671.95, std_dev=13.578136450694705, min=1647.0, max=1692.0, "
         "std_error=3.036163611152108)"),
    ]
    for params, trials, expected in cases:
        assert repr(estimate_mu(params, trials, 7)) == expected


def test_estimate_mu_stats_shape():
    stats = estimate_mu(ModelParams.fixed2(100, 100), 64, RngSeed(9))
    assert stats.trials == 64
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

    def submit(self, fn, *args):
        raise BrokenProcessPool("worker died")


def test_fan_out_falls_back_when_pool_breaks(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", _BrokenPool)
    params = ModelParams.fixed2(30, 30)
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    sequential = estimate_mu(params, 12, RngSeed(3))
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "3")
    assert estimate_mu(params, 12, RngSeed(3)) == sequential
    assert fan_out(lambda lo, hi: (lo, hi), 12, ()) == [(0, 12)]


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
