"""Seeded generation, Monte-Carlo statistics, and the concentration check."""

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


def test_parallel_equals_sequential():
    params = ModelParams.fixed2(80, 80)
    seq = estimate_mu(params, 40, RngSeed(5), threads=1)
    par = estimate_mu(params, 40, RngSeed(5), threads=2)
    assert seq == par


def test_effective_threads_env_cap(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    assert effective_threads(None) == 1
    assert effective_threads(4) == 4
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "2")
    assert effective_threads(None) == 2
    assert effective_threads(8) == 2
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "junk")
    assert effective_threads(3) == 3


def test_effective_threads_cpu_cap(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "64")
    assert effective_threads() == 2
    assert effective_threads(8) == 2
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
    assert estimate_mu(params, 12, RngSeed(3), threads=3) == estimate_mu(params, 12, RngSeed(3), threads=1)
    assert fan_out(lambda lo, hi: (lo, hi), 12, (), threads=3) == [(0, 12)]


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
