"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (visible with ``pytest -s`` or
``-rA``); a failed criterion shows up as the test's failure.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
from fractions import Fraction

import pytest

from cuckoo_lab.asymptotics import gamma_d2, gamma_mixed, gamma_partitioned
from cuckoo_lab.cuckoo import new_table
from cuckoo_lab.exact import (
    ModelParams,
    expected_matching_d2,
    expected_matching_mixed_det,
    matching_upper_bound_d,
)
from cuckoo_lab.hashing import choice_maps
from cuckoo_lab.matching import BipartiteGraph, max_matching, mu_via_deficit
from cuckoo_lab.simulate import RngSeed, concentration_experiment, estimate_mu
from cuckoo_lab.trace import run_trace_experiment, synthetic_stream

import oracles


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_exhaustive_oracle_exact():
    pairs = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]
    for n, m in pairs:
        enumerated = float(oracles.enumerate_expected_mu_d2(n, m))
        assert abs(expected_matching_d2(n, m).mu - enumerated) <= 1e-12, (n, m)
    assert oracles.enumerate_expected_mu_d2(2, 2) == Fraction(15, 8)
    assert abs(expected_matching_d2(2, 2).mu - 1.875) <= 1e-12
    _passed(1, "exhaustive oracle, two-choice exact expectation")


def test_criterion_02_asymptotic_values():
    assert abs(gamma_d2(1.0).gamma - 0.8381) <= 5e-5
    for k in range(1, 6):
        assert abs(gamma_d2(k / 10).gamma - 1.0) <= 1e-12
    _passed(2, "limit matching fraction at full and sub-half load")


def test_criterion_03_finite_to_limit():
    finite = expected_matching_d2(10_000, 10_000).mu / 10_000
    assert abs(finite - gamma_d2(1.0).gamma) <= 1e-3
    _passed(3, "finite n=1e4 expectation within 1e-3 of the limit")


def test_criterion_04_upper_bound_d2_identity():
    grid = [
        (10, 10), (25, 40), (40, 25), (77, 77), (100, 160),
        (160, 100), (233, 377), (300, 300), (450, 500), (500, 211),
    ]
    for n, m in grid:
        mu = expected_matching_d2(n, m).mu
        bound = matching_upper_bound_d(n, m, 2).mu
        assert abs(bound - mu) <= 1e-10 * max(abs(mu), 1.0), (n, m)
    _passed(4, "d=2 reduction identity of the d-choice upper bound")


def test_criterion_05_multi_choice_bound_and_simulation():
    bound3 = matching_upper_bound_d(100, 100, 3).mu / 100
    bound4 = matching_upper_bound_d(100, 100, 4).mu / 100
    assert abs(bound3 - 0.9508) <= 5e-4
    assert abs(bound4 - 0.9820) <= 5e-4
    sim3 = estimate_mu(ModelParams.fixed_d(100, 100, 3), 10_000, RngSeed(531)).mean / 100
    sim4 = estimate_mu(ModelParams.fixed_d(100, 100, 4), 10_000, RngSeed(532)).mean / 100
    assert abs(sim3 - 0.9402) <= 2e-3
    assert abs(sim4 - 0.9795) <= 2e-3
    assert bound3 >= sim3
    assert bound4 >= sim4
    _passed(5, "d=3,4 upper bounds and Monte-Carlo means")


def test_criterion_06_partitioned_asymptotics():
    assert abs(gamma_partitioned(1.0, 0.5).gamma - gamma_d2(1.0).gamma) <= 1e-10
    deficit = 1.0 - gamma_partitioned(0.5, 0.45).gamma
    assert abs(deficit - 1.675e-7) <= 0.05 * 1.675e-7
    for alpha in (0.3, 0.6, 1.0, 1.7):
        for beta in (0.1, 0.25, 0.4, 0.45):
            a = gamma_partitioned(alpha, beta).gamma
            b = gamma_partitioned(alpha, 1.0 - beta).gamma
            assert abs(a - b) <= 1e-12, (alpha, beta)
    _passed(6, "two-bank asymptotics incl. branch-equation adjudication")


def test_criterion_07_mixed_choice():
    assert oracles.enumerate_expected_mu_degrees([1, 1], 2) == Fraction(3, 2)
    assert abs(expected_matching_mixed_det(2, 2, 1.0).mu - 1.5) <= 1e-12
    assert abs(gamma_mixed(1.0, 1.0).gamma - (1 - math.exp(-1))) <= 1e-12
    for a in (1.0, 1.25, 1.5, 1.75):
        for alpha in (0.25, 0.5, 1.0):
            assert gamma_mixed(alpha, a).gamma < 1.0, (alpha, a)
    _passed(7, "mixed-degree exact point, closed form, and strict loss")


def _induced_graph(table) -> BipartiteGraph:
    choices = choice_maps(table.seeds, table.m, table.d, table.partition_boundary)[0]
    return BipartiteGraph(
        n=len(table),
        m=table.m,
        choices=tuple(choices(k) for k in table._where),
    )


def test_criterion_08_cuckoo_matching_equivalence():
    rng = random.Random(881)
    for trial in range(200):
        n = rng.randint(1, 200)
        m = rng.randint(1, 200)
        seeder = RngSeed(trial).derive(0)
        table = new_table(m, 2, seeder.draws(1 << 64, 2))
        for _ in range(n):
            table.insert(rng.getrandbits(64))
        assert table.load_stats().placed == max_matching(_induced_graph(table))[0]

    for trial in range(50):
        m = rng.randint(2, 60)
        seeder = RngSeed(10_000 + trial).derive(0)
        table = new_table(m, 2, seeder.draws(1 << 64, 2))
        live = []
        for _ in range(90):
            if live and rng.random() < 0.4:
                table.remove(live.pop(rng.randrange(len(live))))
            else:
                key = rng.getrandbits(64)
                if key in table:
                    continue
                table.insert(key)
                live.append(key)
            assert table.load_stats().placed == max_matching(_induced_graph(table))[0]
    _passed(8, "placed count equals maximum matching, inserts and deletes")


def test_criterion_09_deficit_count_oracle():
    rng = random.Random(909)
    for trial in range(10_000):
        n = rng.randint(0, 200)
        m = rng.randint(1, 200)
        if trial % 2 == 0:
            choices = [(rng.randrange(m), rng.randrange(m)) for _ in range(n)]
        else:
            choices = [
                tuple(rng.randrange(m) for _ in range(rng.randint(1, 2)))
                for _ in range(n)
            ]
        g = BipartiteGraph(n=n, m=m, choices=tuple(choices))
        assert mu_via_deficit(g) == max_matching(g)[0]
    _passed(9, "spare-bin component count equals matching size")


def test_criterion_10_trace_experiment():
    m = 10_000
    for load, check in (
        (1.0, lambda r: abs(r.inserted_mean - 0.8381) <= 5e-3),
        (0.6, lambda r: abs(r.overflow_mean - 0.0062) <= 1e-3),
        (0.4, lambda r: r.overflow_mean < 1e-3),
    ):
        n = round(load * m)
        stream = synthetic_stream(n, seed=round(load * 100))
        report = run_trace_experiment(stream, m, 2, 100, base_seed=round(load * 1000))
        assert check(report), (load, report.overflow_mean, report.inserted_mean)
    _passed(10, "synthetic trace overflow at loads 1.0, 0.6, 0.4")


def test_criterion_11_concentration():
    params = ModelParams.fixed2(1000, 1000)
    for lam in (1.5, 2.0, 3.0):
        empirical, bound = concentration_experiment(params, 2000, lam, RngSeed(round(lam * 10)))
        assert empirical <= bound, (lam, empirical, bound)
    _passed(11, "deviation fractions below the concentration bound")


def test_criterion_11_companion_half_below_mean():
    # The radii of criterion 11 are at least 5 standard deviations of the
    # matching size (sd ~ 8.3 at n = m = 1000), so its fractions read 0 for
    # any mu_exact within a few sd.  At lambda = 0 the one-sided fraction
    # counts the trials below mu_exact: about half of them (0.52 over 6000
    # trials; the size is integral and close to normal), against ~0.16 or
    # ~0.84 for a mu_exact one sd off.  The two-sided Hoeffding radius at
    # confidence 1 - 1e-6 is 0.135 over 400 trials.
    trials = 400
    params = ModelParams.fixed2(1000, 1000)
    empirical, _ = concentration_experiment(params, trials, 0.0, RngSeed(11), one_sided=True)
    radius = math.sqrt(math.log(2 / 1e-6) / (2 * trials))
    assert abs(empirical - 0.5) <= radius, (empirical, radius)


def test_criterion_12_tree_count_oracles():
    for s in range(5):
        count = oracles.count_connected_pairs_d2(s)
        assert round(oracles.tree_count(s, 2)) == count
        assert oracles.tree_count(s, 2) == pytest.approx(count, rel=1e-12)

    for i in range(7):
        for j in range(7):
            if i + j == 0 or i + j > 6:
                continue
            # the closed form the two-bank series evaluates, tied to it bit
            # for bit by test_exact.py::test_partitioned_matches_full_series
            count = oracles.count_connected_partitioned(i, j)
            log_connect = oracles._log_connect_probability_partitioned(i, j)
            if count == 0:
                assert log_connect == float("-inf")
            else:
                closed = math.exp(log_connect) * (i * j) ** (i + j - 1)
                assert round(closed) == count
                assert closed == pytest.approx(count, rel=1e-12)

    # every (s, d >= 3) with (d-1)s+1 <= 7, by direct enumeration
    for d in range(3, 8):
        s = 0
        while (d - 1) * s + 1 <= 7:
            count = oracles.count_connected_general(s, d)
            assert round(oracles.tree_count(s, d)) == count
            s += 1
    # d = 2 reaches s = 6, beyond direct enumeration; the decomposition
    # count provides the oracle there (itself validated against direct
    # enumeration for s <= 4)
    for s in range(5):
        assert oracles.count_connected_d2_by_decomposition(s) == oracles.count_connected_pairs_d2(s)
    for s in range(7):
        count = oracles.count_connected_d2_by_decomposition(s)
        assert round(oracles.tree_count(s, 2)) == count
    _passed(12, "labeled component counts match exhaustive enumeration")
