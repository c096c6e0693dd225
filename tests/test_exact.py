"""Exact finite-size expectations against enumeration oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cuckoo_lab.exact import (
    ModelParams,
    _sum_from_peak,
    concentration_tail_bound,
    evaluate,
    expected_matching_d2,
    expected_matching_mixed_det,
    expected_matching_mixed_rand,
    expected_matching_partitioned,
    matching_upper_bound_d,
    stash_size_for_epsilon,
)

import oracles


# ---------------------------------------------------------------------------
# labeled component counts

# frozen from direct enumeration over all distinct-pair assignments
TREE_COUNTS_D2 = {0: 1, 1: 1, 2: 6, 3: 96, 4: 3000}

# frozen from enumeration over all (up, down) assignments
TREE_COUNTS_PARTITIONED = {
    (1, 0): 1,
    (0, 1): 1,
    (1, 1): 1,
    (2, 1): 2,
    (1, 2): 2,
    (1, 3): 6,
    (3, 1): 6,
    (2, 2): 24,
    (2, 3): 288,
    (3, 2): 288,
    (3, 3): 9720,
}

# frozen from enumeration over all d-subset assignments
HUSIMI_COUNTS = {(1, 3): 1, (2, 3): 30, (3, 3): 4410, (1, 4): 1, (2, 4): 140, (0, 3): 1}


def test_tree_count_d2_frozen_values():
    for s, count in TREE_COUNTS_D2.items():
        assert oracles.tree_count(s, 2) == pytest.approx(count, rel=1e-12)


def test_tree_count_d2_matches_enumeration():
    for s in range(5):
        assert oracles.count_connected_pairs_d2(s) == TREE_COUNTS_D2[s]


def _partitioned_count(i, j):
    # the oracle's closed-form connection probability times the (i j)^(i+j-1)
    # choice vectors it is taken over
    return math.exp(oracles._log_connect_probability_partitioned(i, j)) * (i * j) ** (i + j - 1)


def test_tree_count_partitioned_frozen_values():
    for (i, j), count in TREE_COUNTS_PARTITIONED.items():
        assert _partitioned_count(i, j) == pytest.approx(count, rel=1e-12)


def test_tree_count_partitioned_matches_enumeration():
    for (i, j), count in TREE_COUNTS_PARTITIONED.items():
        assert oracles.count_connected_partitioned(i, j) == count


def test_tree_count_partitioned_impossible_shapes_count_zero():
    assert oracles._log_connect_probability_partitioned(0, 2) == float("-inf")
    assert oracles._log_connect_probability_partitioned(3, 0) == float("-inf")
    assert oracles.count_connected_partitioned(0, 2) == 0


def test_husimi_count_frozen_values():
    for (s, d), count in HUSIMI_COUNTS.items():
        assert oracles.tree_count(s, d) == pytest.approx(count, rel=1e-12)


def test_husimi_count_matches_enumeration():
    for (s, d), count in HUSIMI_COUNTS.items():
        assert oracles.count_connected_general(s, d) == count


def test_connect_probability_examples():
    assert math.exp(oracles.log_connect(1, 2)) == pytest.approx(0.5, abs=1e-15)
    assert oracles.log_connect(0, 2) == 0.0
    assert oracles.log_connect(0, 5) == 0.0
    assert math.exp(oracles.log_connect(1, 3)) == pytest.approx(2 / 9, rel=1e-15)  # 3 distinct of 3 bins
    assert math.exp(oracles._log_connect_probability_partitioned(1, 0)) == 1.0
    assert math.exp(oracles._log_connect_probability_partitioned(0, 2)) == 0.0


def test_connect_probability_d2_matches_ordered_enumeration():
    # counts all (s+1)^(2s) ordered choice assignments, repeats included
    for s in range(5):
        connected, total = oracles.count_connected_ordered_d2(s)
        assert math.exp(oracles.log_connect(s, 2)) == pytest.approx(connected / total, rel=1e-12)


def test_connect_probability_partitioned_matches_enumeration():
    for i in range(4):
        for j in range(4):
            if i + j == 0 or i + j > 5:
                continue
            s = i + j - 1
            total = (i * j) ** s if s > 0 else 1
            expected = oracles.count_connected_partitioned(i, j) / total if total else 0.0
            got = math.exp(oracles._log_connect_probability_partitioned(i, j))
            assert got == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# two-choice expectation

# frozen from exact rational enumeration over all m^(2n) choice vectors
ENUMERATED_MU_D2 = {
    (1, 1): Fraction(1),
    (1, 2): Fraction(1),
    (2, 2): Fraction(15, 8),
    (2, 3): Fraction(53, 27),
    (3, 2): Fraction(63, 32),
    (3, 3): Fraction(659, 243),
    (2, 4): Fraction(127, 64),
}


def test_expected_matching_d2_two_by_two():
    assert expected_matching_d2(2, 2).mu == pytest.approx(1.875, abs=1e-12)


def test_expected_matching_d2_no_elements():
    res = expected_matching_d2(0, 5)
    assert res.mu == pytest.approx(0.0, abs=1e-12)
    assert res.stash_expected == pytest.approx(0.0, abs=1e-12)


def test_expected_matching_d2_against_enumeration():
    for (n, m), frozen in ENUMERATED_MU_D2.items():
        assert oracles.enumerate_expected_mu_d2(n, m) == frozen
        assert expected_matching_d2(n, m).mu == pytest.approx(float(frozen), abs=1e-12)


def test_expected_matching_d2_enumeration_mid_sizes():
    # a few larger full-enumeration points beyond the frozen table
    for n, m in [(4, 4), (5, 3), (3, 5), (6, 2)]:
        enumerated = float(oracles.enumerate_expected_mu_d2(n, m))
        assert expected_matching_d2(n, m).mu == pytest.approx(enumerated, abs=1e-12)


def test_expected_matching_d2_result_shape():
    res = expected_matching_d2(7, 5)
    assert res.stash_expected == 7 - res.mu
    assert all(t >= 0.0 for t in res.terms)
    assert 0.0 <= res.mu <= 5.0


def test_expected_matching_d2_single_bin():
    # all elements collide into the one bin; exactly one is placed
    assert expected_matching_d2(4, 1).mu == pytest.approx(1.0, abs=1e-12)


def test_truncation_fires_and_is_harmless():
    cut = expected_matching_d2(3000, 3000)
    assert cut.truncated_at is not None
    assert cut.truncated_at < 3000
    assert cut.mu == pytest.approx(float(3000 - oracles.deficit_stash_decimal(3000, 3000)), abs=1e-9)


@given(st.integers(0, 24), st.integers(1, 24))
def test_expected_matching_d2_invariants(n, m):
    res = expected_matching_d2(n, m)
    assert 0.0 <= res.mu <= min(n, m) + 1e-12
    assert res.stash_expected == n - res.mu
    assert all(t >= 0.0 for t in res.terms)


# ---------------------------------------------------------------------------
# mixed-degree expectations


def test_mixed_det_a2_reduces_to_d2_exactly():
    for n, m in [(2, 2), (5, 7), (40, 31)]:
        assert expected_matching_mixed_det(n, m, 2.0).mu == expected_matching_d2(n, m).mu


def test_mixed_det_a1_closed_form():
    # single choice each: expected number of occupied bins
    for n, m in [(2, 2), (3, 3), (10, 6)]:
        expected = m - m * (1 - 1 / m) ** n
        assert expected_matching_mixed_det(n, m, 1.0).mu == pytest.approx(expected, rel=1e-12)


def test_mixed_det_single_choice_point():
    assert expected_matching_mixed_det(2, 2, 1.0).mu == pytest.approx(1.5, abs=1e-12)
    assert oracles.enumerate_expected_mu_degrees([1, 1], 2) == Fraction(3, 2)


def test_mixed_det_against_enumeration():
    # n=4, m=4, a=1.5: two one-choice and two two-choice vertices, averaged
    # over all C(4,2) degree assignments (frozen: 3247/1024)
    frozen = Fraction(3247, 1024)
    assert oracles.enumerate_expected_mu_mixed_det(4, 4, 2) == frozen
    assert expected_matching_mixed_det(4, 4, 1.5).mu == pytest.approx(float(frozen), abs=1e-12)


def test_mixed_det_rejects_non_integral_an():
    with pytest.raises(ValueError):
        expected_matching_mixed_det(3, 4, 1.5)


def test_mixed_det_monotone_in_a():
    n, m = 12, 10
    values = [expected_matching_mixed_det(n, m, 1 + k / n).mu for k in range(n + 1)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_mixed_rand_reductions():
    for n, m in [(2, 2), (6, 5), (17, 23)]:
        d2 = expected_matching_d2(n, m).mu
        a1 = expected_matching_mixed_det(n, m, 1.0).mu
        assert expected_matching_mixed_rand(n, m, 1.0).mu == pytest.approx(d2, rel=1e-10)
        assert expected_matching_mixed_rand(n, m, 0.0).mu == pytest.approx(a1, rel=1e-10)


def test_mixed_rand_three_term_mixture():
    # 0.25 * mu(a=1) + 0.5 * mu(a=1.5) + 0.25 * mu(a=2) at n = m = 2
    mix = (
        0.25 * expected_matching_mixed_det(2, 2, 1.0).mu
        + 0.5 * expected_matching_mixed_det(2, 2, 1.5).mu
        + 0.25 * expected_matching_mixed_det(2, 2, 2.0).mu
    )
    res = expected_matching_mixed_rand(2, 2, 0.5)
    assert res.mu == pytest.approx(mix, rel=1e-12)
    # and against full enumeration over degree patterns and choices
    frozen = Fraction(55, 32)
    assert oracles.enumerate_expected_mu_mixed_rand(2, 2, Fraction(1, 2)) == frozen
    assert res.mu == pytest.approx(float(frozen), abs=1e-12)
    # larger points: the fixed-split expectation averaged over every
    # two-choice count k ~ Binomial(n, p)
    for n, m, p in [(3, 2, 0.5), (7, 11, 0.3), (12, 9, 0.75), (25, 25, 0.5), (40, 80, 0.1), (60, 45, 0.9)]:
        mixture = oracles.binomial_mixture(
            n, Fraction(p), lambda k: expected_matching_mixed_det(n, m, 1 + k / n).mu
        )
        assert expected_matching_mixed_rand(n, m, p).mu == pytest.approx(mixture, rel=1e-12), (n, m, p)


# float.hex() of the results at m = 10000, frozen: a change to how the
# series are summed that moves any bit of them shows up here
GOLDEN_MU_HEX = {
    # n: (d2 mu, mixed-det a=1.5 mu, bound-d d=3, stash_size_for_epsilon eps=1e-6)
    5000: ("0x1.387be70c353d6p+12", "0x1.1a6985b122003p+12", "0x1.3880000000000p+12", "0x1.73f2c47e6cd7ep+8"),
    10000: ("0x1.05e9172c80047p+13", "0x1.d0e372ca71637p+12", "0x1.28dd90493b769p+13", "0x1.0c1081f03fa81p+11"),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_MU_HEX))
def test_series_golden_values(n):
    m = 10_000
    got = (
        expected_matching_d2(n, m).mu.hex(),
        expected_matching_mixed_det(n, m, 1.5).mu.hex(),
        matching_upper_bound_d(n, m, 3).mu.hex(),
        stash_size_for_epsilon(n, m, 1e-6).hex(),
    )
    assert got == GOLDEN_MU_HEX[n]


# ---------------------------------------------------------------------------
# precision below load 1/2, against the series summed at 40 digits
#
# There the stash n - m + sum is O(1/m) while the summands are O(m), so a
# relative error of 1e-16 in each summand is about m^2 1e-16 of the stash.


def test_decimal_series_match_enumeration():
    for (n, m), frozen in ENUMERATED_MU_D2.items():
        assert abs(n - Fraction(oracles.deficit_stash_decimal(n, m)) - frozen) < Fraction(1, 10**30)
    for n, m1, m2, frozen in ((3, 2, 2, Fraction(47, 16)), (3, 1, 3, Fraction(26, 9)), (2, 2, 2, 2)):
        assert abs(n - Fraction(oracles.partitioned_stash_decimal(n, m1, m2)) - frozen) < Fraction(1, 10**30)


@pytest.mark.parametrize("m", [10_000, 100_000])
@pytest.mark.parametrize("alpha", [0.3, 0.4])
def test_d2_stash_relative_error_below_half_load(alpha, m):
    # the floor is one rounding of the largest summand, m 2^-53 / stash:
    # 1.1e-6 at load 0.3 and m = 1e5
    n = round(alpha * m)
    want = float(oracles.deficit_stash_decimal(n, m))
    assert expected_matching_d2(n, m).stash_expected / want - 1 == pytest.approx(0.0, abs=1e-5)


def test_d2_m_times_stash_settles_below_half_load():
    # at load 0.3 m * stash tends to a constant: 0.97213 at m = 1e4 and
    # 0.98313 at m = 1e5 in the 40-digit series
    small, large = (m * expected_matching_d2(3 * m // 10, m).stash_expected for m in (10_000, 100_000))
    assert 1.0 <= large / small <= 1.03


def test_d2_stash_at_tiny_load_is_tiny():
    # n = 1e5, m = 1e9: two keys whose two choices are one bin, about
    # n^2 / (2 m^3) = 5e-18 in the 40-digit series
    assert 0.0 <= expected_matching_d2(100_000, 10**9).stash_expected <= 1e-3


# m * stash of the two-bank model at beta = 0.5, load 0.3, from
# oracles.partitioned_stash_decimal(3 * m // 10, m // 2, m // 2): about 7 s
# each, so frozen
TWO_BANK_M_STASH = {10_000: 0.7192781117704105941992471434, 100_000: 0.7284543312173801382488694828}


@pytest.mark.parametrize("m", sorted(TWO_BANK_M_STASH))
def test_partitioned_stash_relative_error_below_half_load(m):
    got = m * expected_matching_partitioned(3 * m // 10, m, 0.5).stash_expected
    assert got / TWO_BANK_M_STASH[m] - 1 == pytest.approx(0.0, abs=1e-4)


# ---------------------------------------------------------------------------
# partitioned expectation


def test_partitioned_forced_graph():
    # one bin per bank: every element takes both, perfect matching
    assert expected_matching_partitioned(2, 2, 0.5).mu == pytest.approx(2.0, abs=1e-12)


def test_partitioned_no_elements():
    assert expected_matching_partitioned(0, 4, 0.5).mu == pytest.approx(0.0, abs=1e-12)


def test_partitioned_against_enumeration():
    cases = {
        (2, 4, 0.5): Fraction(2),
        (3, 4, 0.5): Fraction(47, 16),
        (3, 4, 0.25): Fraction(26, 9),
    }
    for (n, m, beta), frozen in cases.items():
        m1 = round(beta * m)
        assert oracles.enumerate_expected_mu_partitioned(n, m1, m - m1) == frozen
        assert expected_matching_partitioned(n, m, beta).mu == pytest.approx(
            float(frozen), abs=1e-12
        )


def test_partitioned_symmetric_in_beta():
    a = expected_matching_partitioned(7, 10, 0.3).mu
    b = expected_matching_partitioned(7, 10, 0.7).mu
    assert a == pytest.approx(b, rel=1e-9)


def test_partitioned_rejects_trivial_and_non_integral():
    with pytest.raises(ValueError):
        expected_matching_partitioned(2, 4, 0.0)
    with pytest.raises(ValueError):
        expected_matching_partitioned(2, 4, 1.0)
    with pytest.raises(ValueError):
        expected_matching_partitioned(2, 4, 0.3)


def test_partitioned_matches_simulation():
    from cuckoo_lab.simulate import RngSeed, estimate_mu

    exact = expected_matching_partitioned(50, 100, 0.5).mu
    stats = estimate_mu(ModelParams.partitioned(50, 100, 0.5), 10_000, RngSeed(123))
    assert abs(stats.mean - exact) <= 3 * stats.std_error


# (n, m, beta): (mu.hex(), truncated_at), frozen from the series summed over
# every summand of every row
GOLDEN_PARTITIONED = {
    (200, 400, 0.3): ("0x1.8f067d3cc44ebp+7", None),
    (400, 400, 0.3): ("0x1.43224e6400cb3p+8", 129),
    (1000, 2000, 0.3): ("0x1.f35e55c06a204p+9", 783),
}


@pytest.mark.parametrize("n, m, beta", sorted(GOLDEN_PARTITIONED))
def test_partitioned_golden_values(n, m, beta):
    result = expected_matching_partitioned(n, m, beta)
    assert (result.mu.hex(), result.truncated_at) == GOLDEN_PARTITIONED[(n, m, beta)]


def _partitioned_grid():
    for n in range(21):
        for m in range(2, 21):
            for m1 in range(1, m):
                yield n, m, m1
    # a one-bin bank, and n > m, where rows s >= m are empty
    yield from [(200, 400, 120), (300, 200, 20), (600, 300, 1)]


def test_partitioned_matches_full_series():
    # rows summed outward from their peak equal every summand summed, bit for bit
    for n, m, m1 in _partitioned_grid():
        got = expected_matching_partitioned(n, m, m1 / m)
        assert (got.mu, got.terms, got.truncated_at) == oracles.partitioned_series_full(n, m1, m - m1), (n, m, m1)


_LOG_CONCAVE_ROWS = {
    # peak at i = 7 of [0, 20]; the outer summands lie far below its cut
    "parabola": (0, 20, lambda i: -2.0 * (i - 7) ** 2),
    # three equal summands at the top
    "plateau": (3, 30, lambda i: min(-4.0 * abs(i - 12), -4.0)),
    # falls from the first summand on
    "monotone": (5, 40, lambda i: -5.0 * i),
}


@pytest.mark.parametrize("name", list(_LOG_CONCAVE_ROWS))
def test_sum_from_peak_walks_out_from_either_side(name):
    lo, hi, log_term = _LOG_CONCAVE_ROWS[name]
    logs = [log_term(i) for i in range(lo, hi + 1)]
    top = max(logs)
    peak = lo + logs.index(top)
    for start in sorted({lo, hi, max(lo, peak - 3), peak, min(hi, peak + 3)}):
        row, at = _sum_from_peak(log_term, lo, hi, start)
        assert math.fsum(row) == math.fsum(math.exp(lt) for lt in logs), (name, start)
        assert log_term(at) == top, (name, start)


@pytest.mark.parametrize("n, m1, m2", [(30, 4, 26), (200, 120, 280), (400, 120, 280), (300, 150, 150)])
def test_partitioned_rows_are_log_concave(n, m1, m2):
    # the peak walk of expected_matching_partitioned relies on this: every
    # row's log-summands have non-positive second differences, up to rounding
    for s in range(n + 1):
        row = oracles.partitioned_row_logs(n, m1, m2, s)
        # a full bank (summand 0, log -inf) can only sit at either end of a row
        while row and row[0] == float("-inf"):
            row.pop(0)
        while row and row[-1] == float("-inf"):
            row.pop()
        assert float("-inf") not in row, (n, m1, m2, s)
        for a, b, c in zip(row, row[1:], row[2:]):
            assert a - 2 * b + c <= 8 * math.ulp(max(abs(a), abs(b), abs(c))), (n, m1, m2, s)


# ---------------------------------------------------------------------------
# d >= 2 upper bound


def test_upper_bound_reduces_to_d2():
    for n, m in [(2, 2), (30, 40), (137, 251)]:
        mu = expected_matching_d2(n, m).mu
        bound = matching_upper_bound_d(n, m, 2).mu
        assert bound == pytest.approx(mu, rel=1e-10)


@pytest.mark.parametrize("d", [3, 9])
def test_upper_bound_against_decimal_series(d):
    # d = 9 moves each step's d-1 bins by a log-gamma difference, d = 3 by
    # an exact ratio
    n = m = 10_000
    want = n - oracles.deficit_stash_decimal(n, m, d)
    assert matching_upper_bound_d(n, m, d).mu == pytest.approx(float(want), abs=1e-9)


def test_upper_bound_at_vast_d():
    # each step of the series adds d - 1 bins; as exact integers they would
    # take gigabits here
    assert matching_upper_bound_d(10, 10**9, 10**8).mu == 10.0
    assert matching_upper_bound_d(10, 10, 10**9).mu == 10.0


def test_upper_bound_capped_by_n():
    assert matching_upper_bound_d(3, 1000, 4).mu <= 3.0


def test_upper_bound_rejects_d1():
    with pytest.raises(ValueError):
        matching_upper_bound_d(10, 10, 1)


# ---------------------------------------------------------------------------
# stash sizing and the tail bound


def test_stash_size_epsilon_one_is_expected_stash():
    res = expected_matching_d2(100, 80)
    assert stash_size_for_epsilon(100, 80, 1.0) == pytest.approx(res.stash_expected, rel=1e-12)


def test_stash_size_empty_table():
    assert stash_size_for_epsilon(0, 1, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_stash_size_rejects_bad_epsilon():
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            stash_size_for_epsilon(10, 10, eps)


def test_stash_size_large_scale_components():
    # expected stash ~ 0.1619 n plus a ~525.7 concentration margin
    res = expected_matching_d2(10_000, 10_000)
    margin = math.sqrt(2 * 10_000 * math.log(1e6))
    total = stash_size_for_epsilon(10_000, 10_000, 1e-6)
    assert res.stash_expected == pytest.approx(0.1619e4, abs=10.0)
    assert margin == pytest.approx(525.65, abs=0.1)
    assert total == pytest.approx(res.stash_expected + margin, rel=1e-12)


def test_concentration_tail_bound_values():
    assert concentration_tail_bound(0.0) == 1.0
    assert concentration_tail_bound(2.0) == pytest.approx(2 * math.exp(-2.0), rel=1e-12)
    assert concentration_tail_bound(3.0, one_sided=True) == pytest.approx(
        math.exp(-4.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        concentration_tail_bound(-1.0)


# ---------------------------------------------------------------------------
# params plumbing


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams.fixed2(-1, 5)
    with pytest.raises(ValueError):
        ModelParams.fixed2(5, 0)
    with pytest.raises(ValueError):
        ModelParams.mixed_det(3, 4, 1.5)  # a*n not integral
    with pytest.raises(ValueError):
        ModelParams.mixed_rand(3, 4, 1.5)
    with pytest.raises(ValueError):
        ModelParams.partitioned(3, 10, 0.55)
    # beta*m rounds to no bin, or is no bin
    for args in ((5, 10, 1e-12), (5, 3, 0.0)):
        with pytest.raises(ValueError, match="leaves a bank empty"):
            ModelParams.partitioned(*args)
    with pytest.raises(ValueError):
        ModelParams.fixed_d(3, 4, 1)
    assert ModelParams.mixed_det(4, 4, 1.5).two_choice_count == 2
    assert ModelParams.partitioned(3, 10, 0.3).up_bank_size == 3
    with pytest.raises(ValueError, match="unknown variant 'd4'"):
        ModelParams(3, 4, "d4")
    with pytest.raises(ValueError, match="two_choice_count applies to mixed-det only"):
        ModelParams.fixed2(3, 4).two_choice_count
    with pytest.raises(ValueError, match="up_bank_size applies to partitioned only"):
        ModelParams.fixed2(3, 4).up_bank_size


def test_evaluate_dispatch():
    assert evaluate(ModelParams.fixed2(5, 5)).mu == expected_matching_d2(5, 5).mu
    assert evaluate(ModelParams.fixed_d(5, 5, 2)).mu == expected_matching_d2(5, 5).mu
    with pytest.raises(ValueError):
        evaluate(ModelParams.fixed_d(5, 5, 3))


@given(
    st.integers(0, 15),
    st.integers(1, 15),
    st.integers(0, 15),
)
def test_mixed_det_invariants(two_choice, m, one_choice):
    n = one_choice + two_choice
    if n == 0:
        return
    a = 1 + two_choice / n
    res = expected_matching_mixed_det(n, m, a)
    assert 0.0 <= res.mu <= min(n, m) + 1e-12
    assert res.stash_expected == n - res.mu
    assert all(t >= 0.0 for t in res.terms)
