"""Lambert W0 and the limit matching fractions."""

import math

import pytest
from hypothesis import given, strategies as st
from scipy.special import lambertw as scipy_lambertw

from cuckoo_lab.asymptotics import (
    BranchSolveError,
    gamma_d2,
    gamma_mixed,
    gamma_mixed_rand,
    gamma_partitioned,
    lambert_w0,
    perfect_beta_interval,
)
from cuckoo_lab.exact import (
    expected_matching_d2,
    expected_matching_mixed_det,
    expected_matching_mixed_rand,
    expected_matching_partitioned,
)

import oracles


# ---------------------------------------------------------------------------
# Lambert W


def test_w0_known_points():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(-math.exp(-1)) == -1.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-13)
    # -2 e^-2 has the real roots -2 and about -0.406; W0 is the one >= -1
    w = lambert_w0(-2 * math.exp(-2))
    assert w >= -1.0
    assert w * math.exp(w) == pytest.approx(-2 * math.exp(-2), rel=1e-12)


def test_w0_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-math.exp(-1) - 1e-6)


def test_w0_identity_dense():
    for k in range(1201):
        x = -1.0 + k * (6.0 / 1200)
        arg = x * math.exp(x)
        w = lambert_w0(arg)
        assert w == pytest.approx(x, rel=1e-12, abs=1e-13)


@given(st.floats(min_value=-0.367, max_value=100.0, allow_nan=False))
def test_w0_against_scipy(x):
    mine = lambert_w0(x)
    reference = scipy_lambertw(x, 0).real
    assert mine == pytest.approx(reference, rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# two-choice limit


def test_gamma_d2_full_load():
    assert gamma_d2(1.0).gamma == pytest.approx(0.8381, abs=5e-5)


def test_gamma_d2_below_half_is_exactly_one():
    for k in range(1, 6):
        res = gamma_d2(k / 10)
        assert res.gamma == 1.0
        assert res.closed_form_used


def test_gamma_d2_monotone_beyond_half():
    values = [gamma_d2(0.5 + k * 0.05).gamma for k in range(1, 20)]
    for lo, hi in zip(values, values[1:]):
        assert hi < lo


def test_gamma_d2_rejects_nonpositive_load():
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            gamma_d2(alpha)


# ---------------------------------------------------------------------------
# mixed-degree limits


def test_gamma_mixed_reductions():
    assert gamma_mixed(1.0, 2.0).gamma == gamma_d2(1.0).gamma
    assert gamma_mixed(1.0, 1.0).gamma == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_gamma_mixed_below_one_for_partial_choice():
    for a in (1.0, 1.25, 1.5, 1.75):
        for alpha in (0.25, 0.5, 1.0):
            assert gamma_mixed(alpha, a).gamma < 1.0


def test_gamma_mixed_continuous_at_a1():
    for alpha in (0.3, 0.7, 1.4):
        base = gamma_mixed(alpha, 1.0).gamma
        near = gamma_mixed(alpha, 1.0 + 1e-9).gamma
        assert near == pytest.approx(base, abs=1e-7)


@pytest.mark.parametrize("a", [1.01, 1.5, 1.7])
@pytest.mark.parametrize("alpha", [1e-8, 1e-5, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_gamma_mixed_against_decimal_oracle(alpha, a):
    # at small alpha the three-term formula cancels; the evaluated form must not
    assert gamma_mixed(alpha, a).gamma == pytest.approx(oracles.mixed_gamma(alpha, a), rel=1e-14, abs=0)


def test_gamma_mixed_validation():
    with pytest.raises(ValueError):
        gamma_mixed(1.0, 0.9)
    with pytest.raises(ValueError):
        gamma_mixed(1.0, 2.1)
    with pytest.raises(ValueError):
        gamma_mixed(0.0, 1.5)


def test_gamma_mixed_rand_identity():
    for alpha in (0.4, 1.0, 2.3):
        for p in (0.0, 0.31, 0.5, 1.0):
            assert gamma_mixed_rand(alpha, p).gamma == gamma_mixed(alpha, 1 + p).gamma
    with pytest.raises(ValueError):
        gamma_mixed_rand(1.0, -0.1)


# ---------------------------------------------------------------------------
# two-bank limit


def test_gamma_partitioned_balanced_equals_two_choice():
    for alpha in (0.6, 0.8, 1.0, 1.5, 2.0):
        a = gamma_partitioned(alpha, 0.5).gamma
        b = gamma_d2(alpha).gamma
        assert a == pytest.approx(b, abs=1e-10)


def test_gamma_partitioned_reference_deficit():
    # tiny but nonzero loss just off the balanced split at half load
    res = gamma_partitioned(0.5, 0.45)
    assert (1 - res.gamma) == pytest.approx(1.675e-7, rel=0.05)


def test_gamma_partitioned_symmetry():
    for alpha in (0.3, 0.5, 0.9, 1.4):
        for beta in (0.05, 0.2, 0.35, 0.45):
            a = gamma_partitioned(alpha, beta).gamma
            b = gamma_partitioned(alpha, 1 - beta).gamma
            assert a == pytest.approx(b, abs=1e-12)


def test_gamma_partitioned_trivial_partition():
    for alpha in (0.5, 1.0, 2.0):
        expected = (1 - math.exp(-alpha)) / alpha
        for beta in (0.0, 1.0):
            res = gamma_partitioned(alpha, beta)
            assert res.gamma == pytest.approx(expected, rel=1e-12)
            assert res.closed_form_used
            assert res.branch_data is None


def test_gamma_partitioned_inside_perfect_interval():
    res = gamma_partitioned(0.4, 0.5)
    assert res.gamma == 1.0
    assert res.closed_form_used
    # interval boundary: tangent solution still admissible
    res = gamma_partitioned(0.4, 0.2)
    assert res.gamma == 1.0


def test_gamma_partitioned_branch_solution_is_valid():
    for alpha, beta in [(1.0, 0.5), (1.0, 0.3), (0.5, 0.45), (2.0, 0.25), (0.7, 0.1)]:
        res = gamma_partitioned(alpha, beta)
        assert res.branch_data is not None
        t1, t2 = res.branch_data
        assert t1 > 0 and t2 > 0
        assert t1 * t2 <= 1 + 1e-9
        x_const = alpha / (1 - beta) * math.exp(-alpha / beta)
        y_const = alpha / beta * math.exp(-alpha / (1 - beta))
        assert t1 - x_const * math.exp(t2) == pytest.approx(0.0, abs=1e-11)
        assert t2 - y_const * math.exp(t1) == pytest.approx(0.0, abs=1e-11)


def test_gamma_partitioned_underflowed_constants():
    # alpha/beta beyond ~745: X and Y underflow to 0, and (0, 0) is the
    # exact branch solution
    res = gamma_partitioned(1000.0, 0.5)
    assert res.branch_data == (0.0, 0.0)
    assert res.gamma == pytest.approx(1 / 1000, rel=1e-15)


@pytest.mark.parametrize("alpha,beta", [(1e-10, 5e-324), (4e-66, 1.2e-262), (1e-5, 1e-200)])
def test_gamma_partitioned_vanishing_bank(alpha, beta):
    # the small bank fills with probability about exp(-alpha^2/beta), which
    # is 0 in floats here, so gamma is the single-choice value; alpha/beta
    # e^(-alpha) is beyond the float range at the first point
    res = gamma_partitioned(alpha, beta)
    assert res.gamma == pytest.approx(-math.expm1(-alpha) / alpha, rel=1e-12, abs=0)
    assert res.branch_data[0] == 0.0


_TWO_BANK_GRID = [
    (alpha, beta)
    for alpha in (0.501, 0.55, 0.7, 1.0, 2.0, 5.0)
    for beta in (0.01, 0.1, 0.3, 0.45, 0.5, 0.7, 0.99)
    if alpha * alpha > beta * (1 - beta)
] + [
    # small alpha beside a tiny bank, where 1/alpha - beta(1-beta)/alpha^2
    # (t1 + t2 - t1 t2) cancels all but a few digits
    (0.01, 1e-5), (1e-3, 1e-7), (1e-6, 1e-13), (1e-10, 1e-21),
]


@pytest.mark.parametrize("alpha,beta", _TWO_BANK_GRID)
def test_gamma_partitioned_against_decimal_oracle(alpha, beta):
    expected = oracles.two_bank_gamma(alpha, beta)
    assert gamma_partitioned(alpha, beta).gamma == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "alpha,beta",
    [
        (1.0, 1e-4),  # e^(alpha/beta) overflows
        (1.0, 0.9999),
        (0.01, 0.01 / 740),  # X underflows but X e^(t2) does not
        (0.00204, 1 - 2.2e-6),  # Y underflows but Y e^(t1) does not
        (0.500000000001, 0.5),  # next to the double root t1 t2 = 1
        (0.0037259539497963385, 1.3882925571625308e-05),  # a step overshoots the double root
    ],
)
def test_gamma_partitioned_extreme_points_against_decimal_oracle(alpha, beta):
    expected = oracles.two_bank_gamma(alpha, beta)
    assert gamma_partitioned(alpha, beta).gamma == pytest.approx(expected, abs=1e-8)


def test_gamma_partitioned_validation():
    with pytest.raises(ValueError):
        gamma_partitioned(0.0, 0.5)
    with pytest.raises(ValueError):
        gamma_partitioned(1.0, -0.1)


def test_perfect_beta_interval():
    lo, hi = perfect_beta_interval(0.5)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)
    lo, hi = perfect_beta_interval(0.4)
    assert lo == pytest.approx(0.2, abs=1e-12)
    assert hi == pytest.approx(0.8, abs=1e-12)
    assert perfect_beta_interval(0.6) is None
    with pytest.raises(ValueError):
        perfect_beta_interval(0.0)


def _swapped_variant_gamma(alpha: float, beta: float) -> float:
    """The rejected pairing of the implicit-solve constants, with the two
    exponentials exchanged.  Kept here as evidence for the adjudication
    test below; see the asymptotics module docstring."""
    x_const = alpha / (1 - beta) * math.exp(-alpha / (1 - beta))
    y_const = alpha / beta * math.exp(-alpha / beta)
    t1, t2 = x_const, y_const
    for _ in range(200_000):
        n1 = x_const * math.exp(t2)
        n2 = y_const * math.exp(n1)
        if abs(n1 - t1) < 1e-14 and abs(n2 - t2) < 1e-14:
            t1, t2 = n1, n2
            break
        t1, t2 = n1, n2
    return 1 / alpha - beta * (1 - beta) / alpha**2 * (t1 + t2 - t1 * t2)


def test_branch_constant_pairing_adjudicated_by_finite_size():
    # The exact finite-size value picks the constant pairing used by
    # gamma_partitioned and rules out the swapped one.
    alpha, beta, n = 1.0, 0.3, 10_000
    finite = expected_matching_partitioned(n, n, beta).mu / n
    adopted = gamma_partitioned(alpha, beta).gamma
    swapped = _swapped_variant_gamma(alpha, beta)
    assert abs(finite - adopted) < 1e-3
    assert abs(finite - swapped) > 5e-2
    # and the reference deficit point agrees only with the adopted pairing
    assert abs(1 - _swapped_variant_gamma(0.5, 0.45)) > 1e-3


# ---------------------------------------------------------------------------
# finite-size values converge to the limits


FINITE_TO_LIMIT_POINTS = [
    ("d2", 1.0, lambda n: expected_matching_d2(n, n).mu / n, lambda: gamma_d2(1.0).gamma),
    ("d2", 0.8, lambda n: expected_matching_d2(n, round(n / 0.8)).mu / n, lambda: gamma_d2(0.8).gamma),
    ("mixed", 1.0, lambda n: expected_matching_mixed_det(n, n, 1.5).mu / n, lambda: gamma_mixed(1.0, 1.5).gamma),
    ("mixed-rand", 1.0, lambda n: expected_matching_mixed_rand(n, n, 0.5).mu / n, lambda: gamma_mixed_rand(1.0, 0.5).gamma),
    ("partitioned", 1.0, lambda n: expected_matching_partitioned(n, n, 0.5).mu / n, lambda: gamma_partitioned(1.0, 0.5).gamma),
    ("partitioned", 1.0, lambda n: expected_matching_partitioned(n, n, 0.3).mu / n, lambda: gamma_partitioned(1.0, 0.3).gamma),
]


@pytest.mark.parametrize("name,alpha,finite,limit", FINITE_TO_LIMIT_POINTS)
def test_finite_to_limit_convergence(name, alpha, finite, limit):
    gamma = limit()
    gaps = [abs(finite(n) - gamma) for n in (100, 1000, 10_000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2
