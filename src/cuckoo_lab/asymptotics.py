"""Large-system limits of the normalized expected maximum matching size.

All results are expressed through the Lambert-W function (the inverse of
x * e^x), implemented here from scratch: branch-specific initial guesses
refined by Halley iteration.  The two-bank model needs a two-variable
implicit solve instead; see :func:`gamma_partitioned`.

Branch-equation validation for the two-bank model
-------------------------------------------------
The pair of constants fed to the implicit solve admits a plausible-looking
alternative in which the exponentials are swapped between the two
equations (pairing alpha/(1-beta) with exp(-alpha/(1-beta)) instead of
exp(-alpha/beta)).  The two variants coincide at beta = 0.5 and differ
everywhere else.  The pairing used here, X = alpha/(1-beta) *
exp(-alpha/beta) and Y = alpha/beta * exp(-alpha/(1-beta)), is validated
two ways in the test suite: it reproduces the exact finite-size value
(mu/n = 0.80723 at n = 10^4, alpha = 1, beta = 0.3, against 0.80721 here,
a 1/n-sized gap, where the swapped variant gives 0.89180), and it yields
1 - gamma = 1.675e-7 at alpha = 0.5, beta = 0.45, matching the reference
deficit for that operating point.  The closed-form full-utilization
solution t1 = alpha/(1-beta), t2 = alpha/beta also satisfies exactly this
pairing and only this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, isfinite, log, sqrt
from typing import Optional

_E_INV = exp(-1.0)
_BRANCH_POINT_TOL = 1e-12

_HALLEY_MAX_ITER = 50
_HALLEY_REL_STEP = 1e-14


@dataclass(frozen=True)
class AsymptoticResult:
    """A normalized limit matching size in [0, 1].

    ``branch_data`` carries the (t1, t2) solution pair for the two-bank
    model; ``closed_form_used`` flags results produced by a degenerate
    closed form instead of a numeric solve or W evaluation.
    """

    gamma: float
    branch_data: Optional[tuple[float, float]] = None
    closed_form_used: bool = False


class BranchSolveError(RuntimeError):
    """The two-bank implicit solve failed to converge to the admissible
    branch within its iteration budget."""


# ---------------------------------------------------------------------------
# Lambert W


def _halley(x: float, w: float) -> float:
    # Solve w e^w = x starting from a branch-appropriate guess w.
    for _ in range(_HALLEY_MAX_ITER):
        ew = exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        wp1 = w + 1.0
        if wp1 == 0.0:
            # derivative vanishes at the branch point; step off it
            w = -1.0 + 1e-12
            continue
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0 or not isfinite(denom):
            break
        step = f / denom
        w -= step
        if abs(step) <= _HALLEY_REL_STEP * max(abs(w), 1e-300):
            break
    return w


def lambert_w0(x: float) -> float:
    """Principal branch of Lambert W: the solution w >= -1 of w e^w = x,
    defined for x >= -1/e.  Exact at the branch point and at zero."""
    if x == 0.0:
        return 0.0
    if x < -_E_INV:
        if x < -_E_INV - _BRANCH_POINT_TOL:
            raise ValueError(f"lambert_w0 domain is [-1/e, inf); got {x}")
        return -1.0
    if x == -_E_INV:
        return -1.0

    if x < -0.25:
        # series about the branch point in p = sqrt(2 (e x + 1))
        p = sqrt(max(0.0, 2.0 * (x / _E_INV + 1.0)))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    elif x < 0.5:
        # series about the origin
        w = x * (1.0 - x + 1.5 * x * x)
    elif x < 8.0:
        # log(x) is too close to 0 here for the asymptotic form
        w = 0.6 * log(1.0 + x)
    else:
        l1 = log(x)
        l2 = log(l1)
        w = l1 - l2 + l2 / l1
    return _halley(x, max(w, -1.0))


def lambert_w_m1(x: float) -> float:
    """Lower real branch of Lambert W: the solution w <= -1 of w e^w = x,
    defined on [-1/e, 0)."""
    if not -_E_INV - _BRANCH_POINT_TOL <= x < 0.0:
        raise ValueError(f"lambert_w_m1 domain is [-1/e, 0); got {x}")
    if x <= -_E_INV:
        return -1.0

    if x < -0.25:
        p = sqrt(max(0.0, 2.0 * (x / _E_INV + 1.0)))
        w = -1.0 - p - p * p / 3.0 - 11.0 / 72.0 * p**3
    else:
        # asymptotic guess near 0-: w ~ ln(-x) - ln(-ln(-x))
        l1 = log(-x)
        l2 = log(-l1)
        w = l1 - l2 + l2 / l1
    return _halley(x, min(w, -1.0))


# ---------------------------------------------------------------------------
# single-table limits


def gamma_d2(alpha: float) -> AsymptoticResult:
    """Limit matching fraction for the two-choice model at load alpha.

    Below and at load 1/2 the limit is exactly 1 (the argument of W sits
    on the easy side of the branch point); beyond it,
    gamma = 1/alpha + W(-2a e^(-2a))/(2 alpha^2) + W^2(...)/(4 alpha^2).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    if alpha <= 0.5:
        return AsymptoticResult(gamma=1.0, closed_form_used=True)
    w = lambert_w0(-2.0 * alpha * exp(-2.0 * alpha))
    gamma = 1.0 / alpha + w / (2.0 * alpha * alpha) + w * w / (4.0 * alpha * alpha)
    return AsymptoticResult(gamma=_clamp01(gamma))


def gamma_mixed(alpha: float, a: float) -> AsymptoticResult:
    """Limit matching fraction when the mean number of choices per element
    is a in [1, 2].  a = 2 reduces to :func:`gamma_d2`; a = 1 has the
    closed form (1 - e^(-alpha))/alpha; in between the W argument is
    -2 alpha (a-1) e^(-a alpha), always inside the branch radius."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    if not 1.0 <= a <= 2.0:
        raise ValueError("a must be in [1, 2]")
    if a == 2.0:
        return gamma_d2(alpha)
    if a == 1.0:
        return AsymptoticResult(gamma=_clamp01(-expm1(-alpha) / alpha), closed_form_used=True)
    w = lambert_w0(-2.0 * alpha * (a - 1.0) * exp(-a * alpha))
    denom2 = 2.0 * alpha * alpha * (a - 1.0)
    gamma = 1.0 / alpha + w / denom2 + w * w / (2.0 * denom2)
    return AsymptoticResult(gamma=_clamp01(gamma))


def gamma_mixed_rand(alpha: float, p: float) -> AsymptoticResult:
    """Limit matching fraction when each element independently has two
    choices with probability p: identical to the fixed split with mean
    1 + p choices."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return gamma_mixed(alpha, 1.0 + p)


# ---------------------------------------------------------------------------
# two-bank limit


_PAIR_MAX_SWEEPS = 200_000
_PAIR_SWEEP_TOL = 1e-13
_NEWTON_MAX_ITER = 60
_RESIDUAL_TOL = 1e-11
_BRANCH_PRODUCT_TOL = 1e-9


def _solve_branch_pair(x_const: float, y_const: float) -> tuple[float, float]:
    """Solve t1 = X e^(t2), t2 = Y e^(t1) on the branch with t1 t2 <= 1.

    Damped fixed-point iteration from (X, Y): starting below the smallest
    positive solution, the iterates increase monotonically toward it, and
    that solution is the attracting one with t1 t2 <= 1.  A 2x2 Newton
    polish sharpens the result to machine accuracy (the fixed point alone
    crawls when t1 t2 is close to 1).
    """
    t1, t2 = x_const, y_const
    damp = 1.0
    prev_res = float("inf")
    grew = 0
    for _ in range(_PAIR_MAX_SWEEPS):
        n1 = t1 + damp * (x_const * exp(t2) - t1)
        n2 = t2 + damp * (y_const * exp(n1) - t2)
        if not (isfinite(n1) and isfinite(n2)):
            damp *= 0.5
            if damp < 1e-6:
                raise BranchSolveError("fixed-point iteration diverged")
            t1, t2 = x_const, y_const
            continue
        step = max(abs(n1 - t1), abs(n2 - t2))
        t1, t2 = n1, n2
        res = abs(t1 - x_const * exp(t2)) + abs(t2 - y_const * exp(t1))
        if res > prev_res:
            grew += 1
            if grew >= 3:
                damp *= 0.5
                grew = 0
        else:
            grew = 0
        prev_res = res
        if step < _PAIR_SWEEP_TOL:
            break

    for _ in range(_NEWTON_MAX_ITER):
        e2 = x_const * exp(t2)
        e1 = y_const * exp(t1)
        f1 = t1 - e2
        f2 = t2 - e1
        if abs(f1) + abs(f2) < 1e-16:
            break
        # Jacobian of (f1, f2) in (t1, t2): [[1, -X e^(t2)], [-Y e^(t1), 1]]
        det = 1.0 - e2 * e1
        if det == 0.0:
            break
        d1 = (f1 + e2 * f2) / det
        d2 = (e1 * f1 + f2) / det
        t1 -= d1
        t2 -= d2
        if max(abs(d1), abs(d2)) < 1e-16 * max(1.0, abs(t1), abs(t2)):
            break

    res = abs(t1 - x_const * exp(t2)) + abs(t2 - y_const * exp(t1))
    if not (isfinite(res) and res <= _RESIDUAL_TOL):
        raise BranchSolveError(f"residual {res} after polish; no convergence")
    # a constant that underflowed to 0 (alpha/beta beyond ~745) has the
    # exact solution component 0
    if (
        t1 < 0.0
        or t2 < 0.0
        or (t1 == 0.0 and x_const != 0.0)
        or (t2 == 0.0 and y_const != 0.0)
        or t1 * t2 > 1.0 + _BRANCH_PRODUCT_TOL
    ):
        raise BranchSolveError(f"landed on inadmissible branch: t1={t1}, t2={t2}")
    return t1, t2


def gamma_partitioned(alpha: float, beta: float) -> AsymptoticResult:
    """Limit matching fraction for the two-bank model with bank fractions
    beta and 1 - beta.

    The trivial partitions beta in {0, 1} behave like single-choice
    hashing: gamma = (1 - e^(-alpha))/alpha.  When alpha^2 <= beta(1-beta)
    the closed-form pair t1 = alpha/(1-beta), t2 = alpha/beta is
    admissible and gamma is exactly 1.  Otherwise the implicit pair

        alpha/(1-beta) e^(-alpha/beta)   = t1 e^(-t2)
        alpha/beta     e^(-alpha/(1-beta)) = t2 e^(-t1)

    is solved on the branch t1 t2 <= 1 (see the module docstring for why
    this pairing of the constants is the validated one) and
    gamma = 1/alpha - beta(1-beta)/alpha^2 (t1 + t2 - t1 t2).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    if beta == 0.0 or beta == 1.0:
        return AsymptoticResult(gamma=_clamp01(-expm1(-alpha) / alpha), closed_form_used=True)
    if alpha * alpha <= beta * (1.0 - beta):
        t1 = alpha / (1.0 - beta)
        t2 = alpha / beta
        return AsymptoticResult(gamma=1.0, branch_data=(t1, t2), closed_form_used=True)

    x_const = alpha / (1.0 - beta) * exp(-alpha / beta)
    y_const = alpha / beta * exp(-alpha / (1.0 - beta))
    t1, t2 = _solve_branch_pair(x_const, y_const)
    gamma = 1.0 / alpha - beta * (1.0 - beta) / (alpha * alpha) * (t1 + t2 - t1 * t2)
    return AsymptoticResult(gamma=_clamp01(gamma), branch_data=(t1, t2))


def perfect_beta_interval(alpha: float) -> Optional[tuple[float, float]]:
    """Range of bank fractions for which the two-bank model still reaches
    full utilization in the limit: beta(1-beta) >= alpha^2, non-empty only
    for alpha <= 1/2.  Returns None when empty."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    disc = 1.0 - 4.0 * alpha * alpha
    if disc < 0.0:
        return None
    half_width = sqrt(disc) / 2.0
    return (0.5 - half_width, 0.5 + half_width)


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))
