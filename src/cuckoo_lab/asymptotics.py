"""Large-system limits of the normalized expected maximum matching size.

All results are expressed through the principal branch W0 of the
Lambert-W function (the inverse of x * e^x), implemented here from
scratch: initial guesses by region refined by Halley iteration.  The
two-bank model needs an implicit solve instead, a monotone Newton
iteration in one variable; see :func:`gamma_partitioned`.

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

import sys
from dataclasses import dataclass
from math import exp, expm1, inf, isfinite, log, log1p, sqrt
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
    """The two-bank implicit solve ended with a residual above its
    tolerance."""


# ---------------------------------------------------------------------------
# Lambert W


def _halley(x: float, w: float) -> float:
    # Solve w e^w = x starting from the guess w.
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
    w = lambert_w0(-2.0 * (alpha * exp(-2.0 * alpha)))
    gamma = 1.0 / alpha + w / (2.0 * alpha * alpha) + w * w / (4.0 * alpha * alpha)
    return AsymptoticResult(gamma=_clamp01(gamma))


def gamma_mixed(alpha: float, a: float) -> AsymptoticResult:
    """Limit matching fraction when the mean number of choices per element
    is a in [1, 2].  a = 2 reduces to :func:`gamma_d2`; a = 1 has the
    closed form (1 - e^(-alpha))/alpha; in between the W argument is
    -2 alpha (a-1) e^(-a alpha), always inside the branch radius.

    With w = W(-2 alpha (a-1) e^(-a alpha)) and y = a alpha + w,
    gamma = 1/alpha + w/(2 alpha^2 (a-1)) + w^2/(4 alpha^2 (a-1)); since
    w e^w is the W argument, 2 alpha (a-1) = -w e^y, and gamma becomes
    (1 - e^(-y) - (w/2) e^(-y))/alpha, whose two parts do not cancel."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    if not 1.0 <= a <= 2.0:
        raise ValueError("a must be in [1, 2]")
    if a == 2.0:
        return gamma_d2(alpha)
    if a == 1.0:
        return AsymptoticResult(gamma=_clamp01(-expm1(-alpha) / alpha), closed_form_used=True)
    w = lambert_w0(-2.0 * (a - 1.0) * (alpha * exp(-a * alpha)))
    y = a * alpha + w
    gamma = (-expm1(-y) - 0.5 * w * exp(-y)) / alpha
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


_NEWTON_MAX_ITER = 60
_RESIDUAL_TOL = 1e-11
_LN_FLOAT_MAX = log(sys.float_info.max)


def _smallest_root(ca: float, ln_ca: float, cb: float, ln_cb: float) -> float:
    """Smallest solution u >= 0 of u = ca e^(v - cb), v = cb e^(u - ca).

    Substituting v gives one equation, f(u) = u - ca exp(cb (e^(u - ca) - 1))
    = 0.  The subtracted term is convex in u, so f is concave with
    f(0) < 0, and Newton from u = 0 rises monotonically onto the smallest
    root without overshooting it.  There f' = 1 - u v >= 0, which is the
    admissible branch.  cb and ca may be inf; their logarithms, given
    separately, are finite, so a constant outside the float range still
    contributes through the exponential it multiplies.
    """
    if ln_cb - ca > _LN_FLOAT_MAX:
        # v > cb e^(-ca) is beyond the float range, and u v <= 1 on the
        # admissible branch, so u is below the smallest normal float
        return 0.0
    u = last = 0.0
    for _ in range(_NEWTON_MAX_ITER):
        v = exp(ln_cb + (u - ca))
        g = exp(ln_ca + cb * expm1(u - ca))
        slope = 1.0 - g * v
        if not slope > 0.0:
            # rounding carried the last step past the maximum of f, which
            # only happens next to a double root: step back
            u = last
            break
        step = (g - u) / slope
        if not u + step > u:
            break
        last, u = u, u + step
    res = abs(u - exp(ln_ca + cb * expm1(u - ca)))
    if not res <= _RESIDUAL_TOL * max(1.0, u):
        raise BranchSolveError(f"residual {res} after the Newton iteration")
    return u


def _branch_pair(
    alpha: float, a: tuple[float, float, float], b: tuple[float, float, float]
) -> tuple[float, float, float]:
    """(u, v, gamma) on the admissible branch of the two-bank pair
    u = ca e^(v - cb), v = cb e^(u - ca), given a = (ca, ln ca, fa) with
    fa = alpha/ca, and b likewise; fa + fb = 1.  ca or cb may be inf.

    (ca, cb) is itself a solution, the largest, so ya = ln(u/ca) = v - cb
    and yb = ln(v/cb) = u - ca are <= 0, and
    gamma = (fb (1 - e^ya) + fa (1 - e^yb))/alpha + e^(ya + yb)
    is a sum of non-negative parts.  v enters it only through
    ya = cb (e^yb - 1), so v may lie beyond the float range, reported as
    inf, while gamma stays finite.
    """
    ca, ln_ca, fa = a
    cb, ln_cb, fb = b
    u = _smallest_root(ca, ln_ca, cb, ln_cb)
    yb = u - ca
    ya = cb * expm1(yb)
    gamma = (-fb * expm1(ya) - fa * expm1(yb)) / alpha + exp(ya + yb)
    ln_v = ln_cb + yb
    return u, exp(ln_v) if ln_v <= _LN_FLOAT_MAX else inf, gamma


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
    gamma = 1/alpha - beta(1-beta)/alpha^2 (t1 + t2 - t1 t2), evaluated in
    a form free of cancellation (:func:`_branch_pair`).  A component of
    ``branch_data`` beyond the float range is inf.

    The pair is reduced to one equation in one variable and solved by a
    monotone Newton iteration (:func:`_smallest_root`), which converges onto
    the smallest root; that, and no check of t1 t2, is what keeps it on the
    admissible branch.  Just above alpha^2 = beta(1-beta) the two roots
    merge into a double root at which floats fix the pair only to about
    sqrt(machine epsilon), so t1 t2 may come out slightly above 1 there.
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

    # (constant, its log, bank fraction) of t1 and of t2: a constant may
    # overflow to inf, its log cannot
    ln_alpha = log(alpha)
    one = (alpha / (1.0 - beta), ln_alpha - log1p(-beta), 1.0 - beta)
    two = (alpha / beta, ln_alpha - log(beta), beta)
    # solve for the variable with the smaller constant, ln X = ln c1 - c2
    # against ln Y = ln c2 - c1: it is the one below 1 next to a double
    # root, where a step that rounding pushed too far then cannot overflow
    if one[1] - two[0] <= two[1] - one[0]:
        t1, t2, gamma = _branch_pair(alpha, one, two)
    else:
        t2, t1, gamma = _branch_pair(alpha, two, one)
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
