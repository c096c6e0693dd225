"""Reference values computed apart from cuckoo-lab.

Nothing here imports ``cuckoo_lab``.  The finite-size series are written
out again from the component-count definitions in the project README and
summed in mpmath at 40 digits (the two-bank double sum in float64 with
``scipy.special.gammaln``); the limits come from ``scipy.special.lambertw``
and a ``scipy.optimize.brentq`` root of the two-bank pair; matchings from
``scipy.sparse.csgraph.maximum_bipartite_matching``; bin choices from the
hash spec in the README.

Print the reference values of a workload with::

    python3 perfbench/reference.py --workload half-load
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.special import gammaln, lambertw

mpmath.mp.dps = 40

_MASK64 = (1 << 64) - 1
# a series stops once this many consecutive summands fall below
# _NEGLIGIBLE of the running total
_TAIL_RUN = 20
_NEGLIGIBLE = 1e-35


# ---------------------------------------------------------------------------
# hashing, from the README: choice i is wang_mix64(key XOR seeds[i]) mapped
# into [0, m) by re-mixing while the value falls in the short residue


def wang_mix64(x: int) -> int:
    x &= _MASK64
    x = (~x + (x << 21)) & _MASK64
    x ^= x >> 24
    x = (x + (x << 3) + (x << 8)) & _MASK64
    x ^= x >> 14
    x = (x + (x << 2) + (x << 4)) & _MASK64
    x ^= x >> 28
    return (x + (x << 31)) & _MASK64


def bin_choices(key: int, seeds: tuple[int, ...], m: int) -> tuple[int, ...]:
    threshold = (1 << 64) - (1 << 64) % m
    out = []
    for s in seeds:
        v = wang_mix64((key & _MASK64) ^ s)
        while v >= threshold:
            v = wang_mix64(v)
        out.append(v % m)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact finite-size expectations (mpmath)


def _lbinom(n, k):
    return mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)


def _log_connect_d2(s: int):
    # 2^s s! / (s+1)^(s+1): share of ordered choice pairs inside s+1 bins
    # that connect s two-choice elements into one tree
    return s * mpmath.log(2) + mpmath.loggamma(s + 1) - (s + 1) * mpmath.log(s + 1)


def _log1m_pow(q, exponent):
    # exponent * ln(1 - q), with 0^0 = 1
    return exponent * mpmath.log1p(-q) if exponent else 0


def _series(terms, smax: int):
    total = mpmath.mpf(0)
    tiny = 0
    for s in range(smax + 1):
        t = terms(s)
        total += t
        if s > 0 and t < _NEGLIGIBLE * total:
            tiny += 1
            if tiny >= _TAIL_RUN:
                break
        else:
            tiny = 0
    return total


def _clamp(mu, n: int, m: int) -> float:
    return float(min(max(mu, 0), min(n, m)))


@lru_cache(maxsize=None)
def mu_mixed_det(one_choice: int, two_choice: int, m: int) -> float:
    """Expected maximum matching with fixed counts of one- and two-choice
    elements: m minus the expected number of tree components with s
    two-choice elements and s+1 bins (one-choice elements only avoid them)."""
    def term(s):
        q = mpmath.mpf(s + 1) / m
        return mpmath.exp(
            _lbinom(two_choice, s) + _lbinom(m, s + 1)
            + _log1m_pow(q, 2 * (two_choice - s) + one_choice)
            + 2 * s * mpmath.log(q) + _log_connect_d2(s)
        )

    n = one_choice + two_choice
    return _clamp(m - _series(term, min(two_choice, m - 1)), n, m)


def mu_d2(n: int, m: int) -> float:
    return mu_mixed_det(0, n, m)


@lru_cache(maxsize=None)
def mu_mixed_rand(n: int, m: int, p: float) -> float:
    """Each element has two choices with probability p.  Averaging the
    fixed-split series over the binomial two-choice count in closed form
    (C(n,k) C(k,s) = C(n,s) C(n-s,k-s)) leaves the single sum over s of
    C(n,s) p^s C(m,s+1) q^2s conn(s) [(1-q)(1-pq)]^(n-s), q = (s+1)/m."""
    p = mpmath.mpf(p)

    def term(s):
        q = mpmath.mpf(s + 1) / m
        return mpmath.exp(
            _lbinom(n, s) + s * mpmath.log(p) + _lbinom(m, s + 1)
            + 2 * s * mpmath.log(q) + _log_connect_d2(s)
            + _log1m_pow(q, n - s) + _log1m_pow(p * q, n - s)
        )

    return _clamp(m - _series(term, min(n, m - 1)), n, m)


@lru_cache(maxsize=None)
def mu_bound_d(n: int, m: int, d: int) -> float:
    """Upper bound for d choices: m minus the bins stranded by tree
    components with s elements and q = (d-1)s + 1 bins, each leaving q - s
    bins free.  A tree's count is q! / ((d-1)!)^s q^(s-2) (Husimi graphs)."""
    def term(s):
        q = (d - 1) * s + 1
        log_trees = mpmath.loggamma(q + 1) - s * mpmath.loggamma(d) + (s - 2) * mpmath.log(q)
        log_connect = s * mpmath.loggamma(d + 1) + log_trees - d * s * mpmath.log(q)
        return mpmath.exp(
            mpmath.log(q - s) + _lbinom(n, s) + _lbinom(m, q)
            + _log1m_pow(mpmath.mpf(q) / m, d * (n - s))
            + d * s * mpmath.log(mpmath.mpf(q) / m) + log_connect
        )

    return _clamp(m - _series(term, min(n, (m - 1) // (d - 1))), n, m)


@lru_cache(maxsize=None)
def mu_partitioned(n: int, m: int, beta: float) -> float:
    """Two banks of m1 = beta*m and m2 bins, one choice in each.  A tree
    component with i up bins, j down bins and s = i+j-1 elements has
    i^(j-1) j^(i-1) s! labelled forms; float64 is enough at these sizes."""
    m1 = round(beta * m)
    m2 = m - m1
    total = 0.0
    tiny = 0
    rows = []
    for s in range(n + 1):
        if s == 0:
            row = m1 * (1 - 1 / m1) ** n + m2 * (1 - 1 / m2) ** n
        else:
            i = np.arange(max(1, s + 1 - m2), min(s, m1) + 1, dtype=float)
            j = s + 1 - i
            with np.errstate(divide="ignore"):  # a full bank: nothing avoids it
                avoid = (n - s) * (np.log1p(-i / m1) + np.log1p(-j / m2)) if n > s else 0.0
            lt = (
                gammaln(n + 1) - gammaln(s + 1) - gammaln(n - s + 1)
                + gammaln(m1 + 1) - gammaln(i + 1) - gammaln(m1 - i + 1)
                + gammaln(m2 + 1) - gammaln(j + 1) - gammaln(m2 - j + 1)
                + avoid
                + s * (np.log(i / m1) + np.log(j / m2))
                + (j - 1) * np.log(i) + (i - 1) * np.log(j) + gammaln(s + 1)
                - s * (np.log(i) + np.log(j))
            )
            row = math.fsum(np.exp(lt))
        rows.append(row)
        total += row
        if s > 0 and row < _NEGLIGIBLE * total:
            tiny += 1
            if tiny >= _TAIL_RUN:
                break
        else:
            tiny = 0
    return _clamp(m - math.fsum(rows), n, m)


# ---------------------------------------------------------------------------
# limits (scipy)


def gamma_mixed(alpha: float, a: float) -> float:
    """Limit matching fraction with mean a in [1, 2] choices per element."""
    if a == 1.0:
        return -math.expm1(-alpha) / alpha
    if a == 2.0 and alpha <= 0.5:
        return 1.0
    w = float(lambertw(-2.0 * alpha * (a - 1.0) * math.exp(-a * alpha), 0).real)
    c = 2.0 * alpha * alpha * (a - 1.0)
    return min(1.0, 1.0 / alpha + w / c + w * w / (2.0 * c))


def two_bank(alpha: float, beta: float) -> tuple[float, float, float]:
    """(gamma, t1, t2) of the two-bank limit on the branch t1 t2 <= 1.

    With X = alpha/(1-beta) e^(-alpha/beta) and Y = alpha/beta
    e^(-alpha/(1-beta)), t1 solves g(t) = X exp(Y e^t) - t = 0 and
    t2 = Y e^t1.  g' = t1 t2 - 1 at a root and g' increases, so the
    admissible root is the one on [0, t*] with g'(t*) = 0.
    """
    x = alpha / (1.0 - beta) * math.exp(-alpha / beta)
    y = alpha / beta * math.exp(-alpha / (1.0 - beta))

    def slope_log(t):  # log(g'(t) + 1)
        return math.log(x) + y * math.exp(t) + math.log(y) + t

    hi = 1.0
    while slope_log(hi) < 0:
        hi *= 2.0
    t_star = brentq(slope_log, 0.0, hi, xtol=1e-16) if slope_log(0.0) < 0 else 0.0
    g = lambda t: x * math.exp(y * math.exp(t)) - t  # noqa: E731
    if g(t_star) > 0:
        raise ValueError(f"no admissible two-bank root at alpha={alpha}, beta={beta}")
    t1 = brentq(g, 0.0, t_star, xtol=1e-16)
    t2 = y * math.exp(t1)
    gamma = 1.0 / alpha - beta * (1.0 - beta) / (alpha * alpha) * (t1 + t2 - t1 * t2)
    return min(1.0, gamma), t1, t2


# ---------------------------------------------------------------------------
# matchings and concentration


def matching_size(choices, m: int) -> int:
    """Maximum matching of the bipartite graph given by per-element choices."""
    rows = [u for u, row in enumerate(choices) for _ in set(row)]
    cols = [v for row in choices for v in set(row)]
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(choices), m))
    return int((maximum_bipartite_matching(graph, perm_type="column") >= 0).sum())


def mcdiarmid_radius(elements: int, samples: int, delta: float) -> float:
    """Deviation t of a mean over ``samples`` independent graphs with
    ``elements`` elements each, where re-drawing one element moves a graph's
    matching size by at most 1: P(|mean - mu| >= t) <= 2 exp(-2 t^2
    samples / elements) = delta."""
    return math.sqrt(elements * math.log(2.0 / delta) / (2.0 * samples))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import workload as w

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(w.ALPHA), required=True)
    args = parser.parse_args(argv)
    alpha = w.ALPHA[args.workload]

    def n(m: int) -> int:
        return round(alpha * m)

    two_choice = round((w.MIXED_A - 1) * n(w.EXACT_M))
    refs = {
        "exact_d2": mu_d2(n(w.EXACT_M), w.EXACT_M),
        "exact_mixed_det": mu_mixed_det(n(w.EXACT_M) - two_choice, two_choice, w.EXACT_M),
        "exact_bound_d3": mu_bound_d(n(w.EXACT_M), w.EXACT_M, 3),
        "exact_mixed_rand": mu_mixed_rand(n(w.MIXED_RAND_M), w.MIXED_RAND_M, w.MIXED_P),
        "exact_partitioned": mu_partitioned(n(w.PARTITIONED_M), w.PARTITIONED_M, w.PARTITIONED_BETA),
        "gamma_d2": gamma_mixed(alpha, 2.0),
        "gamma_mixed": gamma_mixed(alpha, w.MIXED_A),
        "gamma_partitioned_beta0.3": two_bank(alpha, w.PARTITIONED_BETA)[0],
        "sim_d2": mu_d2(n(w.SIM_M), w.SIM_M),
        "sim_mixed_rand": mu_mixed_rand(n(w.SIM_M), w.SIM_M, w.MIXED_P),
        "sim_partitioned": mu_partitioned(n(w.SIM_M), w.SIM_M, w.SIM_BETA),
        "sim_bound_d3": mu_bound_d(n(w.D3_M), w.D3_M, 3),
        "trace_stash_fraction_d2": 1 - mu_d2(n(w.TRACE_M), w.TRACE_M) / n(w.TRACE_M),
        "trace_stash_fraction_partitioned": 1 - mu_partitioned(n(w.TRACE_M), w.TRACE_M, 0.5) / n(w.TRACE_M),
    }
    print(json.dumps(refs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
