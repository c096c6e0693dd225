"""Exact expected maximum-matching sizes for finite random bipartite graphs.

Five graph models are covered, all with n left vertices (elements) and m
right vertices (bins):

* two uniform choices per element (``d2``),
* a fixed split between one-choice and two-choice elements (``mixed-det``),
* an independent coin per element between one and two choices
  (``mixed-rand``),
* bins split into two banks with one choice in each (``partitioned``),
* d >= 3 uniform choices, for which only an upper bound exists
  (``matching_upper_bound_d``).

Each expectation is an alternating-structure count: the expected matching
size equals m minus the expected number of components that strand one bin.
Those component counts are built from closed-form labeled-tree counts
(q! q^(s-2) / ((d-1)!)^s trees join s elements of d choices to q =
(d-1)s + 1 bins) and evaluated summand-by-summand in the log domain, then
accumulated with exact compensated summation, because adjacent summands
can differ by hundreds of orders of magnitude when n and m reach 1e5.
Each binomial and falling factorial is carried from one summand to the
next by the log of one exact ratio of integers, never formed as a
difference of log-gamma values near m ln m: below load 1/2 the stash is
an O(1/m) difference of O(m) summands, and those differences would leave
it mostly rounding error.  Each model yields its series one component
size s at a time, and one loop, :func:`_series`, sums all five and
applies the one stopping rule.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import exp, expm1, fsum, lgamma, log, log1p, perm, sqrt
from typing import Iterator, Optional

_NEG_INF = float("-inf")

# Summation is cut short once this many consecutive summands fall below
# TRUNCATION_EPS times the running total; the tail they dominate is far
# below double-precision resolution of the total.
TRUNCATION_RUN = 50
TRUNCATION_EPS = 1e-18

_INTEGRALITY_TOL = 1e-9

# Up to this many choices each step of a d-choice series is one exact ratio
# of integers of at most (d+2) log2(m) bits, a normal float for any m below
# 1e30; past it the integers, and the cost of a step, would grow with d.
_EXACT_D = 8


# ---------------------------------------------------------------------------
# model parameters


@dataclass(frozen=True)
class ModelParams:
    """Which graph model to evaluate or sample, and its dimensions.

    ``variant`` is one of ``"d2"``, ``"mixed-det"`` (with ``a``),
    ``"mixed-rand"`` (with ``p``), ``"partitioned"`` (with ``beta``) or
    ``"fixed-d"`` (with ``d``).  Use the classmethod constructors rather
    than filling fields by hand.
    """

    n: int
    m: int
    variant: str
    a: Optional[float] = None
    p: Optional[float] = None
    beta: Optional[float] = None
    d: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        # the series and the bank split take n and m as floats
        _require_float_range(self.n, "n")
        _require_float_range(self.m, "m")
        # so do the d-choice series the d*n choices that may avoid a
        # component, and the two-bank series the bank product m1*m2
        if self.variant == "d2":
            _require_float_range(2 * self.n, "d*n with d = 2")
        elif self.variant == "mixed-det":
            if self.a is None or not 1.0 <= self.a <= 2.0:
                raise ValueError("mixed-det requires a in [1, 2]")
            _require_float_range(self.a * self.n, "a*n")
            require_integral(self.a * self.n, "a*n")
        elif self.variant == "mixed-rand":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError("mixed-rand requires p in [0, 1]")
        elif self.variant == "partitioned":
            if self.beta is None or not 0.0 <= self.beta <= 1.0:
                raise ValueError("partitioned requires beta in [0, 1]")
            m1 = require_integral(self.beta * self.m, "beta*m")
            if not 0 < m1 < self.m:
                raise ValueError("beta*m leaves a bank empty; use asymptotic --model partitioned instead")
            _require_float_range(m1 * (self.m - m1), "beta*m * (m - beta*m)")
        elif self.variant == "fixed-d":
            if self.d is None or self.d < 2:
                raise ValueError("d must be >= 2")
            _require_float_range(self.d * self.n, f"d*n with d = {self.d}")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @classmethod
    def fixed2(cls, n: int, m: int) -> "ModelParams":
        return cls(n, m, "d2")

    @classmethod
    def mixed_det(cls, n: int, m: int, a: float) -> "ModelParams":
        return cls(n, m, "mixed-det", a=a)

    @classmethod
    def mixed_rand(cls, n: int, m: int, p: float) -> "ModelParams":
        return cls(n, m, "mixed-rand", p=p)

    @classmethod
    def partitioned(cls, n: int, m: int, beta: float) -> "ModelParams":
        return cls(n, m, "partitioned", beta=beta)

    @classmethod
    def fixed_d(cls, n: int, m: int, d: int) -> "ModelParams":
        return cls(n, m, "fixed-d", d=d)

    @property
    def two_choice_count(self) -> int:
        """Number of elements with two choices in the mixed-det model."""
        if self.variant != "mixed-det":
            raise ValueError("two_choice_count applies to mixed-det only")
        # derived from a*n, the value __post_init__ checked: the integrality
        # tolerance scales with the value, so the smaller (a-1)*n can fail
        # where a*n passed
        return require_integral(self.a * self.n, "a*n") - self.n

    @property
    def up_bank_size(self) -> int:
        """Bin count of the up bank in the partitioned model."""
        if self.variant != "partitioned":
            raise ValueError("up_bank_size applies to partitioned only")
        return require_integral(self.beta * self.m, "beta*m")


def _require_float_range(value: float, what: str) -> None:
    if value > sys.float_info.max:
        raise ValueError(f"{what} must be at most {sys.float_info.max:g}, the float range")


def require_integral(value: float, what: str) -> int:
    """Round ``value`` to the nearest integer, rejecting anything farther
    away than floating-point noise.  The exact formulas are only defined
    for whole vertex counts; silently rounding would change the model."""
    nearest = round(value)
    if abs(value - nearest) > _INTEGRALITY_TOL * max(1.0, abs(value)):
        raise ValueError(f"{what} = {value} is not an integer")
    return int(nearest)


@dataclass(frozen=True)
class ExactResult:
    """Outcome of one exact evaluation.

    ``terms`` is the evaluated series: entry s is the expected number of
    bins left unmatched by the tree components with s elements.
    ``truncated_at`` is the index s at which the sum was cut short, if it
    was.
    """

    mu: float
    stash_expected: float
    terms: tuple[float, ...] = field(repr=False, default=())
    truncated_at: Optional[int] = None


# ---------------------------------------------------------------------------
# summing the series


def _series(n: int, m: int, rows: Iterator[float]) -> ExactResult:
    """The first of ``rows``, the expected number of bins some element
    chooses, minus the rest, the expected number of bins stranded by the
    tree components with s = 1, 2, ... elements, clamped to [0, min(n, m)]:
    never m minus term 0 = m - (first row), which loses the chosen bins
    below an ulp of m.  The sum stops once TRUNCATION_RUN consecutive rows
    fall below TRUNCATION_EPS times the running total.
    """
    chosen = next(rows)
    terms = [m - chosen]
    running, tiny_run, truncated_at = terms[0], 0, None
    for s, term in enumerate(rows, 1):
        terms.append(term)
        running += term
        if term >= TRUNCATION_EPS * running:
            tiny_run = 0
        elif (tiny_run := tiny_run + 1) >= TRUNCATION_RUN:
            truncated_at = s
            break
    mu = min(max(chosen - fsum(terms[1:]), 0.0), float(min(n, m)))
    return ExactResult(mu=mu, stash_expected=n - mu, terms=tuple(terms), truncated_at=truncated_at)


# ---------------------------------------------------------------------------
# the exact expectations


def _deficit_rows(n: int, m: int, d: int, pool: int, p: float) -> Iterator[float]:
    """Expected number of bins some element chooses, then of bins stranded
    by the tree components with s d-choice elements and q = (d-1)s + 1
    bins, for s = 1, 2, ...

    ``pool`` of the n elements may have d choices, each independently with
    probability p; every other element has one.  Summand s is

        (q-s) C(pool,s) p^s C(m,q) (q/m)^(ds) conn(s,d) avoid(q/m):

    choose the component's s elements and q bins, confine their d choices
    to those bins, connect the shape, and keep every other element out of
    them.  With p = 1 the d-choice count is fixed and
    avoid(x) = (1-x)^(d(pool-s) + (n-pool)); otherwise pool = n, d = 2
    and each outside element avoids the bins with probability
    p(1-x)^2 + (1-p)(1-x), giving avoid(x) = [(1-x)(1-px)]^(n-s).  That
    second form is the binomial average of the first over the two-choice
    count, summed in closed form by C(n,k) C(k,s) = C(n,s) C(n-s,k-s).

    The connected shapes are the trees in which each of the s elements has
    d distinct neighbors among the q bins, q! q^(s-2) / ((d-1)!)^s of them
    (the Husimi graphs on q labeled vertices), each in (d!)^s orders of the
    choices, over the q^(ds) choice vectors, so
    conn(s,d) = d^s q! q^(s-2) / q^(ds) and summand s is

        m (dp)^s q^(s-2) avoid(q/m) * C(pool,s) (q-s) (m-1)...(m-q+1) / m^(ds).

    The log of the last factor, 0 at s = 0, moves from s-1 to s by the log
    of one exact ratio of integers.  So no summand's log is a difference of
    values near m ln m, and its rounding stays of the order of an ulp of
    the log itself.  Past d = _EXACT_D the d-1 new bins of each step are a
    log-gamma difference instead, which costs the same for any d.
    """
    fixed = p == 1.0
    log_dp = log(d * p) if p > 0.0 else 0.0  # the pool is empty when p = 0
    exact = d <= _EXACT_D
    md = m**d if exact else 0
    log_m = log(m)
    head = 0.0
    for s in range(min(pool, (m - 1) // (d - 1)) + 1):
        q = (d - 1) * s + 1
        e = d * (pool - s) + n - pool if fixed else n - s  # outside elements
        if q < m:
            x = q / m
            out = log1p(-x) if fixed else log1p(-x) + log1p(-p * x)
        else:  # the component holds every bin: nothing may lie outside
            out = _NEG_INF
        if not s:  # m minus summand 0, m (1 - 1/m)^e in d2, never formed from it
            yield -m * expm1(e * out) if e else 0.0
            continue
        # from s-1 to s: C(pool,s)/C(pool,s-1), the ratio of the (q-s)
        # factors, and the next d-1 bins of the falling factorial over m^d
        if exact:
            head += log((pool - s + 1) * (q - s) * perm(m - q + d - 1, d - 1) / (s * (q - s + 2 - d) * md))
        else:
            head += log((pool - s + 1) * (q - s) / (s * (q - s + 2 - d))) + lgamma(m - q + d) - lgamma(m - q + 1) - d * log_m
        yield m * exp(head + s * log_dp + (s - 2) * log(q) + (e * out if e else 0.0))


def expected_matching_d2(n: int, m: int) -> ExactResult:
    """Expected maximum matching size when every element draws two
    independent uniform bins.

    Equals m minus the expected number of components with q = s + 1: the
    sum over s of C(n,s) C(m,s+1) (1-(s+1)/m)^(2(n-s)) ((s+1)/m)^(2s)
    times the connection probability 2^s s! / (s+1)^(s+1).
    """
    ModelParams.fixed2(n, m)
    return _series(n, m, _deficit_rows(n, m, 2, n, 1.0))


def expected_matching_mixed_det(n: int, m: int, a: float) -> ExactResult:
    """Expected maximum matching size when (2-a)n elements draw one bin and
    (a-1)n draw two; a*n must be integral.  a = 2 reduces to
    :func:`expected_matching_d2`, a = 1 to m - m(1-1/m)^n.
    """
    params = ModelParams.mixed_det(n, m, a)
    return _series(n, m, _deficit_rows(n, m, 2, params.two_choice_count, 1.0))


def expected_matching_mixed_rand(n: int, m: int, p: float) -> ExactResult:
    """Expected maximum matching size when each element independently draws
    two bins with probability p, one otherwise: the fixed-split
    expectation averaged over the binomial two-choice count, as one series.
    """
    ModelParams.mixed_rand(n, m, p)
    pool = n if p > 0.0 else 0
    return _series(n, m, _deficit_rows(n, m, 2, pool, p))


def expected_matching_partitioned(n: int, m: int, beta: float) -> ExactResult:
    """Expected maximum matching size for the two-bank model: beta*m up
    bins, (1-beta)*m down bins, one uniform choice of each element in each
    bank.  beta*m must be integral and both banks non-empty (see
    :class:`ModelParams`); the asymptotic layer covers the trivial
    partitions beta in {0, 1}.
    """
    m1 = ModelParams.partitioned(n, m, beta).up_bank_size
    return _series(n, m, _partitioned_rows(n, m1, m - m1))


def _partitioned_rows(n: int, m1: int, m2: int) -> Iterator[float]:
    """Expected number of bins some element chooses, then of bins stranded
    by the two-bank tree components with s elements, for s = 1, ..., n:
    the sum of row s over the shapes with i up bins and j = s + 1 - i down
    bins."""
    # Summand (i, j) of row s is
    #   C(n,s) C(m1,i) C(m2,j) (1-i/m1)^(n-s) (1-j/m2)^(n-s) (i/m1)^s (j/m2)^s conn(i,j)
    # with conn(i,j) = i^(j-1) j^(i-1) s! / (i j)^s, so its log is
    #   row + log C(m1,i) + log C(m2,j) + (n-s) (log(1-i/m1) + log(1-j/m2))
    #   + (j-1) log i + (i-1) log j,   row = log[n (n-1) ... (n-s+1) / (m1 m2)^s].
    # The row factor moves from s-1 to s by the log of one exact ratio, as
    # the bank tables do (see _grow_bank).  partitioned_row_logs in
    # tests/oracles.py evaluates every summand with these operations in this
    # order, so each is the same double.  log 0 is set to 0: it only meets
    # a zero factor, in the shapes (0, 1) and (1, 0).
    choose1, out1, choose2, out2 = [0.0], [0.0], [0.0], [0.0]  # see _grow_bank
    log_k = [0.0, 0.0]  # log 0 set to 0, and log 1
    row = 0.0
    peak = 0
    _grow_bank(m1, choose1, out1, 1)
    _grow_bank(m2, choose2, out2, 1)
    # m minus row 0, whose shapes (0, 1) and (1, 0) are the single bins
    yield -m1 * expm1(n * out1[1]) - m2 * expm1(n * out2[1]) if n else 0.0
    for s in range(1, n + 1):
        # a shape with s elements needs a bin in each bank
        lo, hi = max(1, s + 1 - m2), min(s, m1)
        row += log((n - s + 1) / (m1 * m2))
        if lo > hi:  # s >= m: no shape has s + 1 bins
            yield 0.0
            continue
        # the row reads entries up to s
        _grow_bank(m1, choose1, out1, s)
        _grow_bank(m2, choose2, out2, s)
        log_k.extend(log(k) for k in range(len(log_k), s + 1))
        a = n - s
        if not a:  # s = n, the last row: 0^0 = 1
            out1, out2 = [0.0] * len(out1), [0.0] * len(out2)

        def log_term(i: int) -> float:
            j = s + 1 - i
            return row + choose1[i] + choose2[j] + a * (out1[i] + out2[j]) + (j - 1) * log_k[i] + (i - 1) * log_k[j]

        terms, peak = _sum_from_peak(log_term, lo, hi, min(max(peak, lo), hi))
        yield fsum(terms)


# A row of the two-bank series is cut on each side after this many
# consecutive summands more than _ROW_CUT nats below its peak: e^-60 ~ 1e-26,
# ten orders of magnitude below one ulp of the row sum.
_ROW_CUT = 60.0
_ROW_RUN = 3


def _grow_bank(mb: int, choose: list[float], out: list[float], top: int) -> None:
    """Extend log C(mb, k) and log1p(-k/mb) to every k up to min(top, mb).
    Each log C(mb, k) is the previous one plus log((mb-k+1)/k).  The lists
    grow with the rows, so a series cut after a few hundred rows costs a
    few hundred entries of a bank of 1e5 bins.  The log of 1 - mb/mb is
    -inf."""
    for k in range(len(choose), min(top, mb) + 1):
        choose.append(choose[-1] + log((mb - k + 1) / k))
        out.append(log1p(-(k / mb)) if k < mb else _NEG_INF)


def _sum_from_peak(log_term, lo: int, hi: int, start: int) -> tuple[list[float], int]:
    """exp of the summands of one row i in [lo, hi] that matter, and the
    index of the row's peak.

    Row s of the two-bank series is log-concave in i.  With j = s + 1 - i
    the connection count and the (i/m1)^s (j/m2)^s factors reduce to
    (j-1) log i + (i-1) log j + const, whose second derivative
    -1/i - s/i^2 - 1/j - s/j^2 is negative; log C(m1, i), log C(m2, j) and
    (n-s) log(1 - i/m1), (n-s) log(1 - j/m2) are concave too.  So each side
    of ``start`` rises to the peak at most once and then only falls.  Each
    side is walked outward from ``start`` once, keeping the largest summand
    seen as the peak, and is cut after _ROW_RUN consecutive summands more
    than _ROW_CUT below it: the rest of that side is lower still.  The peak
    seen only rises, so a side walked before the peak is reached is cut
    under a lower value, which keeps more terms, never fewer.
    """
    i, top = start, log_term(start)
    row = [exp(top)]
    for step, end in ((1, hi), (-1, lo)):
        k, run = start, 0
        while k != end and run < _ROW_RUN:
            k += step
            lt = log_term(k)
            row.append(exp(lt))
            if lt > top:
                i, top = k, lt
            run = run + 1 if lt < top - _ROW_CUT else 0
    return row, i


def matching_upper_bound_d(n: int, m: int, d: int) -> ExactResult:
    """Upper bound on the expected maximum matching size when every element
    draws d >= 2 uniform bins (with repetition); the bound is the result's
    ``mu``.

    Counts only the tree components with q = (d-1)s + 1 right vertices,
    each stranding q - s bins; other unmatched bins are ignored, so the
    result only bounds the expectation from above.  For d = 2 every
    unmatched bin lives in such a component and the bound collapses to
    :func:`expected_matching_d2` exactly.
    """
    ModelParams.fixed_d(n, m, d)
    return _series(n, m, _deficit_rows(n, m, d, n, 1.0))


def evaluate(params: ModelParams) -> ExactResult:
    """Dispatch to the exact evaluator matching ``params``.

    The fixed-d model with d > 2 has no exact formula, only
    :func:`matching_upper_bound_d`; asking for it here is an error.
    """
    if params.variant == "d2" or (params.variant == "fixed-d" and params.d == 2):
        return expected_matching_d2(params.n, params.m)
    if params.variant == "mixed-det":
        return expected_matching_mixed_det(params.n, params.m, params.a)
    if params.variant == "mixed-rand":
        return expected_matching_mixed_rand(params.n, params.m, params.p)
    if params.variant == "fixed-d":
        raise ValueError(
            "no exact expectation for d > 2; matching_upper_bound_d gives a bound"
        )
    return expected_matching_partitioned(params.n, params.m, params.beta)


# ---------------------------------------------------------------------------
# stash sizing and concentration


def stash_size_for_epsilon(n: int, m: int, epsilon: float) -> float:
    """Stash capacity sufficient to keep the overflow probability below
    ``epsilon`` in the two-choice model: the expected stash n - mu plus a
    sqrt(2 n ln(1/epsilon)) concentration margin.  Callers round up."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must be in (0, 1]")
    result = expected_matching_d2(n, m)
    # -log(epsilon) stays finite where 1/epsilon overflows (subnormal epsilon),
    # and the product with 2n, which can overflow, is rooted factor by factor
    margin = 2.0 * n * -log(epsilon)
    if margin > sys.float_info.max:
        return result.stash_expected + sqrt(2.0 * n) * sqrt(-log(epsilon))
    return result.stash_expected + sqrt(margin)


def concentration_tail_bound(lam: float, *, one_sided: bool = False) -> float:
    """Bound on the probability that a realization's matching size deviates
    from its expectation by more than lam * sqrt(n): 2 e^(-lam^2 / 2),
    halved for the one-sided event, clamped to 1."""
    if not lam >= 0:
        raise ValueError("lambda must be >= 0")
    factor = 1.0 if one_sided else 2.0
    return min(1.0, factor * exp(-lam * lam / 2.0))
