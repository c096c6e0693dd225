"""Independent brute-force oracles used across the test suite.

Nothing in here calls into cuckoo_lab: expectations are enumerated over
complete choice spaces with exact rational arithmetic, matchings are found
by backtracking on small graphs and by Hopcroft-Karp on large ones (the
reference for the package's one augmenting search), and
connected-structure counts come from direct
enumeration (plus an exhaustive-decomposition recursion for the two sizes
where direct enumeration is too large).  The two-bank limit is bisected in
50-digit decimal arithmetic.  The cuckoo table is kept in its plain form,
without search pruning, to compare layouts against, and the two-bank
exact series as the full double sum, to compare its peak-walk summation
against.  The two-choice and two-bank series are also summed in 40-digit
decimal arithmetic, the reference for the package's float sums where
the stash is a small difference of large sums.  Bin choices are derived
key by key from the pinned mix, as the reference for the package's
precomputed choice function, and seeded graphs word by word, one
rejection loop per choice, as the reference for the package's
block-mixed generator.  Component shapes are read off a
union-find over the bins, taking the matching they count from the caller.
"""

from __future__ import annotations

import collections
import decimal
import itertools
import math
from collections import deque
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence


class DSU:
    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def brute_max_matching(choices, m) -> int:
    """Maximum matching size by backtracking over left-vertex assignments."""
    n = len(choices)
    best = 0

    used = [False] * m

    def rec(u: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if u == n or size + (n - u) <= best:
            return
        rec(u + 1, size)
        for v in set(choices[u]):
            if not used[v]:
                used[v] = True
                rec(u + 1, size + 1)
                used[v] = False

    rec(0, 0)
    return best


def _mean_matching(vector_spaces, m) -> Fraction:
    total = 0
    count = 0
    for vector in itertools.product(*vector_spaces):
        total += brute_max_matching(vector, m)
        count += 1
    return Fraction(total, count)


def enumerate_expected_mu_d2(n: int, m: int) -> Fraction:
    """Mean maximum matching over all m^(2n) ordered two-choice vectors."""
    pair_space = [(v1, v2) for v1 in range(m) for v2 in range(m)]
    return _mean_matching([pair_space] * n, m)


def enumerate_expected_mu_degrees(degrees, m) -> Fraction:
    """Mean maximum matching with a fixed per-vertex degree pattern in {1, 2}."""
    spaces = []
    for deg in degrees:
        if deg == 1:
            spaces.append([(v,) for v in range(m)])
        elif deg == 2:
            spaces.append([(v1, v2) for v1 in range(m) for v2 in range(m)])
        else:
            raise ValueError(deg)
    return _mean_matching(spaces, m)


def enumerate_expected_mu_mixed_det(n: int, m: int, d2: int) -> Fraction:
    """Mean over all degree assignments with d2 two-choice vertices and over
    all choice vectors."""
    acc = Fraction(0)
    assignments = list(itertools.combinations(range(n), d2))
    for two_set in assignments:
        degrees = [2 if u in two_set else 1 for u in range(n)]
        acc += enumerate_expected_mu_degrees(degrees, m)
    return acc / len(assignments)


def enumerate_expected_mu_mixed_rand(n: int, m: int, p: Fraction) -> Fraction:
    """Mean over the 2^n degree patterns weighted by p per two-choice vertex."""
    acc = Fraction(0)
    for pattern in itertools.product((1, 2), repeat=n):
        weight = Fraction(1)
        for deg in pattern:
            weight *= p if deg == 2 else 1 - p
        if weight:
            acc += weight * enumerate_expected_mu_degrees(pattern, m)
    return acc


def binomial_mixture(n: int, p: Fraction, value_at) -> float:
    """Average of ``value_at(k)`` over k ~ Binomial(n, p), with exact weights."""
    weights = [comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    return math.fsum(float(w) * value_at(k) for k, w in enumerate(weights) if w)


def enumerate_expected_mu_partitioned(n: int, m1: int, m2: int) -> Fraction:
    """Mean maximum matching with one choice in [0, m1) and one in [m1, m1+m2)."""
    space = [(u, m1 + v) for u in range(m1) for v in range(m2)]
    return _mean_matching([space] * n, m1 + m2)


# ---------------------------------------------------------------------------
# connected-structure counts


def _is_connected(num_left: int, num_right: int, edges) -> bool:
    total = num_left + num_right
    if total == 1:
        return True
    dsu = DSU(total)
    for u, v in edges:
        dsu.union(u, num_left + v)
    root = dsu.find(0)
    return all(dsu.find(x) == root for x in range(1, total))


def count_connected_pairs_d2(s: int) -> int:
    """Connected graphs on s left / s+1 right vertices, each left vertex an
    unordered pair of distinct right vertices.  Direct enumeration."""
    if s == 0:
        return 1
    q = s + 1
    pairs = list(itertools.combinations(range(q), 2))
    count = 0
    for assignment in itertools.product(pairs, repeat=s):
        edges = [(u, v) for u, pair in enumerate(assignment) for v in pair]
        if _is_connected(s, q, edges):
            count += 1
    return count


def count_connected_d2_by_decomposition(s: int) -> int:
    """Same count as :func:`count_connected_pairs_d2`, via the exhaustive
    component decomposition: every graph splits uniquely into the component
    of right vertex 0 and a graph on the rest, which inverts to a recursion
    for the connected counts.  Used where direct enumeration is too big;
    agrees with direct enumeration on all small sizes."""
    q_top = s + 1

    def a_total(s_: int, q_: int) -> int:
        return comb(q_, 2) ** s_

    table: dict[tuple[int, int], int] = {}

    def t_conn(s_: int, q_: int) -> int:
        if q_ == 0:
            return 0
        key = (s_, q_)
        if key in table:
            return table[key]
        total = a_total(s_, q_)
        for s1 in range(s_ + 1):
            for q1 in range(1, q_ + 1):
                if (s1, q1) == (s_, q_):
                    continue
                total -= (
                    comb(s_, s1)
                    * comb(q_ - 1, q1 - 1)
                    * t_conn(s1, q1)
                    * a_total(s_ - s1, q_ - q1)
                )
        table[key] = total
        return total

    return t_conn(s, q_top)


def count_connected_ordered_d2(s: int) -> tuple[int, int]:
    """(connected, total) over all ordered two-choice assignments on s left /
    s+1 right vertices; repeats allowed, so parallel edges occur."""
    q = s + 1
    if s == 0:
        return 1, 1
    count = 0
    total = 0
    values = range(q)
    for assignment in itertools.product(values, repeat=2 * s):
        edges = [(u, assignment[2 * u + k]) for u in range(s) for k in (0, 1)]
        total += 1
        if _is_connected(s, q, edges):
            count += 1
    return count, total


def count_connected_partitioned(i: int, j: int) -> int:
    """Connected two-bank graphs: i up, j down vertices, i+j-1 left vertices
    each with one edge into every bank."""
    s = i + j - 1
    if s == 0:
        return 1
    if i == 0 or j == 0:
        return 0
    options = [(u, i + v) for u in range(i) for v in range(j)]
    count = 0
    for assignment in itertools.product(options, repeat=s):
        edges = [(u, v) for u, pair in enumerate(assignment) for v in pair]
        if _is_connected(s, i + j, edges):
            count += 1
    return count


def count_connected_general(s: int, d: int) -> int:
    """Connected graphs on s left / (d-1)s+1 right vertices, each left
    vertex a d-subset of the right side."""
    q = (d - 1) * s + 1
    if s == 0:
        return 1
    subsets = list(itertools.combinations(range(q), d))
    count = 0
    for assignment in itertools.product(subsets, repeat=s):
        edges = [(u, v) for u, sub in enumerate(assignment) for v in sub]
        if _is_connected(s, q, edges):
            count += 1
    return count


def log_connect(s: int, d: int) -> float:
    """ln of the probability that the d uniform choices of s elements,
    confined to the q = (d-1)s + 1 bins of a component, connect it: the
    Husimi count q! / ((d-1)!)^s q^(s-2) times the (d!)^s orders of each
    element's choices, over the q^(ds) choice vectors.  For d = 2 that is
    2^s s! / (s+1)^(s+1)."""
    if s == 0:
        return 0.0
    q = (d - 1) * s + 1
    husimi = math.lgamma(q + 1) - s * math.lgamma(d) + (s - 2) * math.log(q)
    return s * math.lgamma(d + 1) + husimi - d * s * math.log(q)


def tree_count(s: int, d: int) -> float:
    """The closed-form count of the trees in which each of s elements has d
    distinct neighbors among q = (d-1)s + 1 labeled bins: the probability
    of :func:`log_connect` times the q^(ds) choice vectors it is taken
    over, divided by the (d!)^s orders of each element's choices."""
    q = (d - 1) * s + 1
    return math.exp(log_connect(s, d)) * q ** (d * s) / math.factorial(d) ** s


# ---------------------------------------------------------------------------
# mixed-choice limit


def mixed_gamma(alpha: float, a: float) -> float:
    """Limit matching fraction with mean a in (1, 2) choices per element,
    1/alpha + w/(2 alpha^2 (a-1)) + w^2/(4 alpha^2 (a-1)) with
    w = W0(-2 alpha (a-1) e^(-a alpha)), in 60-digit decimal arithmetic.

    The argument lies in (-1/e, 0), so W0 is found by bisecting w e^w,
    increasing on [-1, 0].  The formula cancels about log10(1/alpha)
    digits, which sixty digits leave far below double precision.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        al, a = Decimal(alpha), Decimal(a)
        x = -2 * al * (a - 1) * (-a * al).exp()
        lo, hi = Decimal(-1), Decimal(0)
        for _ in range(220):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid * mid.exp() < x else (lo, mid)
        denom2 = 2 * al * al * (a - 1)
        return float(1 / al + lo / denom2 + lo * lo / (2 * denom2))


# ---------------------------------------------------------------------------
# two-bank limit


def two_bank_gamma(alpha: float, beta: float) -> float:
    """Two-bank limit matching fraction, for alpha^2 > beta(1-beta), from
    the smallest root t1 of t = X exp(Y e^t), X = alpha/(1-beta)
    e^(-alpha/beta), Y = alpha/beta e^(-alpha/(1-beta)), found by
    bisection in 50-digit decimal arithmetic.

    f(t) = t - X exp(Y e^t) is concave with f(0) < 0, and the closed-form
    root alpha/(1-beta) is its larger root, so bisecting f' on
    [0, alpha/(1-beta)] finds the maximum of f and bisecting f left of it
    finds the smallest root.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        # e^t2 outgrows the default exponent range when beta is tiny
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        a, b = Decimal(alpha), Decimal(beta)
        x = a / (1 - b) * (-a / b).exp()
        y = a / b * (-a / (1 - b)).exp()

        def last_true(pred, lo, hi):
            # pred holds at lo and fails at hi
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if pred(mid) else (lo, mid)
            return lo

        def slope_positive(t):
            t2 = y * t.exp()
            return x * t2.exp() * t2 < 1

        peak = last_true(slope_positive, Decimal(0), a / (1 - b))
        t1 = last_true(lambda t: t < x * (y * t.exp()).exp(), Decimal(0), peak)
        t2 = y * t1.exp()
        return float(1 / a - b * (1 - b) / (a * a) * (t1 + t2 - t1 * t2))


# ---------------------------------------------------------------------------
# two-bank exact series


def _running_log_binomials(n: int, top: int) -> list[float]:
    # log C(n, k) for k = 0 .. min(top, n), each the one before plus
    # log((n-k+1)/k)
    logs = [0.0]
    for k in range(1, min(top, n) + 1):
        logs.append(logs[-1] + math.log((n - k + 1) / k))
    return logs


def _log1m(x: float) -> float:
    return math.log1p(-x) if x < 1.0 else float("-inf")


def _log_connect_probability_partitioned(i: int, j: int) -> float:
    # i^(j-1) j^(i-1) (i+j-1)! connected shapes over (i j)^(i+j-1) choice vectors
    if (i, j) in ((1, 0), (0, 1)):
        return 0.0
    if i == 0 or j == 0:
        return float("-inf")
    lt = (j - 1) * math.log(i) + (i - 1) * math.log(j) + math.lgamma(i + j)
    return lt - (i + j - 1) * (math.log(i) + math.log(j))


def partitioned_row_logs(n: int, m1: int, m2: int, s: int) -> list[float]:
    """ln of every summand of row s of the two-bank series, in order of the
    up-bank size i of the shape, skipping shapes that cannot connect.

    Summand (i, j) is C(n,s) C(m1,i) C(m2,j) (1-i/m1)^(n-s) (1-j/m2)^(n-s)
    (i/m1)^s (j/m2)^s times the connection probability
    i^(j-1) j^(i-1) s! / (i j)^s of :func:`_log_connect_probability_partitioned`.
    Its log is evaluated as
    row + log C(m1,i) + log C(m2,j) + (n-s) (log(1-i/m1) + log(1-j/m2))
    + (j-1) log i + (i-1) log j, with row = log[n!/(n-s)! / (m1 m2)^s] and
    each binomial built up one exact ratio at a time: the operations, in
    the order, of the package, so every summand is the same double."""
    row = 0.0
    for t in range(1, s + 1):
        row += math.log((n - t + 1) / (m1 * m2))
    choose1 = _running_log_binomials(m1, s + 1)
    choose2 = _running_log_binomials(m2, s + 1)
    logs: list[float] = []
    for i in range(max(0, s + 1 - m2), min(s + 1, m1) + 1):
        j = s + 1 - i
        if s and not i * j:  # no bin in one bank: the shape cannot connect
            continue
        avoid = (n - s) * (_log1m(i / m1) + _log1m(j / m2)) if n > s else 0.0
        log_i = math.log(i) if i else 0.0  # log 0 only meets a zero factor
        log_j = math.log(j) if j else 0.0
        logs.append(row + choose1[i] + choose2[j] + avoid + (j - 1) * log_i + (i - 1) * log_j)
    return logs


def partitioned_series_full(n: int, m1: int, m2: int):
    """The two-bank series summed over every summand of every row: returns
    (mu, terms, truncated_at) as ``expected_matching_partitioned`` reports
    them, with the same stopping rule (50 consecutive row sums below 1e-18
    of the running total) and the same clamp of mu to [0, min(n, m)].
    Row 0, the single bins, enters as its complement, the expected number
    of bins some element chooses, -mb expm1(n log(1 - 1/mb)) per bank, and
    mu is that count minus the rows s >= 1."""
    m = m1 + m2
    chosen = sum(-mb * math.expm1(n * _log1m(1 / mb)) if n else 0.0 for mb in (m1, m2))
    terms: list[float] = [m - chosen]
    running, tiny_run, truncated_at = terms[0], 0, None
    for s in range(1, n + 1):
        term = math.fsum(math.exp(lt) for lt in partitioned_row_logs(n, m1, m2, s) if lt != float("-inf"))
        terms.append(term)
        running += term
        if term < 1e-18 * running:
            tiny_run += 1
            if tiny_run >= 50:
                truncated_at = s
                break
        else:
            tiny_run = 0
    mu = min(max(chosen - math.fsum(terms[1:]), 0.0), float(min(n, m)))
    return mu, tuple(terms), truncated_at


# ---------------------------------------------------------------------------
# the exact series at 40 digits


def deficit_stash_decimal(n: int, m: int, d: int = 2, digits: int = 40) -> Decimal:
    """n - m plus the expected number of bins stranded by the tree
    components with s elements of d choices and q = (d-1)s + 1 bins, summed
    over s in ``digits``-digit decimal arithmetic: the expected stash for
    d = 2, and n minus the d-choice bound otherwise.

    Summand s is (q-s) C(n,s) C(m,q) (q/m)^(ds) (1-q/m)^(d(n-s)) times the
    connection probability of :func:`log_connect`, which is
    (q-s) C(n,s) m(m-1)...(m-q+1) d^s q^(s-2) / m^(ds) (1-q/m)^(d(n-s)).
    The sum stops after 20 consecutive summands below 10^-digits of the
    total."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        factor = Decimal(m)  # C(n,s) m(m-1)...(m-q+1) / m^(ds)
        tiny = 0
        for s in range(min(n, (m - 1) // (d - 1)) + 1):
            q = (d - 1) * s + 1
            if s:
                factor = factor * ((n - s + 1) * math.perm(m - q + d - 1, d - 1)) / (s * m**d)
            outside = d * (n - s)
            avoid = ((1 - Decimal(q) / m).ln() * outside).exp() if outside else Decimal(1)
            term = (q - s) * factor * Decimal(d) ** s * Decimal(q) ** (s - 2) * avoid
            total += term
            tiny = tiny + 1 if term < total.scaleb(-digits) else 0
            if tiny == 20:
                break
        return n - m + total


def partitioned_stash_decimal(n: int, m1: int, m2: int, digits: int = 40) -> Decimal:
    """n - m plus the two-bank series, every summand of every row summed in
    ``digits``-digit decimal arithmetic: the expected stash.

    Summand (i, j) of row s >= 1 is C(n,s) C(m1,i) C(m2,j)
    (1-i/m1)^(n-s) (1-j/m2)^(n-s) (i/m1)^s (j/m2)^s times the connection
    probability i^(j-1) j^(i-1) s! / (i j)^s; row 0 is the single bins,
    m1 (1-1/m1)^n + m2 (1-1/m2)^n.  Summands are exp of their logs, and the
    sum stops after 20 consecutive rows below 10^-digits of the total."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        one = Decimal(1)
        log_k = [None]  # log 0 is never read
        choose1, out1, choose2, out2 = [Decimal(0)], [Decimal(0)], [Decimal(0)], [Decimal(0)]

        def grow(mb, choose, out, top):
            for k in range(len(choose), min(top, mb) + 1):
                choose.append(choose[-1] + Decimal(mb - k + 1).ln() - log_k[k])
                out.append((one - Decimal(k) / mb).ln() if k < mb else Decimal("-Infinity"))

        total = m1 * (one - one / m1) ** n + m2 * (one - one / m2) ** n
        row_log, tiny = Decimal(0), 0
        for s in range(1, min(n, m1 + m2 - 1) + 1):
            log_k.extend(Decimal(k).ln() for k in range(len(log_k), s + 1))
            grow(m1, choose1, out1, s)
            grow(m2, choose2, out2, s)
            row_log += Decimal(n - s + 1).ln() - Decimal(m1 * m2).ln()
            row = Decimal(0)
            for i in range(max(1, s + 1 - m2), min(s, m1) + 1):
                j = s + 1 - i
                lt = row_log + choose1[i] + choose2[j] + (j - 1) * log_k[i] + (i - 1) * log_k[j]
                if n > s:
                    lt += (n - s) * (out1[i] + out2[j])
                row += lt.exp()
            total += row
            tiny = tiny + 1 if row < total.scaleb(-digits) else 0
            if tiny == 20:
                break
        return n - m1 - m2 + total


# ---------------------------------------------------------------------------
# component shapes of a sampled graph


class Component(NamedTuple):
    s: int  # keys
    q: int  # bins
    edges: int  # choices of its keys, repeats included
    matched: int  # its keys that the given matching places


def component_shapes(choices, m, matched) -> list[Component]:
    """Shapes of the components of the cuckoo graph, whose vertices are the
    m bins and whose (hyper)edges are the keys' choice lists, in order of
    their smallest bin, then one (1, 0, 0, 0) per key with no choice.
    ``matched`` gives each key's bin or None under a maximum matching of
    the whole graph, whose restriction to a component is maximum there."""
    dsu = DSU(m)
    for row in choices:
        for v in row[1:]:
            dsu.union(row[0], v)
    shapes: dict[int, list[int]] = {}
    for v in range(m):
        shapes.setdefault(dsu.find(v), [0, 0, 0, 0])[1] += 1
    loose = []
    for row, bin_ in zip(choices, matched):
        if not row:
            loose.append(Component(1, 0, 0, 0))
            continue
        shape = shapes[dsu.find(row[0])]
        shape[0] += 1
        shape[2] += len(row)
        shape[3] += bin_ is not None
    return [Component(*shape) for shape in shapes.values()] + loose


# ---------------------------------------------------------------------------
# maximum matching at realistic sizes


def hopcroft_karp_matching(choices, m) -> tuple[int, tuple]:
    """Maximum matching by Hopcroft-Karp, scanning each key's distinct
    choices in ascending order: the matching size and, per key, its bin
    or None."""
    adj = [sorted(set(row)) for row in choices]
    match_l, _ = hopcroft_karp(adj, len(choices), m)
    matched = tuple(v if v >= 0 else None for v in match_l)
    return sum(v is not None for v in matched), matched


def hopcroft_karp(adj: Sequence[Sequence[int]], n: int, m: int) -> tuple[list[int], list[int]]:
    INF = float("inf")
    match_l = [-1] * n
    match_r = [-1] * m
    dist = [0.0] * n

    while True:
        # BFS phase: layer left vertices by alternating distance from the
        # free ones; `found` is the length of the shortest augmenting path.
        queue: deque[int] = deque()
        for u in range(n):
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            du = dist[u]
            if du >= found:
                continue
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    if found == INF:
                        found = du + 1
                elif dist[w] == INF:
                    dist[w] = du + 1
                    queue.append(w)
        if found == INF:
            return match_l, match_r

        # DFS phase: augment along vertex-disjoint shortest paths, taking
        # the lowest-index branch first.  Iterative so path length is not
        # limited by the interpreter recursion cap.
        for u0 in range(n):
            if match_l[u0] >= 0:
                continue
            # frame: (left vertex, remaining adjacency iterator, right
            # vertex through which the frame was entered)
            stack = [(u0, iter(adj[u0]), -1)]
            while stack:
                u, edges, _ = stack[-1]
                descended = False
                for v in edges:
                    w = match_r[v]
                    if w < 0:
                        if dist[u] + 1 == found:
                            # flip the alternating path recorded in the stack
                            us = [f[0] for f in stack]
                            vs = [f[2] for f in stack[1:]] + [v]
                            for uu, vv in zip(us, vs):
                                match_l[uu] = vv
                                match_r[vv] = uu
                            stack.clear()
                            descended = True
                            break
                    elif dist[w] == dist[u] + 1:
                        stack.append((w, iter(adj[w]), v))
                        descended = True
                        break
                if not descended:
                    dist[u] = INF
                    stack.pop()


# ---------------------------------------------------------------------------
# bin choices

_MASK64 = (1 << 64) - 1


def wang_mix64(x: int) -> int:
    """Wang's 64-bit integer mix, every step reduced modulo 2^64."""
    x &= _MASK64
    x = (~x + (x << 21)) & _MASK64
    x ^= x >> 24
    x = (x + (x << 3) + (x << 8)) & _MASK64
    x ^= x >> 14
    x = (x + (x << 2) + (x << 4)) & _MASK64
    x ^= x >> 28
    x = (x + (x << 31)) & _MASK64
    return x


def _unxorshift(x: int, shift: int) -> int:
    # y = x ^ (x >> shift) fixes the top shift bits of x, and each pass
    # fixes the next shift bits below them
    y = x
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def wang_unmix64(x: int) -> int:
    """The inverse of :func:`wang_mix64` on [0, 2^64): its steps undone in
    reverse order, each product by the inverse of its odd constant modulo
    2^64 and each xor-shift by repeated substitution."""
    x &= _MASK64
    x = (x * pow(1 + (1 << 31), -1, 1 << 64)) & _MASK64
    x = _unxorshift(x, 28)
    x = (x * pow(1 + (1 << 2) + (1 << 4), -1, 1 << 64)) & _MASK64
    x = _unxorshift(x, 14)
    x = (x * pow(1 + (1 << 3) + (1 << 8), -1, 1 << 64)) & _MASK64
    x = _unxorshift(x, 24)
    # ~x + (x << 21) is x * (2^21 - 1) - 1
    return ((x + 1) * pow((1 << 21) - 1, -1, 1 << 64)) & _MASK64


def _reduce(value: int, lo: int, span: int) -> int:
    # re-mix while the value falls in the truncated residue of the 2^64 range
    threshold = (1 << 64) - ((1 << 64) % span)
    while value >= threshold:
        value = wang_mix64(value)
    return lo + value % span


def reference_bin_choices(key, seeds, m, d, partition_boundary=None) -> tuple[int, ...]:
    """Choice i is wang_mix64(key XOR seeds[i]) reduced into [0, m), or
    with a boundary into [0, boundary) for choice 0 and [boundary, m) for
    choice 1; the threshold is recomputed for every choice."""
    key &= _MASK64
    if partition_boundary is None:
        return tuple(_reduce(wang_mix64(key ^ seeds[i]), 0, m) for i in range(d))
    return (
        _reduce(wang_mix64(key ^ seeds[0]), 0, partition_boundary),
        _reduce(wang_mix64(key ^ seeds[1]), partition_boundary, m - partition_boundary),
    )


# ---------------------------------------------------------------------------
# seeded graphs, drawn word by word

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


class ReferenceSplitMix64:
    """splitmix64 one word at a time, and each draw below a bound by its
    own rejection loop."""

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    def next_u64(self) -> int:
        self.state = z = (self.state + _SPLITMIX_GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        threshold = (1 << 64) - (1 << 64) % bound
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % bound


def reference_graph_choices(variant, n, m, state, *, d=2, one_choice=0, p=0.0, up_bank=0):
    """(choices, final generator state) of one graph, one below() call per
    choice: d choices per key in key order (d2, fixed-d); ``one_choice``
    one-choice keys first, then two-choice keys (mixed-det); a raw coin
    word for every key first, two choices when it is below round(p 2^64)
    and one otherwise, then each key's choices in key order (mixed-rand);
    every key's choice in [0, up_bank) first, then every key's choice in
    [up_bank, m) (partitioned)."""
    rng = ReferenceSplitMix64(state)
    if variant in ("d2", "fixed-d"):
        rows = [tuple(rng.below(m) for _ in range(d)) for _ in range(n)]
    elif variant == "mixed-det":
        rows = [(rng.below(m),) for _ in range(one_choice)]
        rows += [(rng.below(m), rng.below(m)) for _ in range(n - one_choice)]
    elif variant == "mixed-rand":
        coin = min(1 << 64, max(0, round(p * (1 << 64))))
        two = [rng.next_u64() < coin for _ in range(n)]
        rows = [tuple(rng.below(m) for _ in range(1 + t)) for t in two]
    elif variant == "partitioned":
        up = [rng.below(up_bank) for _ in range(n)]
        rows = [(u, up_bank + rng.below(m - up_bank)) for u in up]
    else:
        raise ValueError(variant)
    return tuple(rows), rng.state


# ---------------------------------------------------------------------------
# cuckoo table


class ReferenceCuckooTable:
    """The cuckoo table without search pruning: a remove retries a full
    breadth-first search from every stashed key, rehashing it, and the
    stash is a list.  ``choices_of`` maps a key to its bin choices, so the
    reference shares the hashing of the table it is compared against and
    nothing else.  ``stats`` holds the same counters as ``TableStats``.
    """

    def __init__(self, m, choices_of) -> None:
        self.choices_of = choices_of
        self.bins = [None] * m  # (key, choices) or None
        self.stash: list = []
        self.where: dict = {}  # key -> bin, or -1 in the stash
        self.stats = dict(placed=0, displacements=0, stash_peak=0)

    def insert(self, key):
        if key in self.where:
            raise ValueError(f"key {key} already stored")
        choices = self.choices_of(key)
        b = self._place(choices)
        if b is None:
            self.stash.append(key)
            self.where[key] = -1
            self.stats["stash_peak"] = max(self.stats["stash_peak"], len(self.stash))
            return None
        self.bins[b] = (key, choices)
        self.where[key] = b
        self.stats["placed"] += 1
        return b

    def _place(self, choices):
        bins = self.bins
        roots, seen = [], set()
        for b in choices:
            if b in seen:
                continue
            if bins[b] is None:
                return b
            seen.add(b)
            roots.append(b)
        parent = {}
        queue = collections.deque(roots)
        empty = None
        while queue and empty is None:
            b = queue.popleft()
            for nb in bins[b][1]:
                if nb in seen:
                    continue
                seen.add(nb)
                parent[nb] = b
                if bins[nb] is None:
                    empty = nb
                    break
                queue.append(nb)
        if empty is None:
            return None
        dst = empty
        while dst in parent:
            src = parent[dst]
            bins[dst] = bins[src]
            self.where[bins[dst][0]] = dst
            self.stats["displacements"] += 1
            dst = src
        bins[dst] = None
        return dst

    def remove(self, key):
        loc = self.where.pop(key, None)
        if loc is None:
            return False
        if loc == -1:
            self.stash.remove(key)
        else:
            self.bins[loc] = None
            self.stats["placed"] -= 1
        for stashed in list(self.stash):
            choices = self.choices_of(stashed)
            b = self._place(choices)
            if b is not None:
                self.stash.remove(stashed)
                self.bins[b] = (stashed, choices)
                self.where[stashed] = b
                self.stats["placed"] += 1
        return True

    def lookup(self, key):
        """(found, in_stash, bin), probing the bins then the stash."""
        for b in self.choices_of(key):
            slot = self.bins[b]
            if slot is not None and slot[0] == key:
                return True, False, b
        if key in self.stash:
            return True, True, None
        return False, False, None
