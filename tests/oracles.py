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
against.
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
from typing import Sequence


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


def _log_binomial(n: int, k: int) -> float:
    if k < 0 or k > n:
        return float("-inf")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _log_pow(base: float, exponent: float) -> float:
    # exponent * ln(base) with the empty-product convention 0^0 = 1
    if exponent == 0:
        return 0.0
    if base <= 0.0:
        return float("-inf")
    return exponent * math.log(base)


def _log_pow1m(x: float, exponent: float) -> float:
    # exponent * ln(1 - x), same 0^0 convention, accurate for small x
    if exponent == 0:
        return 0.0
    if x >= 1.0:
        return float("-inf")
    return exponent * math.log1p(-x)


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
    up-bank size i of the shape, skipping shapes that cannot connect."""
    log_elements = _log_binomial(n, s)
    b1 = max(0, s + 1 - m2)
    b2 = min(s + 1, m1)
    row: list[float] = []
    for i in range(b1, b2 + 1):
        j = s + 1 - i
        lp = _log_connect_probability_partitioned(i, j)
        if lp == float("-inf"):
            continue
        lt = (
            log_elements
            + _log_binomial(m1, i)
            + _log_binomial(m2, j)
            + _log_pow1m(i / m1, n - s)
            + _log_pow1m(j / m2, n - s)
            + _log_pow(i / m1, s)
            + _log_pow(j / m2, s)
            + lp
        )
        row.append(lt)
    return row


def partitioned_series_full(n: int, m1: int, m2: int, *, truncate: bool = True):
    """The two-bank series summed over every summand of every row: returns
    (mu, terms, truncated_at) as ``expected_matching_partitioned`` reports
    them, with the same stopping rule (50 consecutive row sums below 1e-18
    of the running total) and the same clamp of mu to [0, min(n, m)]."""
    m = m1 + m2
    terms: list[float] = []
    running, tiny_run, truncated_at = 0.0, 0, None
    for s in range(n + 1):
        term = math.fsum(math.exp(lt) for lt in partitioned_row_logs(n, m1, m2, s) if lt != float("-inf"))
        terms.append(term)
        if truncate:
            running += term
            if term < 1e-18 * running:
                tiny_run += 1
                if tiny_run >= 50:
                    truncated_at = s
                    break
            else:
                tiny_run = 0
    mu = min(max(m - math.fsum(terms), 0.0), float(min(n, m)))
    return mu, tuple(terms), truncated_at


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
        self.stats = dict(placed=0, stashed=0, displacements=0, stash_peak=0)

    def insert(self, key):
        if key in self.where:
            raise ValueError(f"key {key} already stored")
        choices = self.choices_of(key)
        b = self._place(choices)
        if b is None:
            self.stash.append(key)
            self.where[key] = -1
            st = self.stats
            st["stashed"] = len(self.stash)
            st["stash_peak"] = max(st["stash_peak"], st["stashed"])
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
        self.stats["stashed"] = len(self.stash)
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
