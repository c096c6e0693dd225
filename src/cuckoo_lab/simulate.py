"""Seeded random-graph generation and Monte-Carlo estimation.

Randomness comes from a 64-bit counter generator specified bit-exactly
(the splitmix64 update), so identical seeds give identical graphs on any
platform.  Trials derive independent generator states from (seed, trial
index) and may therefore run in parallel; aggregation works on exact
integer sums, making every reported statistic independent of execution
order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from math import sqrt
from typing import Callable, Union

from .exact import ModelParams, evaluate, concentration_tail_bound
from .matching import BipartiteGraph, max_matching, mu_via_deficit

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

THREADS_ENV_VAR = "CUCKOO_LAB_THREADS"


def mix64(z: int) -> int:
    """The splitmix64 output permutation; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64: state += golden gamma, output mix64(state).

    Distinct states yield distinct outputs within one stream (the output
    map is a bijection of the counter), which some callers rely on to get
    provably distinct synthetic keys.
    """

    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection so no residue of the
        2^64 range is favored."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % bound

    def draws(self, bound: int, count: int) -> list[int]:
        """The values of ``count`` successive ``below(bound)`` calls, in
        order, with the state left where they would leave it: one loop
        with the threshold worked out once, :func:`mix64` inlined and the
        state kept in a local.  A single draw is cheaper through
        ``below``."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        state = self.state
        out = [0] * count
        for i in range(count):
            while True:
                state = (state + _GOLDEN) & _MASK64
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 31
                if z < threshold:
                    break
            out[i] = z % bound
        self.state = state
        return out


@dataclass(frozen=True)
class RngSeed:
    """Root of a family of per-trial generator states.

    Trial ``t`` uses the state mix64(seed XOR mix64(stream + t + 1)):
    injective in the trial index for a fixed seed (and in the seed for a
    fixed trial), so derived states never collide within a run.
    """

    seed: int
    stream: int = 0

    def derive(self, index: int) -> SplitMix64:
        return SplitMix64(mix64(self.seed ^ mix64(self.stream + index + 1)))


def probability_threshold(p: float) -> int:
    """p mapped onto the 64-bit comparison scale, exact at 0 and 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return min(1 << 64, max(0, round(p * (1 << 64))))


def gen_graph(params: ModelParams, rng: SplitMix64) -> BipartiteGraph:
    """Draw one random bipartite graph of the given model.

    Choice draws happen vertex by vertex in index order, so a graph is a
    pure function of (params, generator state).  Two-choice draws may
    repeat a bin (parallel edges); the two-bank model draws one bin in
    each bank.  In the mixed-det model the one-choice elements are the
    first ones, which costs no generality: labels are exchangeable.
    """
    n, m = params.n, params.m
    variant = params.variant

    if variant == "d2":
        flat = rng.draws(m, 2 * n)
        choices = tuple(zip(flat[::2], flat[1::2]))
    elif variant == "mixed-det":
        d1 = params.one_choice_count
        flat = rng.draws(m, 2 * n - d1)
        choices = tuple((v,) for v in flat[:d1]) + tuple(zip(flat[d1::2], flat[d1 + 1 :: 2]))
    elif variant == "mixed-rand":
        assert params.p is not None
        threshold = probability_threshold(params.p)
        rows = []
        for _ in range(n):
            # two choices with probability threshold / 2^64
            if rng.next_u64() < threshold:
                rows.append((rng.below(m), rng.below(m)))
            else:
                rows.append((rng.below(m),))
        choices = tuple(rows)
    elif variant == "partitioned":
        m1 = params.up_bank_size
        m2 = m - m1
        if n > 0 and (m1 < 1 or m2 < 1):
            raise ValueError("partitioned sampling needs both banks non-empty")
        choices = tuple((rng.below(m1), m1 + rng.below(m2)) for _ in range(n))
    elif variant == "fixed-d":
        assert params.d is not None
        d = params.d
        flat = iter(rng.draws(m, d * n))
        choices = tuple(zip(*[flat] * d))
    else:
        raise ValueError(f"unknown variant {variant!r}")

    return BipartiteGraph(n=n, m=m, choices=choices)


@dataclass(frozen=True)
class SimStats:
    """Sample statistics of the per-trial maximum matching sizes."""

    trials: int
    mean: float
    std_dev: float
    min: float
    max: float
    std_error: float


def _matching_sizes(params: ModelParams, seed: RngSeed, lo: int, hi: int) -> list[int]:
    """Maximum matching sizes of trials [lo, hi)."""
    # Degree <= 2 graphs admit the spare-bin component count, which equals
    # the maximum matching size and is much cheaper than a search.
    search = params.variant == "fixed-d" and params.d is not None and params.d > 2
    graphs = (gen_graph(params, seed.derive(t)) for t in range(lo, hi))
    return [max_matching(g)[0] if search else mu_via_deficit(g) for g in graphs]


def effective_threads() -> int:
    """Worker count: the CUCKOO_LAB_THREADS environment variable (1 when
    unset), capped by the CPU count.  A value other than a positive
    integer is a ValueError naming the variable."""
    env = os.environ.get(THREADS_ENV_VAR, "1")
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer; got {env!r}")
    return min(int(env), os.cpu_count() or 1)


def fan_out(fn: Callable, count: int, args: tuple) -> list:
    """Split indices [0, count) into one contiguous chunk per worker and
    return ``fn(*args, lo, hi)`` for each chunk, in index order.

    Chunks run in worker processes when :func:`effective_threads` allows
    more than one; if the pool cannot start or breaks, they run
    sequentially instead, giving the same results.
    """
    workers = min(effective_threads(), count)
    if workers <= 1:
        return [fn(*args, 0, count)]
    bounds = [count * k // workers for k in range(workers + 1)]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, *args, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            return [f.result() for f in futures]
    except (OSError, BrokenProcessPool):
        return [fn(*args, 0, count)]


def _trial_sizes(params: ModelParams, trials: int, seed: Union[int, RngSeed]) -> list[int]:
    """Maximum matching sizes of trials [0, trials), in trial order."""
    rng_seed = seed if isinstance(seed, RngSeed) else RngSeed(seed)
    return sum(fan_out(_matching_sizes, trials, (params, rng_seed)), [])


def estimate_mu(params: ModelParams, trials: int, seed: Union[int, RngSeed]) -> SimStats:
    """Monte-Carlo estimate of the expected maximum matching size.

    Bit-identical for a fixed (params, trials, seed) regardless of worker
    count: per-trial sizes are integers and the moments are assembled from
    exact integer sums.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = _trial_sizes(params, trials, seed)
    total = sum(sizes)
    total_sq = sum(size * size for size in sizes)

    mean = total / trials
    if trials > 1:
        # sample variance from exact integer moments
        var = (trials * total_sq - total * total) / (trials * (trials - 1))
        std = sqrt(max(0.0, var))
    else:
        std = 0.0
    return SimStats(
        trials=trials,
        mean=mean,
        std_dev=std,
        min=float(min(sizes)),
        max=float(max(sizes)),
        std_error=std / sqrt(trials),
    )


def concentration_experiment(
    params: ModelParams,
    trials: int,
    lam: float,
    seed: Union[int, RngSeed],
    *,
    one_sided: bool = False,
) -> tuple[float, float]:
    """Measure how often the realized matching size strays more than
    lam * sqrt(n) from the exact expectation.

    Returns (empirical fraction, tail bound); the first should sit at or
    below the second.  Needs a model with an exact expectation, so the
    fixed-d model with d > 2 is rejected.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a meaningful fraction")
    if not lam >= 0:
        raise ValueError("lambda must be >= 0")
    mu_exact = evaluate(params).mu
    radius = lam * sqrt(params.n)
    exceed = 0
    for size in _trial_sizes(params, trials, seed):
        deviation = mu_exact - size if one_sided else abs(size - mu_exact)
        exceed += deviation > radius

    bound = concentration_tail_bound(lam, one_sided=one_sided)
    return exceed / trials, bound
