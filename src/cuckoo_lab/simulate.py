"""Seeded random-graph generation and Monte-Carlo estimation.

Randomness comes from a 64-bit counter generator specified bit-exactly
(the splitmix64 update), so identical seeds give identical graphs on any
platform.  Trials derive independent generator states from (seed, trial
index) and may therefore run in parallel; aggregation works on exact
integer sums, making every reported statistic independent of execution
order.

Words are mixed many at a time.  The output of the k-th step,
mix64(state + k * gamma), depends only on k, so a block of successive words
is computed in one pass over 128-bit lanes, with the lane helpers of
:mod:`cuckoo_lab.hashing` (whose module docstring explains them): every
step of :func:`mix64` becomes a few big-integer operations over all lanes
at once.  The words equal those of the scalar :func:`mix64`, one by one.

A trial with at most two choices per key builds no graph: the tree count
of :func:`~cuckoo_lab.matching.mu_via_columns` reads its draws as two
endpoint columns.  At n = m = 400 a d2 trial takes about 190 us, against
270 us through a graph (CPython 3.11, one core of a 2-CPU Linux machine).
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from math import sqrt
from typing import Callable, Iterable

from .exact import ModelParams, evaluate, concentration_tail_bound
from .hashing import _LANES, _MASK64, _lane_masks, _pack_lanes, _unpack_lanes, rejection_threshold
from .matching import BipartiteGraph, max_matching, mu_via_columns

_GOLDEN = 0x9E3779B97F4A7C15

THREADS_ENV_VAR = "CUCKOO_LAB_THREADS"


def mix64(z: int) -> int:
    """The splitmix64 output permutation; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# over _LANES 128-bit lanes, lane k holds (k + 1) * gamma mod 2^64; a block
# of fewer lanes takes the low lanes
_RAMP = _pack_lanes([(k * _GOLDEN) & _MASK64 for k in range(1, _LANES + 1)])


class SplitMix64:
    """splitmix64: state += golden gamma, output mix64(state).

    Distinct states yield distinct outputs within one stream (the output
    map is a bijection of the counter), which some callers rely on to get
    provably distinct synthetic keys.
    """

    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    def draws(self, bound: int, count: int) -> list[int]:
        """``count`` uniform integers in [0, bound), with the state left
        after the last word used.

        Words are mixed a block at a time, all lanes at once (see the
        module docstring): at most _LANES of them and at most as many as
        values are still missing, so no block reads past the last word
        used.  A word at or above the :func:`rejection_threshold` of
        ``bound`` is skipped, in order, and the shortfall is drawn from the
        next block.  The values and the final state are those of drawing
        word by word, however few the values."""
        threshold = rejection_threshold(bound)
        out: list[int] = []
        while len(out) < count:
            out += [v % bound for v in self._words(min(count - len(out), _LANES)) if v < threshold]
        return out

    def _words(self, count: int) -> array:
        """The next ``count`` raw words, count <= _LANES, mixed in one pass
        over 128-bit lanes (see the module docstring)."""
        ones, low = _lane_masks(count)
        z = (self.state * ones + (_RAMP & low)) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31
        self.state = (self.state + count * _GOLDEN) & _MASK64
        return _unpack_lanes(z, count)


@dataclass(frozen=True)
class RngSeed:
    """Root of a family of per-trial generator states.

    Trial ``t`` uses the state mix64(seed XOR mix64(t + 1)): injective in
    the trial index for a fixed seed (and in the seed for a fixed trial),
    so derived states never collide within a run.
    """

    seed: int

    def derive(self, index: int) -> SplitMix64:
        return SplitMix64(mix64(self.seed ^ mix64(index + 1)))


def gen_graph(params: ModelParams, rng: SplitMix64) -> BipartiteGraph:
    """Draw one random bipartite graph of the given model.

    Every choice is one :meth:`SplitMix64.draws` value, so a graph is a
    pure function of (params, generator state).  The d-choice models draw
    key by key in index order.  The mixed-rand model first draws every
    key's coin, then every key's choices in index order; the two-bank
    model draws every key's up-bank bin, then every key's down-bank bin.
    Only each key's distribution matters to the model, not which word
    serves which choice.  Two-choice draws may repeat a bin (parallel
    edges).  In the mixed-det model the one-choice elements are the first
    ones, which costs no generality: labels are exchangeable.  With at
    most two choices per key the tuples are zipped from :func:`_endpoints`.
    """
    n, m = params.n, params.m
    if params.variant == "fixed-d" and params.d > 2:
        words = iter(rng.draws(m, params.d * n))
        choices = tuple(zip(*[words] * params.d))
    else:
        xs, ys, two = _endpoints(params, rng)
        choices = tuple((x, y) if t else (x,) for x, y, t in zip(xs, ys, two))
    return BipartiteGraph(n=n, m=m, choices=choices)


def _endpoints(params: ModelParams, rng: SplitMix64) -> tuple[list[int], list[int], Iterable[bool]]:
    """The cuckoo graph of a model with at most two choices per key, in the
    draw order of :func:`gen_graph`: key u joins bins ``xs[u]`` and
    ``ys[u]``, each a draw below m, and is a loop unless ``two[u]``."""
    n, m = params.n, params.m
    if params.variant == "partitioned":
        m1 = params.up_bank_size
        up = rng.draws(m1, n)
        return up, [m1 + v for v in rng.draws(m - m1, n)], repeat(True, n)
    if params.variant == "mixed-rand":
        # a raw coin word per key (nothing below 2^64 is rejected), two
        # choices when it falls below p * 2^64 (ModelParams has checked p
        # in [0, 1]), so never at p = 0 and always at p = 1
        coin = round(params.p * (1 << 64))
        two = [w < coin for w in rng.draws(1 << 64, n)]
        words = iter(rng.draws(m, n + sum(two)))
        xs, ys = [], []
        for t, x in zip(two, words):
            xs.append(x)
            ys.append(next(words) if t else x)
        return xs, ys, two
    # d2, fixed-d at d = 2 and mixed-det: one draw per choice, mixed-det's
    # one-choice keys first, then the k keys with two choices
    k = params.two_choice_count if params.variant == "mixed-det" else n
    w = rng.draws(m, n + k)
    ones = w[: n - k]
    return ones + w[n - k :: 2], ones + w[n - k + 1 :: 2], chain(repeat(False, n - k), repeat(True, k))


@dataclass(frozen=True)
class SimStats:
    """Sample statistics of the per-trial maximum matching sizes."""

    mean: float
    std_dev: float
    min: float
    max: float
    std_error: float


def _matching_size(params: ModelParams, seed: RngSeed, trial: int) -> int:
    """Maximum matching size of one trial's graph: with at most two choices
    per key the tree count over its endpoint columns, with no graph built."""
    rng = seed.derive(trial)
    if params.variant == "fixed-d" and params.d > 2:
        return max_matching(gen_graph(params, rng))[0]
    xs, ys, _ = _endpoints(params, rng)
    return mu_via_columns(params.m, xs, ys)


def effective_threads() -> int:
    """Worker count: the CUCKOO_LAB_THREADS environment variable (1 when
    unset), capped by the CPU count.  A value other than a positive
    integer is a ValueError naming the variable."""
    env = os.environ.get(THREADS_ENV_VAR, "1")
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer; got {env!r}")
    return min(int(env), os.cpu_count() or 1)


def fan_out(fn: Callable, count: int, args: tuple) -> list:
    """``[fn(*args, i) for i in range(count)]``, in index order.

    When :func:`effective_threads` allows more than one worker, the
    indices run in worker processes, handed out by the pool's ``map`` in
    contiguous chunks of ceil(count / workers); an exception that ``fn``
    raises there is raised here.  If the pool cannot start or breaks, the
    indices run sequentially instead, giving the same results.  The pool's
    modules are imported only then, so a one-worker run never loads them.
    """
    workers = min(effective_threads(), count)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(partial(fn, *args), range(count), chunksize=-(-count // workers)))
        except (OSError, BrokenProcessPool):
            pass
    return [fn(*args, i) for i in range(count)]


def estimate_mu(params: ModelParams, trials: int, seed: RngSeed) -> SimStats:
    """Monte-Carlo estimate of the expected maximum matching size.

    Bit-identical for a fixed (params, trials, seed) regardless of worker
    count: per-trial sizes are integers and the moments are assembled from
    exact integer sums.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = fan_out(_matching_size, trials, (params, seed))
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
    seed: RngSeed,
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
    bound = concentration_tail_bound(lam, one_sided=one_sided)
    mu_exact = evaluate(params).mu
    radius = lam * sqrt(params.n)
    exceed = 0
    for size in fan_out(_matching_size, trials, (params, seed)):
        deviation = mu_exact - size if one_sided else abs(size - mu_exact)
        exceed += deviation > radius
    return exceed / trials, bound
