"""64-bit mixing and bin-choice derivation.

The mix function below is pinned bit-for-bit (every step modulo 2^64) so
that table layouts and experiment outputs reproduce across platforms and
implementations.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

_MASK64 = (1 << 64) - 1


def wang_mix64(x: int) -> int:
    """Wang's 64-bit integer mix; deterministic and well-avalanching."""
    x &= _MASK64
    x = (~x + (x << 21)) & _MASK64
    x ^= x >> 24
    x = (x + (x << 3) + (x << 8)) & _MASK64
    x ^= x >> 14
    x = (x + (x << 2) + (x << 4)) & _MASK64
    x ^= x >> 28
    x = (x + (x << 31)) & _MASK64
    return x


def rejection_threshold(span: int) -> int:
    """Raw 64-bit words at or above this are rejected when one is reduced
    onto ``span`` values, so that no residue of the 2^64 range is favored.
    A span outside [1, 2^64] has no such threshold and raises ValueError."""
    if not 1 <= span <= 1 << 64:
        raise ValueError(f"cannot draw uniformly from {span} values with 64-bit words")
    return (1 << 64) - (1 << 64) % span


def choice_function(
    seeds: Sequence[int],
    m: int,
    d: int,
    partition_boundary: Optional[int] = None,
) -> Callable[[int], tuple[int, ...]]:
    """The map from a key to its d candidate bins, with the arguments
    checked and each choice's target range prepared once.

    Choice i is wang_mix64(key XOR seeds[i]) reduced into its range
    [lo, lo + span) without modulo bias: the mixed value is re-mixed while
    it is at or above :func:`rejection_threshold`.  With a partition
    boundary (d = 2 only), choice 0 lands in [0, boundary) and choice 1 in
    [boundary, m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(seeds) < d:
        raise ValueError(f"need {d} seeds, got {len(seeds)}")
    if partition_boundary is None:
        ranges = [(0, m)] * d
    else:
        if d != 2:
            raise ValueError("partitioned tables use d = 2")
        if not 0 < partition_boundary < m:
            raise ValueError("partition boundary must split the bins")
        ranges = [(0, partition_boundary), (partition_boundary, m - partition_boundary)]
    plan = tuple(
        (seed, lo, span, rejection_threshold(span))
        for seed, (lo, span) in zip(seeds, ranges)
    )

    def choices(key: int) -> tuple[int, ...]:
        out = []
        for seed, lo, span, threshold in plan:
            # wang_mix64 inlined, each shift-and-add step as one product;
            # the first is reduced modulo 2^64, so key and seed act through
            # their low 64 bits
            x = key ^ seed
            x = (x * 0x1FFFFF - 1) & _MASK64  # ~x + (x << 21)
            x ^= x >> 24
            x = (x * 265) & _MASK64  # x + (x << 3) + (x << 8)
            x ^= x >> 14
            x = (x * 21) & _MASK64  # x + (x << 2) + (x << 4)
            x ^= x >> 28
            x = (x * 0x80000001) & _MASK64  # x + (x << 31)
            while x >= threshold:
                x = wang_mix64(x)
            out.append(lo + x % span)
        return tuple(out)

    return choices


def bin_choices(
    key: int,
    seeds: Sequence[int],
    m: int,
    d: int,
    partition_boundary: Optional[int] = None,
) -> tuple[int, ...]:
    """The d candidate bins of one key; see :func:`choice_function`, which
    a caller hashing many keys with the same arguments should build once."""
    return choice_function(seeds, m, d, partition_boundary)(key)
