"""64-bit mixing and bin-choice derivation.

The mix function below is pinned bit-for-bit (every step modulo 2^64) so
that table layouts and experiment outputs reproduce across platforms and
implementations.

A table's bin choices come from one checked plan, with two maps over it:
a per-key map, and a batch map that hashes many keys in one pass.  Both
mix in 128-bit lanes of a single Python integer, through one helper,
:func:`_wang_lanes`, where every step of the mix becomes a few
big-integer operations over all lanes at once: the per-key map puts
key XOR seeds[i] in lane i, d lanes per key, and the batch map puts each
key in its own lane, one pass per choice.  A lane holds a 64-bit word,
so its product with a constant below 2^64 stays below 2^128 and carries
nothing into the next lane; masking with 2^64 - 1 in every lane clears
the bits a shift brings in from the neighbouring lane.  The words equal
those of the scalar mix, one by one.
:class:`cuckoo_lab.simulate.SplitMix64` mixes its words the same way,
with the lane helpers below.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable, Optional, Sequence

_MASK64 = (1 << 64) - 1

# words mixed per pass, which bounds the integer holding them at 16 KiB
_LANES = 1024

# over _LANES 128-bit lanes, every lane holds 1, or 2^64 - 1
_ONES = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
_LOW = _ONES * _MASK64


def _lane_masks(count: int) -> tuple[int, int]:
    """1, and 2^64 - 1, in each of ``count`` 128-bit lanes: _ONES and _LOW
    cut to their first count lanes, or built anew for more than _LANES."""
    if count > _LANES:
        ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        return ones, ones * _MASK64
    keep = (1 << (count << 7)) - 1
    return _ONES & keep, _LOW & keep


def _pack_lanes(words: Sequence[int]) -> int:
    """The words, each in [0, 2^64), in the low halves of as many 128-bit
    lanes."""
    lanes = array("Q", bytes(len(words) << 4))
    lanes[::2] = array("Q", words)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack_lanes(lanes: int, count: int) -> array:
    """The low halves of the first ``count`` 128-bit lanes, in lane order."""
    # a fixed byte order, swapped into the host's, keeps the words the
    # same on every platform; a lane's high half may hold bits shifted in
    # from the next lane, and is dropped
    words = array("Q", lanes.to_bytes(count << 4, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _wang_lanes(x: int, low: int) -> int:
    """:func:`wang_mix64` of the word in each 128-bit lane of ``x``, every
    word below 2^64, where ``low`` holds 2^64 - 1 in as many lanes.  Each
    shift-and-add step is one product, which carries nothing into the next
    lane; adding 2^64 - 1 subtracts 1 modulo 2^64 without a borrow across
    lanes.  The mixed words are the low halves of the lanes; the high
    halves hold bits below 2^96 that the caller drops."""
    x = (x * 0x1FFFFF + low) & low  # ~x + (x << 21)
    x = ((x ^ (x >> 24)) & low) * 265 & low  # x + (x << 3) + (x << 8)
    x = ((x ^ (x >> 14)) & low) * 21 & low  # x + (x << 2) + (x << 4)
    return ((x ^ (x >> 28)) & low) * 0x80000001  # x + (x << 31)


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


def choice_maps(
    seeds: Sequence[int],
    m: int,
    d: int,
    partition_boundary: Optional[int] = None,
) -> tuple[Callable[[int], tuple[int, ...]], Callable[[Sequence[int]], list[tuple[int, ...]]]]:
    """The map from a key to its d candidate bins, and the batch map from a
    sequence of keys to the list of their bins, built over one plan: the
    table's shape checked, here only, and each choice's range prepared once.

    Choice i is wang_mix64(key XOR seeds[i]) reduced into its range
    [lo, lo + span) without modulo bias: the mixed value is re-mixed while
    it is at or above :func:`rejection_threshold`.  With a partition
    boundary (d = 2 only), choice 0 lands in [0, boundary) and choice 1 in
    [boundary, m).  Keys and seeds act through their low 64 bits.  The
    per-key map mixes a key's d words in one pass over d 128-bit lanes,
    lane i holding key XOR seeds[i]; the batch map mixes any number of
    keys, _LANES per pass, one choice at a time (module docstring), and
    gives, key by key, what the per-key map gives.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if len(seeds) != d:
        raise ValueError(f"need {d} seeds, got {len(seeds)}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if partition_boundary is None:
        ranges = [(0, m)] * d
    else:
        if d != 2:
            raise ValueError("partitioned tables use d = 2")
        if not 0 < partition_boundary < m:
            raise ValueError("partition boundary must split the bins")
        ranges = [(0, partition_boundary), (partition_boundary, m - partition_boundary)]
    plan = tuple(
        (seed & _MASK64, lo, span, rejection_threshold(span))
        for seed, (lo, span) in zip(seeds, ranges)
    )
    # the per-key map's d lanes: the seeds, and 1 and 2^64 - 1 in each
    seeded = _pack_lanes([seed for seed, _, _, _ in plan])
    d_ones, d_low = _lane_masks(d)

    def choices(key: int) -> tuple[int, ...]:
        out = []
        x = _wang_lanes((key & _MASK64) * d_ones ^ seeded, d_low)
        # lane by lane, each word shifted down in turn
        for _, lo, span, threshold in plan:
            w = x & _MASK64
            x >>= 128
            if w >= threshold:
                w = _remix(w, threshold)
            out.append(lo + w % span)
        return tuple(out)

    def batch(keys: Sequence[int]) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []
        for start in range(0, len(keys), _LANES):
            block = keys[start : start + _LANES]
            count = len(block)
            ones, low = _lane_masks(count)
            try:
                packed = _pack_lanes(block)
            except OverflowError:  # a key outside [0, 2^64)
                packed = _pack_lanes([k & _MASK64 for k in block])
            columns = []
            for seed, lo, span, threshold in plan:
                x = _wang_lanes(packed ^ seed * ones, low)
                words = _unpack_lanes(x, count)
                # a lane's word plus 2^64 - threshold reaches bit 64 exactly
                # when the word is rejected; the sum stays below 2^65, so no
                # carry leaves its 128-bit lane
                if (((x & low) + ((1 << 64) - threshold) * ones) >> 64) & ones:
                    words = [_remix(w, threshold) for w in words]
                columns.append([lo + w % span for w in words])
            out += zip(*columns)
        return out

    return choices, batch


def _remix(x: int, threshold: int) -> int:
    while x >= threshold:
        x = wang_mix64(x)
    return x


def bin_choices(
    key: int,
    seeds: Sequence[int],
    m: int,
    d: int,
    partition_boundary: Optional[int] = None,
) -> tuple[int, ...]:
    """The d candidate bins of one key: the per-key map of
    :func:`choice_maps`, which a caller hashing many keys with the same
    arguments should build once."""
    return choice_maps(seeds, m, d, partition_boundary)[0](key)
