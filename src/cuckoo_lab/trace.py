"""Key-stream ingestion and repeated table-build experiments.

A key stream is a sequence of 64-bit values, read from a file (hex lines
or little-endian binary) or generated synthetically.  The experiment
driver builds one table per repeat with fresh seeds, inserts the whole
stream with one batch insert, which hashes the keys with the pinned 64-bit
mix a block at a time, and aggregates overflow statistics across
repeats, which is how confidence bands over the stash occupancy are
produced.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cuckoo import CuckooTable
from .hashing import _MASK64, wang_mix64
from .simulate import RngSeed, fan_out

# a hex-lines key: 1 to 16 hex digits after an optional 0x; no sign,
# underscore or second prefix, all of which int(token, 16) would take
_HEX_KEY = re.compile(r"(?:0[xX])?([0-9a-fA-F]{1,16})")

# index of the synthetic-key stream, far past the repeat indices that derive
# the hash seeds, so reusing one base seed for both cannot correlate them
_KEY_STREAM_OFFSET = 0x4B45595354524541


@dataclass(frozen=True)
class TraceReport:
    """Aggregate of one repeated experiment.

    A repeat's overflow is the fraction of the n keys left in the stash;
    ``overflow_min``/``overflow_mean``/``overflow_max`` spread it across
    the repeats (the confidence band), and ``inserted_mean`` is the mean
    fraction of the keys placed, 1 - ``overflow_mean`` before rounding.
    """

    n: int
    overflow_mean: float
    overflow_min: float
    overflow_max: float
    inserted_mean: float


class KeyFormatError(ValueError):
    """Malformed key file content."""


def read_keys(path: Union[str, os.PathLike], format: str = "hex-lines") -> tuple[int, ...]:
    """Load keys from a file, in file order, repeats included.

    ``hex-lines``: one hex token (at most 16 digits) per line; blank lines
    and lines starting with '#' are skipped.  ``binary-u64-le``: packed
    little-endian 8-byte records.
    """
    if format == "hex-lines":
        return tuple(_read_hex_lines(path))
    if format == "binary-u64-le":
        return tuple(_read_binary_u64(path))
    raise ValueError(f"unknown key format {format!r}")


def _read_hex_lines(path: Union[str, os.PathLike]) -> list[int]:
    keys = []
    with open(path, "rb") as handle:
        blob = handle.read()
    # bytes.splitlines splits at \n, \r and \r\n, as text mode would
    for lineno, raw in enumerate(blob.splitlines(), start=1):
        try:
            line = raw.decode("ascii").strip()
        except UnicodeDecodeError:
            raise KeyFormatError(
                f"{path}:{lineno}: not ASCII text (is it a binary-u64-le file?)"
            ) from None
        if not line or line.startswith("#"):
            continue
        match = _HEX_KEY.fullmatch(line)
        if match is None:
            raise KeyFormatError(f"{path}:{lineno}: bad hex token {line!r}")
        keys.append(int(match[1], 16))
    return keys


def _read_binary_u64(path: Union[str, os.PathLike]) -> list[int]:
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) % 8:
        raise KeyFormatError(f"{path}: truncated tail of {len(blob) % 8} bytes")
    return [int.from_bytes(blob[i : i + 8], "little") for i in range(0, len(blob), 8)]


def disambiguate_duplicates(keys: Sequence[int]) -> list[int]:
    """Keep duplicate keys distinct instead of dropping them: the c-th
    repeat of a key (c >= 1) is XORed with the mix of its occurrence
    counter.  First occurrences pass through unchanged.  A counter whose
    mixed key is already in the stream, or was already given to an earlier
    repeat, is skipped, so the output keys are pairwise distinct."""
    taken = set(keys)
    counts: dict[int, int] = {}
    out = []
    for k in keys:
        c = counts.get(k, 0)
        if c == 0:
            counts[k] = 1
            out.append(k)
            continue
        mixed = (k ^ wang_mix64(c)) & _MASK64
        while mixed in taken:
            c += 1
            mixed = (k ^ wang_mix64(c)) & _MASK64
        counts[k] = c + 1
        taken.add(mixed)
        out.append(mixed)
    return out


class _KeyTuple(tuple):
    """A key tuple whose ``keys`` is the tuple itself, because
    ``perfbench/baselines.py`` reads ``synthetic_stream(...).keys``."""

    __slots__ = ()

    @property
    def keys(self) -> tuple[int, ...]:
        return self


def synthetic_stream(count: int, seed: int) -> tuple[int, ...]:
    """``count`` pairwise-distinct pseudo-random 64-bit keys.

    Drawn from one derived counter-generator stream, whose outputs are a
    bijection of the counter, so distinctness needs no bookkeeping.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    # below 2^64 nothing is rejected: the draws are the raw 64-bit words
    return _KeyTuple(RngSeed(seed).derive(_KEY_STREAM_OFFSET).draws(1 << 64, count))


def _stash_size(
    keys: tuple[int, ...], m: int, d: int, base_seed: int, partition_boundary: Optional[int], repeat: int
) -> int:
    """Final stash size of one repeat."""
    seeds = tuple(RngSeed(base_seed).derive(repeat).draws(1 << 64, d))
    table = CuckooTable(m, d, seeds, partition_boundary)
    table.insert_many(keys)
    return table.load_stats().stash_size


def run_trace_experiment(
    keys: tuple[int, ...],
    m: int,
    d: int,
    repeats: int,
    base_seed: int,
    partition_boundary: Optional[int] = None,
) -> TraceReport:
    """Insert the whole stream into a fresh table once per repeat, with
    hash seeds derived from (base_seed, repeat), and aggregate the
    overflow fractions.

    Keys must be pairwise distinct (deduplicate or disambiguate first);
    the table's set semantics would otherwise abort mid-run.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if len(set(keys)) != len(keys):
        raise ValueError("key stream contains duplicates; drop them or disambiguate_duplicates first")
    n = len(keys)

    sizes = fan_out(_stash_size, repeats, (keys, m, d, base_seed, partition_boundary))
    if not n:
        return TraceReport(n=0, overflow_mean=0.0, overflow_min=0.0, overflow_max=0.0, inserted_mean=1.0)
    # each mean is one correctly rounded division of integers, so it lies
    # between the min and the max and the two means carry no rounding noise
    total, stashed = n * repeats, sum(sizes)
    return TraceReport(
        n=n,
        overflow_mean=stashed / total,
        overflow_min=min(sizes) / n,
        overflow_max=max(sizes) / n,
        inserted_mean=(total - stashed) / total,
    )
