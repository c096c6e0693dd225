"""Key-stream ingestion and repeated table-build experiments.

A key stream is a sequence of 64-bit values, read from a file (hex lines
or little-endian binary) or generated synthetically.  The experiment
driver hashes each key with the pinned 64-bit mix, builds one table per
repeat with fresh seeds, and aggregates overflow statistics across
repeats, which is how confidence bands over the stash occupancy are
produced.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cuckoo import new_table
from .hashing import wang_mix64
from .simulate import RngSeed, fan_out

__all__ = [
    "TraceReport",
    "read_keys",
    "synthetic_stream",
    "disambiguate_duplicates",
    "run_trace_experiment",
]

_MASK64 = (1 << 64) - 1

# offset separating the synthetic-key derivation stream from the hash-seed
# streams, so reusing one base seed for both cannot correlate them
_KEY_STREAM_OFFSET = 0x4B45595354524541


@dataclass(frozen=True)
class TraceReport:
    """Aggregate of one repeated experiment.

    A repeat's overflow is the fraction of the n keys left in the stash;
    ``overflow_min``/``overflow_mean``/``overflow_max`` spread it across
    the repeats (the confidence band), and ``inserted_mean`` is
    1 - ``overflow_mean``.
    """

    m: int
    n: int
    d: int
    repeats: int
    overflow_mean: float
    overflow_min: float
    overflow_max: float
    inserted_mean: float
    per_repeat_seeds: tuple[tuple[int, ...], ...]


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
        token = line[2:] if line[:2].lower() == "0x" else line
        if not token or len(token) > 16:
            raise KeyFormatError(f"{path}:{lineno}: bad hex token {line!r}")
        try:
            keys.append(int(token, 16))
        except ValueError:
            raise KeyFormatError(f"{path}:{lineno}: bad hex token {line!r}") from None
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
    rng = RngSeed(seed, stream=_KEY_STREAM_OFFSET).derive(0)
    return _KeyTuple(rng.next_u64() for _ in range(count))


def _seeds_for_repeat(base_seed: int, repeat: int, d: int) -> tuple[int, ...]:
    rng = RngSeed(base_seed).derive(repeat)
    return tuple(rng.next_u64() for _ in range(d))


def _run_repeats(
    keys: tuple[int, ...],
    m: int,
    d: int,
    base_seed: int,
    partition_boundary: Optional[int],
    lo: int,
    hi: int,
) -> list[tuple[tuple[int, ...], int]]:
    """(hash seeds, final stash size) of repeats [lo, hi)."""
    outcomes = []
    for repeat in range(lo, hi):
        seeds = _seeds_for_repeat(base_seed, repeat, d)
        table = new_table(m, d, seeds, partition_boundary)
        for key in keys:
            table.insert(key)
        outcomes.append((seeds, table.load_stats().stash_size))
    return outcomes


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

    chunks = fan_out(_run_repeats, repeats, (keys, m, d, base_seed, partition_boundary))
    outcomes = [o for chunk in chunks for o in chunk]

    seeds = tuple(o[0] for o in outcomes)
    if n == 0:
        overflow = [0.0] * repeats
    else:
        overflow = [o[1] / n for o in outcomes]
    mean_overflow = sum(overflow) / repeats
    return TraceReport(
        m=m,
        n=n,
        d=d,
        repeats=repeats,
        overflow_mean=mean_overflow,
        overflow_min=min(overflow),
        overflow_max=max(overflow),
        inserted_mean=1.0 - mean_overflow,
        per_repeat_seeds=seeds,
    )
