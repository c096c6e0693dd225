"""Mix function, key ingestion, and the repeated experiment driver."""

import math

import pytest
from scipy.stats import chi2

from cuckoo_lab import cli
from cuckoo_lab.cuckoo import new_table
from cuckoo_lab.exact import expected_matching_d2, stash_size_for_epsilon
from cuckoo_lab.hashing import bin_choices, wang_mix64
from cuckoo_lab.simulate import RngSeed, SplitMix64
from cuckoo_lab.trace import (
    KeyFormatError,
    disambiguate_duplicates,
    read_keys,
    run_trace_experiment,
    synthetic_stream,
)

# frozen from an independent big-integer evaluation of the pinned bit sequence
WANG_GOLDEN = {
    0: 0x77CFA1EEF01BCA90,
    1: 0x5BCA7C69B794F8CE,
    0xDEADBEEF: 0x386F2A5F36B257CB,
}


def test_wang_mix64_golden_values():
    for key, expected in WANG_GOLDEN.items():
        assert wang_mix64(key) == expected


def test_wang_mix64_is_stable():
    for key in (0, 7, 2**63, 2**64 - 1):
        assert wang_mix64(key) == wang_mix64(key)
        assert 0 <= wang_mix64(key) < 2**64


def test_wang_mix64_avalanche_band():
    rng = SplitMix64(1001)
    total_flips = 0
    samples = 10_000
    for _ in range(samples):
        key = rng.next_u64()
        bit = 1 << rng.below(64)
        total_flips += bin(wang_mix64(key) ^ wang_mix64(key ^ bit)).count("1")
    mean_flips = total_flips / samples
    assert 20.0 <= mean_flips <= 44.0


# ---------------------------------------------------------------------------
# bin choices


def test_bin_choices_in_range():
    seeds = (123, 456, 789)
    for key in range(200):
        for b in bin_choices(key, seeds, 10, 3):
            assert 0 <= b < 10


def test_bin_choices_partition_mode():
    seeds = (5, 6)
    for key in range(500):
        lo, hi = bin_choices(key, seeds, 100, 2, partition_boundary=37)
        assert 0 <= lo < 37 <= hi < 100
    with pytest.raises(ValueError):
        bin_choices(1, seeds, 100, 3, partition_boundary=37)
    with pytest.raises(ValueError):
        bin_choices(1, seeds, 100, 2, partition_boundary=0)


def test_bin_choices_uniformity_chi_square():
    m = 1024
    seeds = (0x1234_5678, 0x9ABC_DEF0)
    counts = [0] * m
    rng = SplitMix64(2)
    samples = 1_000_000
    for _ in range(samples):
        counts[bin_choices(rng.next_u64(), seeds, m, 2)[0]] += 1
    expected = samples / m
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    assert statistic < chi2.ppf(0.999, m - 1)


# ---------------------------------------------------------------------------
# key ingestion


def test_read_hex_lines(tmp_path):
    path = tmp_path / "keys.hex"
    path.write_text("ff\n#c\n10\nff\n")
    assert read_keys(path) == (255, 16, 255)  # repeats are kept


def test_read_hex_lines_rejects_garbage(tmp_path):
    path = tmp_path / "bad.hex"
    path.write_text("xyz\n")
    with pytest.raises(KeyFormatError, match="1"):
        read_keys(path)
    path.write_text("1234567890abcdef0\n")  # 17 digits
    with pytest.raises(KeyFormatError):
        read_keys(path)


def test_read_hex_lines_line_endings(tmp_path):
    path = tmp_path / "keys.hex"
    path.write_bytes(b"ff\r10\r\n20\n\n0x30")
    assert read_keys(path) == (255, 16, 32, 48)


def test_read_hex_lines_rejects_binary_file(tmp_path):
    # a packed binary-u64-le file: line 1 is empty, line 2 holds byte 0xff
    path = tmp_path / "keys.bin"
    path.write_bytes(b"".join(k.to_bytes(8, "little") for k in (0x0A, 0xFF, 0x1234)))
    with pytest.raises(KeyFormatError, match=r"keys\.bin:2: not ASCII text"):
        read_keys(path)
    assert read_keys(path, "binary-u64-le") == (0x0A, 0xFF, 0x1234)


def test_read_binary(tmp_path):
    path = tmp_path / "keys.bin"
    path.write_bytes((255).to_bytes(8, "little") + (16).to_bytes(8, "little"))
    assert read_keys(path, "binary-u64-le") == (255, 16)


def test_read_binary_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.bin"
    path.write_bytes(b"\x01" * 12)
    with pytest.raises(KeyFormatError, match="truncated"):
        read_keys(path, "binary-u64-le")


def test_read_keys_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        read_keys(tmp_path / "x", "utf-7")


def test_read_keys_dedup_keeps_first(tmp_path, monkeypatch):
    # read_keys keeps repeats; the trace command drops them, keeping the
    # first occurrence of each key in file order
    path = tmp_path / "dup.hex"
    path.write_text("a\nb\na\nc\nb\n")
    assert read_keys(path) == (10, 11, 10, 12, 11)
    seen = []

    def capture(keys, *rest):
        seen.append(keys)
        return run_trace_experiment(keys, *rest)

    monkeypatch.setattr(cli, "run_trace_experiment", capture)
    assert cli.run(["trace", "--input", str(path), "--m", "8", "--repeats", "1"]) == 0
    assert seen == [(10, 11, 12)]


def test_disambiguate_duplicates():
    keys = [5, 5, 9, 5]
    out = disambiguate_duplicates(keys)
    assert out[0] == 5 and out[2] == 9
    assert out[1] == 5 ^ wang_mix64(1)
    assert out[3] == 5 ^ wang_mix64(2)
    assert len(set(out)) == 4
    # a counter whose mixed key is already in the stream is skipped
    taken = 5 ^ wang_mix64(1)
    out = disambiguate_duplicates([5, 5, taken, 5])
    assert out[:3] == [5, 5 ^ wang_mix64(2), taken]
    assert out[3] == 5 ^ wang_mix64(3)


def test_synthetic_stream_distinct_and_deterministic():
    a = synthetic_stream(50_000, 7)
    b = synthetic_stream(50_000, 7)
    assert a == b
    assert len(set(a)) == 50_000
    assert synthetic_stream(100, 8) != a[:100]


# ---------------------------------------------------------------------------
# experiment driver


def test_trace_experiment_deterministic():
    stream = synthetic_stream(400, 3)
    a = run_trace_experiment(stream, 400, 2, 5, 99)
    b = run_trace_experiment(stream, 400, 2, 5, 99)
    assert a == b


def test_trace_experiment_fractions_sum_to_one():
    stream = synthetic_stream(300, 4)
    report = run_trace_experiment(stream, 250, 2, 4, 17)
    assert report.n == 300
    assert report.inserted_mean + report.overflow_mean == pytest.approx(1.0, abs=1e-12)
    assert report.overflow_min <= report.overflow_mean <= report.overflow_max
    assert len(report.per_repeat_seeds) == 4


def test_trace_experiment_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicates"):
        run_trace_experiment((1, 2, 1), 10, 2, 1, 0)


def test_trace_experiment_parallel_equals_sequential(monkeypatch):
    keys = synthetic_stream(200, 5)
    monkeypatch.delenv("CUCKOO_LAB_THREADS", raising=False)
    seq = run_trace_experiment(keys, 200, 2, 4, 7)
    monkeypatch.setenv("CUCKOO_LAB_THREADS", "2")
    assert run_trace_experiment(keys, 200, 2, 4, 7) == seq


def test_trace_partitioned_mode():
    stream = synthetic_stream(100, 6)
    report = run_trace_experiment(stream, 100, 2, 3, 8, partition_boundary=50)
    assert 0.0 <= report.overflow_mean < 0.5


def test_trace_mean_matches_exact_formula():
    n = m = 500
    stream = synthetic_stream(n, 11)
    repeats = 30
    report = run_trace_experiment(stream, m, 2, repeats, 13)
    # rebuild each repeat from the reported seeds to recover the spread
    stash_sizes = []
    for seeds in report.per_repeat_seeds:
        table = new_table(m, 2, seeds)
        for key in stream:
            table.insert(key)
        stash_sizes.append(table.load_stats().stash_size)
    mean_stash = sum(stash_sizes) / repeats
    assert mean_stash / n == pytest.approx(report.overflow_mean, abs=1e-12)
    var = sum((s - mean_stash) ** 2 for s in stash_sizes) / (repeats - 1)
    se = math.sqrt(var / repeats)
    exact_stash = expected_matching_d2(n, m).stash_expected
    assert abs(mean_stash - exact_stash) <= 4 * se


def test_stash_capacity_from_sizing_rule_suffices():
    # capacity for a 1% overflow probability should be breached in at most
    # ~1% of repeats (allow a 3-sigma binomial margin)
    n = m = 500
    capacity = math.ceil(stash_size_for_epsilon(n, m, 0.01))
    stream = synthetic_stream(n, 21)
    repeats = 1000
    breaches = 0
    for r in range(repeats):
        rng = RngSeed(4242).derive(r)
        table = new_table(m, 2, (rng.next_u64(), rng.next_u64()))
        for key in stream:
            table.insert(key)
        if table.load_stats().stash_size > capacity:
            breaches += 1
    limit = repeats * 0.01 + 3 * math.sqrt(repeats * 0.01 * 0.99)
    assert breaches <= limit
