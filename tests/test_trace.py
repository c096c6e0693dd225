"""Mix function, key ingestion, and the repeated experiment driver."""

import math

import pytest
from scipy.stats import chi2

from cuckoo_lab import cli
from cuckoo_lab.cuckoo import new_table
from cuckoo_lab.exact import expected_matching_d2, stash_size_for_epsilon
from cuckoo_lab.hashing import _LANES, bin_choices, choice_maps, wang_mix64
from cuckoo_lab.simulate import RngSeed, SplitMix64
from cuckoo_lab.trace import (
    KeyFormatError,
    disambiguate_duplicates,
    read_keys,
    run_trace_experiment,
    synthetic_stream,
)

from oracles import reference_bin_choices, wang_unmix64

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
        # below 2^64 and 64 nothing is rejected: one word per draw
        key, bit = rng.draws(1 << 64, 1)[0], 1 << rng.draws(64, 1)[0]
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


_SEEDS2 = (0x1234_5678, 0x9ABC_DEF0)
_GOLDEN_KEYS = (0, 1, 0xDEADBEEF, 2**64 - 1, 0x0123456789ABCDEF)

# name -> ((seeds, m, d, boundary), bin_choices of each golden key), frozen
# from the per-choice implementation before the choice function replaced it
BIN_CHOICES_GOLDEN = {
    "m1": ((_SEEDS2, 1, 2, None), [(0x0, 0x0)] * 5),
    "m3": ((_SEEDS2, 3, 2, None), [(0x2, 0x0), (0x1, 0x2), (0x2, 0x1), (0x0, 0x0), (0x0, 0x2)]),
    "m2000": ((_SEEDS2, 2000, 2, None), [
        (0x69F, 0x6DD), (0x297, 0x2BD), (0x64D, 0x1C9), (0x2B0, 0xFA), (0x29E, 0x128),
    ]),
    # a span of 2^63 + 1 re-mixes about half of all values
    "m2^63+1": ((_SEEDS2, 2**63 + 1, 2, None), [
        (0x6139930AD0807A90, 0x7A5855450052CDCD),
        (0x210C8E875F28FD17, 0x6427E42BFF53D02D),
        (0x764BBE27600E9D88, 0x6123CB71BE817D1A),
        (0x5683763D0FA52EB0, 0x2A151954C5B1D430),
        (0x7DF5551019B1B9E8, 0x0585D70B3F23359D),
    ]),
    "d3": (((11, 22, 33), 2000, 3, None), [
        (0x1C4, 0x20, 0xD3), (0x655, 0x49E, 0x650), (0x4CC, 0x5A2, 0x13A),
        (0x60, 0x4AD, 0x6BD), (0x2F7, 0x5FD, 0x1A8),
    ]),
    "d4": (((11, 22, 33, 44), 1000, 4, None), [
        (0x1C4, 0x20, 0xD3, 0x135), (0x26D, 0xB6, 0x268, 0xB4), (0xE4, 0x1BA, 0x13A, 0x3B5),
        (0x60, 0xC5, 0x2D5, 0x56), (0x2F7, 0x215, 0x1A8, 0x246),
    ]),
    "two-bank": ((_SEEDS2, 2000, 2, 700), [
        (0x127, 0x421), (0x1CF, 0x44D), (0xD, 0x359), (0x120, 0x3B6), (0x46, 0x4AC),
    ]),
    # seeds outside [0, 2^64) act through their low 64 bits
    "wide-seeds": (((-1, 2**64 + 7), 2000, 2, None), [
        (0x444, 0x393), (0x1CA, 0x382), (0x6CB, 0x9F), (0x6C0, 0x2B4), (0x7BC, 0x315),
    ]),
}


@pytest.mark.parametrize("name", list(BIN_CHOICES_GOLDEN))
def test_bin_choices_golden_values(name):
    shape, expected = BIN_CHOICES_GOLDEN[name]
    assert [bin_choices(k, *shape) for k in _GOLDEN_KEYS] == expected
    choices = choice_maps(*shape)[0]
    assert [choices(k) for k in _GOLDEN_KEYS] == expected
    assert choices(-1) == expected[3]  # keys act through their low 64 bits


def test_golden_span_forces_remix():
    threshold = (1 << 64) - (1 << 64) % (2**63 + 1)
    remixed = [wang_mix64(k ^ s) >= threshold for k in _GOLDEN_KEYS for s in _SEEDS2]
    assert 0 < sum(remixed) < len(remixed)


@pytest.mark.parametrize("name", list(BIN_CHOICES_GOLDEN))
def test_per_key_map_matches_reference(name):
    shape, _ = BIN_CHOICES_GOLDEN[name]
    choices = choice_maps(*shape)[0]
    for key in SplitMix64(4242).draws(1 << 64, 10_000):
        assert choices(key) == reference_bin_choices(key, *shape)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_per_key_map_mixes_many_lanes_as_the_reference(d):
    # d lanes per key, and keys whose word is rejected in exactly one lane:
    # at m = 1000 only the top 616 words of the 2^64 range are rejected
    seeds = tuple(SplitMix64(d).draws(1 << 64, d))
    for m in (1000, 2**63 + 1):
        choices = choice_maps(seeds, m, d)[0]
        for key in SplitMix64(5150).draws(1 << 64, 2000):
            assert choices(key) == reference_bin_choices(key, seeds, m, d)
    choices, batch = choice_maps(seeds, 1000, d)
    threshold = (1 << 64) - (1 << 64) % 1000
    for lane in range(d):
        for word in (threshold, threshold + 1, (1 << 64) - 1):
            key = wang_unmix64(word) ^ seeds[lane]
            rejected = [wang_mix64(key ^ seed) >= threshold for seed in seeds]
            assert rejected == [i == lane for i in range(d)]
            assert choices(key) == reference_bin_choices(key, seeds, 1000, d) == batch([key])[0]


def test_per_key_map_mixes_more_lanes_than_a_block():
    # d = _LANES + 1 lanes per key, past the lane masks built up front
    d = _LANES + 1
    seeds = tuple(SplitMix64(d).draws(1 << 64, d))
    choices = choice_maps(seeds, 1000, d)[0]
    for key in SplitMix64(5151).draws(1 << 64, 20):
        assert choices(key) == reference_bin_choices(key, seeds, 1000, d)


@pytest.mark.parametrize("name", list(BIN_CHOICES_GOLDEN))
@pytest.mark.parametrize("count", [0, 1, _LANES, _LANES + 1, 2 * _LANES + 1])
def test_batch_map_equals_per_key_map(name, count):
    # the m2^63+1 shape re-mixes about half the words of every block
    shape, expected = BIN_CHOICES_GOLDEN[name]
    choices, batch = choice_maps(*shape)
    assert batch(_GOLDEN_KEYS) == expected
    keys = SplitMix64(2718).draws(1 << 64, count)
    assert batch(keys) == [choices(k) for k in keys]


_WIDE_KEYS = [0, -1, 2**64 - 1, 2**64 + 5]


@pytest.mark.parametrize("name", list(BIN_CHOICES_GOLDEN))
def test_batch_map_takes_keys_through_their_low_64_bits(name):
    shape, expected = BIN_CHOICES_GOLDEN[name]
    choices, batch = choice_maps(*shape)
    assert batch(_WIDE_KEYS) == [expected[0], expected[3], expected[3], choices(5)]
    # keys outside [0, 2^64) on both sides of a block edge
    keys = SplitMix64(3141).draws(1 << 64, _LANES - 2) + _WIDE_KEYS
    assert batch(keys) == [choices(k) for k in keys]


@pytest.mark.parametrize("span", [2**63 + 1, 3 * 2**62, 1000])
def test_batch_map_rejects_from_the_exact_threshold(span):
    # keys whose first mixed word is just below, at and far above the
    # threshold, each alone in a block or among keys that every choice
    # accepts, at the first, a middle and the last lane
    shape = (_SEEDS2, span, 2, None)
    choices, batch = choice_maps(*shape)
    threshold = (1 << 64) - (1 << 64) % span
    fillers = [
        k for k in SplitMix64(1618).draws(1 << 64, 8 * _LANES)
        if all(wang_mix64(k ^ s) < threshold for s in _SEEDS2)
    ][: _LANES - 1]
    assert len(fillers) == _LANES - 1
    for word in (threshold - 1, threshold, (1 << 64) - 1):
        key = wang_unmix64(word) ^ _SEEDS2[0]
        assert wang_mix64(key ^ _SEEDS2[0]) == word
        assert batch([key]) == [choices(key)] == [reference_bin_choices(key, *shape)]
        for lane in (0, _LANES // 2 - 1, _LANES - 1):
            keys = fillers[:lane] + [key] + fillers[lane:]
            assert batch(keys) == [choices(k) for k in keys]


@pytest.mark.parametrize(
    "args, message",
    [
        (((1, 2), 0, 2), "m must be >= 1"),
        (((1,), 10, 2), "need 2 seeds, got 1"),
        (((1, 2, 3), 10, 3, 4), "partitioned tables use d = 2"),
        (((1, 2), 10, 2, 0), "partition boundary must split the bins"),
        (((1, 2), 10, 2, 10), "partition boundary must split the bins"),
        (((1, 2), 2**64 + 1, 2), "cannot draw uniformly"),
        (((1,), 10, 1), "d must be >= 2"),
        (((1, 2, 3), 10, 2), "need 2 seeds, got 3"),
    ],
)
def test_per_key_map_rejects_bad_shapes(args, message):
    with pytest.raises(ValueError, match=message):
        choice_maps(*args)
    with pytest.raises(ValueError, match=message):
        bin_choices(1, *args)


def test_per_key_map_spans_2_64_bins():
    # a span of 2^64 rejects no word, so each choice is the mixed key itself
    choices = choice_maps((1, 2), 1 << 64, 2)[0]
    assert [choices(k) for k in _GOLDEN_KEYS] == [(wang_mix64(k ^ 1), wang_mix64(k ^ 2)) for k in _GOLDEN_KEYS]


def test_bin_choices_uniformity_chi_square():
    # hashed by the batch map, which gives the per-key map's bins
    # (test_batch_map_equals_per_key_map)
    m = 1024
    seeds = (0x1234_5678, 0x9ABC_DEF0)
    counts = [0] * m
    rng = SplitMix64(2)
    samples = 1_000_000
    batch = choice_maps(seeds, m, 2)[1]
    for _ in range(samples // 1000):
        for first, _ in batch(rng.draws(1 << 64, 1000)):
            counts[first] += 1
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
    # int(token, 16) takes a sign or an underscore; a key is bare hex digits
    for token in ("-1", "+2", "f_f", "0x-3"):
        path.write_text(f"ff\n{token}\n")
        with pytest.raises(KeyFormatError, match=r"bad\.hex:2: bad hex token"):
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


def test_trace_experiment_over_no_keys():
    report = run_trace_experiment((), 10, 2, 3, 1)
    assert (report.n, report.overflow_min, report.overflow_max, report.inserted_mean) == (0, 0.0, 0.0, 1.0)


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
    # rebuild each repeat, its seeds derived from (base seed, repeat), to
    # recover the spread
    stash_sizes = []
    for r in range(repeats):
        table = new_table(m, 2, RngSeed(13).derive(r).draws(1 << 64, 2))
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
        table = new_table(m, 2, rng.draws(1 << 64, 2))
        for key in stream:
            table.insert(key)
        if table.load_stats().stash_size > capacity:
            breaches += 1
    limit = repeats * 0.01 + 3 * math.sqrt(repeats * 0.01 * 0.99)
    assert breaches <= limit
