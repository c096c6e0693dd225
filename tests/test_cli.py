"""CLI surface: grammar, output formats, exit codes, determinism."""

import collections
import contextlib
import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuckoo_lab import __version__, cli, exact
from cuckoo_lab.asymptotics import gamma_d2
from cuckoo_lab.cli import _MODEL_FLAG, _NUMERIC, _REQUIRED, _render, run
from cuckoo_lab.exact import (
    expected_matching_d2,
    expected_matching_mixed_det,
    matching_upper_bound_d,
    stash_size_for_epsilon,
)
from cuckoo_lab.simulate import RngSeed, estimate_mu
from cuckoo_lab.exact import ModelParams
from cuckoo_lab.hashing import wang_mix64


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json(out: str) -> dict:
    return json.loads(out)


def _readme_commands():
    """Each README line that starts with ``cuckoo-lab``, as argv, without
    its ``> file`` redirection."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for line in readme.read_text().splitlines():
        if line.startswith("cuckoo-lab "):
            argv = shlex.split(line)[1:]
            yield argv[: argv.index(">")] if ">" in argv else argv


def test_readme_commands_parse_and_the_fast_ones_run(capsys):
    # simulate, trace and concentration at the README's sizes take seconds,
    # so they are only parsed
    commands = list(_readme_commands())
    assert {argv[0] for argv in commands} == {"exact", "asymptotic", "stash-size", "simulate", "trace", "concentration"}
    parser = cli._build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        if argv[0] in ("exact", "asymptotic", "stash-size"):
            code, _, err = _run(capsys, *argv)
            assert code == 0, (argv, err)


def test_exact_d2_example(capsys):
    code, out, _ = _run(capsys, "exact", "--n", "2", "--m", "2", "--model", "d2")
    assert code == 0
    rec = _json(out)
    assert rec["command"] == "exact"
    assert rec["results"]["mu"] == 1.875
    assert rec["results"]["stash_expected"] == 0.125
    assert rec["metadata"]["version"] == __version__


def test_exact_matches_library_exactly(capsys):
    code, out, _ = _run(capsys, "exact", "--n", "123", "--m", "177", "--model", "d2")
    assert code == 0
    assert _json(out)["results"]["mu"] == expected_matching_d2(123, 177).mu


def test_exact_bound_d_reports_where_its_series_stopped(capsys):
    code, out, err = _run(capsys, "exact", "--n", "10000", "--m", "10000", "--model", "bound-d", "--d", "3")
    assert code == 0, err
    bound = matching_upper_bound_d(10_000, 10_000, 3)
    assert _json(out)["results"]["mu"] == bound.mu
    assert _json(out)["results"]["truncated_at"] == bound.truncated_at == 61


def test_asymptotic_d2_example(capsys):
    code, out, _ = _run(capsys, "asymptotic", "--alpha", "1", "--model", "d2")
    assert code == 0
    rec = _json(out)
    assert rec["results"]["gamma"] == pytest.approx(0.8381, abs=5e-5)
    assert rec["results"]["gamma"] == gamma_d2(1.0).gamma


def test_asymptotic_partitioned_reports_branch(capsys):
    code, out, _ = _run(capsys, "asymptotic", "--alpha", "1", "--model", "partitioned", "--beta", "0.3")
    assert code == 0
    rec = _json(out)
    assert rec["results"]["t1"] > 0
    assert rec["results"]["t2"] > 0


def test_sweep_produces_grid_csv(capsys):
    code, out, _ = _run(capsys, "asymptotic", "--model", "d2", "--sweep", "alpha=0.1:2.0:0.1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 20
    alphas = [float(r["alpha"]) for r in rows]
    assert alphas[0] == pytest.approx(0.1)
    assert alphas[-1] == pytest.approx(2.0)
    gammas = [float(r["gamma"]) for r in rows]
    assert all(g == 1.0 for g, a in zip(gammas, alphas) if a <= 0.5)
    assert gammas[-1] < gammas[9] < 1.0


def test_formats_carry_identical_values(capsys):
    code, json_out, _ = _run(
        capsys, "exact", "--n", "50", "--m", "60", "--model", "d2", "--format", "json"
    )
    assert code == 0
    code, csv_out, _ = _run(
        capsys, "exact", "--n", "50", "--m", "60", "--model", "d2", "--format", "csv"
    )
    assert code == 0
    rec = _json(json_out)
    row = next(csv.DictReader(io.StringIO(csv_out)))
    assert float(row["mu"]) == rec["results"]["mu"]
    assert float(row["stash_expected"]) == rec["results"]["stash_expected"]
    assert row["command"] == rec["command"]


def test_simulate_matches_library(capsys):
    code, out, _ = _run(
        capsys,
        "simulate", "--n", "80", "--m", "80", "--model", "d2",
        "--trials", "40", "--seed", "3",
    )
    assert code == 0
    rec = _json(out)
    stats = estimate_mu(ModelParams.fixed2(80, 80), 40, RngSeed(3))
    assert rec["results"]["mean"] == stats.mean
    assert rec["results"]["std_error"] == stats.std_error
    assert rec["metadata"]["seed"] == 3


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--n", "60", "--m", "70", "--model", "fixed-d", "--d", "3",
            "--trials", "25", "--seed", "11")
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_stash_size(capsys):
    code, out, _ = _run(capsys, "stash-size", "--n", "100", "--m", "100", "--epsilon", "0.01")
    assert code == 0
    rec = _json(out)
    assert rec["results"]["stash_slots"] == math.ceil(rec["results"]["stash_real"])


def test_trace_synthetic(capsys):
    code, out, _ = _run(
        capsys, "trace", "--synthetic", "300", "--m", "300", "--repeats", "3", "--seed", "5"
    )
    assert code == 0
    rec = _json(out)
    assert rec["results"]["n"] == 300
    assert rec["results"]["inserted_mean"] + rec["results"]["overflow_mean"] == pytest.approx(1.0)


def test_trace_means_are_exact_ratios(capsys):
    # one bin holds one of five keys in each repeat: 1 - 0.8 would print
    # 0.19999999999999996
    code, out, _ = _run(capsys, "trace", "--synthetic", "5", "--m", "1", "--repeats", "2")
    assert code == 0
    results = _json(out)["results"]
    assert (results["overflow_mean"], results["inserted_mean"]) == (0.8, 0.2)


def test_exact_keeps_the_chosen_bins_below_an_ulp_of_m(capsys):
    # at m = 2^64 the bins no key chooses, m (1 - 1/m)^(2n), round to m, and
    # mu, formed as m minus them, printed 0.0; the chosen bins are now their
    # own term.  What is left is the rounding of the s = 1 row, exp of a log
    # near -ln m = -44: a few parts in 1e15
    for model in (["d2"], ["mixed-det", "--a", "2"], ["mixed-rand", "--p", "0.5"],
                  ["bound-d", "--d", "3"], ["partitioned", "--beta", "0.5"]):
        for n in (1, 3):
            code, out, _ = _run(capsys, "exact", "--n", str(n), "--m", str(1 << 64), "--model", *model)
            assert code == 0
            results = _json(out)["results"]
            assert results["mu"] == pytest.approx(n, rel=1e-14), (model, n)
            assert results["stash_expected"] == pytest.approx(0.0, abs=1e-14), (model, n)


def test_trace_from_file(tmp_path, capsys):
    path = tmp_path / "keys.hex"
    path.write_text("".join(f"{k:x}\n" for k in range(500)))
    code, out, _ = _run(
        capsys, "trace", "--input", str(path), "--m", "400", "--repeats", "2", "--seed", "9"
    )
    assert code == 0
    assert _json(out)["results"]["n"] == 500


def test_trace_keep_duplicates(tmp_path, capsys):
    path = tmp_path / "dups.hex"
    path.write_text("a\na\nb\n")
    code, out, _ = _run(
        capsys, "trace", "--input", str(path), "--m", "16", "--repeats", "1",
        "--seed", "1", "--keep-duplicates",
    )
    assert code == 0
    assert _json(out)["results"]["n"] == 3
    # without the flag a repeated key is dropped
    code, out, _ = _run(capsys, "trace", "--input", str(path), "--m", "16", "--repeats", "1", "--seed", "1")
    assert code == 0
    assert _json(out)["results"]["n"] == 2


def test_trace_keep_duplicates_with_colliding_stream(tmp_path, capsys):
    # the second 5 disambiguates to 5 ^ wang_mix64(1), which is the third key
    assert 5 ^ wang_mix64(1) == 0x5BCA7C69B794F8CB
    path = tmp_path / "collide.hex"
    path.write_text("5\n5\n5bca7c69b794f8cb\n")
    code, out, err = _run(
        capsys, "trace", "--input", str(path), "--m", "16", "--repeats", "1",
        "--seed", "1", "--keep-duplicates",
    )
    assert code == 0, err
    assert _json(out)["results"]["n"] == 3


def test_concentration(capsys):
    code, out, _ = _run(
        capsys,
        "concentration", "--n", "100", "--m", "100", "--lambda", "2",
        "--trials", "150", "--seed", "2",
    )
    assert code == 0
    rec = _json(out)
    assert rec["results"]["bound"] == pytest.approx(2 * math.exp(-2), rel=1e-12)
    assert rec["results"]["empirical_fraction"] <= rec["results"]["bound"]


def test_round_flag_snaps_parameters(capsys):
    # a*n = 1.3 * 3 is not integral; --round snaps a to 4/3
    code, out, err = _run(
        capsys, "exact", "--n", "3", "--m", "4", "--model", "mixed-det", "--a", "1.3"
    )
    assert code == 2
    code, out, _ = _run(
        capsys, "exact", "--n", "3", "--m", "4", "--model", "mixed-det", "--a", "1.3", "--round"
    )
    assert code == 0
    rec = _json(out)
    assert rec["parameters"]["a"] == pytest.approx(4 / 3)
    assert rec["results"]["mu"] == expected_matching_mixed_det(3, 4, 4 / 3).mu


def test_round_flag_snaps_beta(capsys):
    code, *_ = _run(
        capsys, "exact", "--n", "4", "--m", "10", "--model", "partitioned", "--beta", "0.33"
    )
    assert code == 2
    code, out, _ = _run(
        capsys, "exact", "--n", "4", "--m", "10", "--model", "partitioned",
        "--beta", "0.33", "--round",
    )
    assert code == 0
    assert _json(out)["parameters"]["beta"] == pytest.approx(0.3)


def test_round_sweep_rows_match_standalone_runs(capsys):
    # each grid point snaps a from the flag's value, not from the last point's
    flags = ("exact", "--m", "1000", "--model", "mixed-det", "--a", "1.5", "--round")
    code, out, err = _run(capsys, *flags, "--sweep", "n=101:104:1")
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["n"] for r in rows] == ["101", "102", "103", "104"]
    for row in rows:
        code, out, err = _run(capsys, *flags, "--n", row["n"], "--format", "csv")
        assert code == 0, err
        assert list(csv.DictReader(io.StringIO(out))) == [row]


@pytest.mark.parametrize(
    "flags, sweep",
    [
        (("simulate", "--n", "20", "--m", "20", "--model", "d2"), "trials=1:3:1"),
        (("simulate", "--n", "20", "--m", "20", "--model", "d2", "--trials", "3"), "seed=1:3:1"),
        (("trace", "--synthetic", "100", "--repeats", "1"), "m=100:300:100"),
        (("trace", "--synthetic", "100", "--m", "100"), "repeats=1:3:1"),
        (("trace", "--synthetic", "100", "--m", "100", "--repeats", "1"), "seed=1:2:1"),
        (("trace", "--synthetic", "100", "--m", "100", "--repeats", "1"), "beta=0.2:0.4:0.1"),
        (("concentration", "--n", "10", "--m", "10", "--lambda", "1"), "trials=100:101:1"),
        # integers above 2^53, which a float rounds
        (("simulate", "--n", "3", "--m", "3", "--model", "d2", "--trials", "2"), "seed=9007199254740993:9007199254740995:2"),
        (("exact", "--m", "10", "--model", "d2"), "n=9007199254740993:9007199254740995:2"),
    ],
)
def test_sweep_of_any_numeric_flag_matches_standalone_runs(capsys, flags, sweep):
    # a required flag that the sweep sets need not also be given
    code, out, err = _run(capsys, *flags, "--sweep", sweep)
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    name, _, grid = sweep.partition("=")
    assert len({row[name] for row in rows}) == len(rows) > 1
    # the rows walk the grid's decimals exactly
    start, stop, step = (Fraction(v) for v in grid.split(":"))
    points = [start + k * step for k in range((stop - start) // step + 1)]
    if _NUMERIC[flags[0]][name] is int:
        assert [int(row[name]) for row in rows] == points
    else:
        assert [float(row[name]) for row in rows] == [float(p) for p in points]
    for row in rows:
        code, out, err = _run(capsys, *flags, f"--{name}", row[name], "--format", "csv")
        assert code == 0, err
        assert list(csv.DictReader(io.StringIO(out))) == [row]


def test_integer_sweep_points_above_2_53_are_exact(capsys):
    # 2^60 to 2^60 + 10 is one float, but eleven integers
    code, out, err = _run(capsys, "exact", "--m", "10", "--model", "d2", "--sweep", f"n={2**60}:{2**60 + 10}:1")
    assert code == 0, err
    assert [int(row["n"]) for row in csv.DictReader(io.StringIO(out))] == list(range(2**60, 2**60 + 11))
    code, out, err = _run(capsys, "exact", "--n", "1", "--model", "d2", "--sweep", f"m={2**64 + 1}:{2**64 + 1}:1")
    assert code == 0, err
    assert [row["m"] for row in csv.DictReader(io.StringIO(out))] == [str(2**64 + 1)]


@pytest.mark.parametrize(
    "flags, sweep, printed",
    [
        (("--model", "d2"), "alpha=0.1:2.0:0.1", [repr(k / 10) for k in range(1, 21)]),
        (("--model", "partitioned", "--alpha", "0.75"), "beta=0.05:0.95:0.05", [repr(k / 20) for k in range(1, 20)]),
        # the third point, 0.9999999999999999, lies above STOP
        (("--model", "d2"), "alpha=0.3333333333333333:0.9999999998:0.3333333333333333",
         ["0.3333333333333333", "0.6666666666666666"]),
    ],
)
def test_float_sweep_points_are_the_decimals_as_written(capsys, flags, sweep, printed):
    code, out, err = _run(capsys, "asymptotic", *flags, "--sweep", sweep)
    assert code == 0, err
    name = sweep.partition("=")[0]
    assert [row[name] for row in csv.DictReader(io.StringIO(out))] == printed


def test_mixed_det_accepts_what_it_constructs(capsys):
    # a*n passes the integrality check, while (a-1)*n = 1e-8 would not
    runs = [
        _run(capsys, "exact", "--model", "mixed-det", "--n", "1000", "--m", "1000", "--a", a)
        for a in ("1.00000000001", "1")
    ]
    assert [code for code, _, _ in runs] == [0, 0], runs
    assert _json(runs[0][1])["results"]["mu"] == _json(runs[1][1])["results"]["mu"]


@pytest.mark.parametrize("n, m", [(2, 1), (0, 3)])
def test_stash_size_at_subnormal_epsilon(capsys, n, m):
    # ln(1/epsilon) overflows at a subnormal epsilon, -ln(epsilon) does not
    code, out, err = _run(capsys, "stash-size", "--n", str(n), "--m", str(m), "--epsilon", "5e-324")
    assert code == 0, err
    results = json.loads(out, parse_constant=_reject_constant)["results"]
    assert results["stash_real"] == stash_size_for_epsilon(n, m, 5e-324)
    assert results["stash_slots"] == math.ceil(results["stash_real"])


def test_exact_commands_answer_up_to_the_float_range(capsys):
    # the mixed models weigh a row by n - s or a*n choices, not 2n, and the
    # stash margin's 2 n ln(1/epsilon) overflows where its root does not
    for argv in (
        ("exact", "--n", str(10**308), "--m", "3", "--model", "mixed-rand", "--p", "0.5"),
        ("exact", "--n", str(10**308), "--m", "3", "--model", "mixed-det", "--a", "1.5"),
        ("stash-size", "--n", str(10**307), "--m", "3", "--epsilon", "1e-300"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 0, (argv, err)
    # the margin, ~1e155, is below an ulp of the stash
    results = json.loads(out, parse_constant=_reject_constant)["results"]
    assert results["stash_real"] == stash_size_for_epsilon(10**307, 3, 1e-300) == 1e307
    assert results["stash_slots"] == math.ceil(results["stash_real"])


def test_trace_rejects_fractional_bank(capsys):
    code, _, err = _run(
        capsys, "trace", "--synthetic", "1", "--m", "50", "--repeats", "1", "--beta", "0.25"
    )
    assert code == 2
    assert "beta*m = 12.5 is not an integer" in err


# the exact entry points a tracer wraps by name, and the commands that
# must reach each exactly once through a module attribute
_TRACED_EXACT = (
    "expected_matching_d2",
    "expected_matching_mixed_det",
    "expected_matching_mixed_rand",
    "expected_matching_partitioned",
    "matching_upper_bound_d",
    "stash_size_for_epsilon",
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("exact", "--model", "d2"), {"expected_matching_d2": 1}),
        (("exact", "--model", "mixed-det", "--a", "1.5"), {"expected_matching_mixed_det": 1}),
        (("exact", "--model", "mixed-rand", "--p", "0.3"), {"expected_matching_mixed_rand": 1}),
        (("exact", "--model", "partitioned", "--beta", "0.5"), {"expected_matching_partitioned": 1}),
        (("exact", "--model", "bound-d", "--d", "3"), {"matching_upper_bound_d": 1}),
        (("stash-size", "--epsilon", "1e-6"),
         {"stash_size_for_epsilon": 1, "expected_matching_d2": 1}),
    ],
)
def test_cli_reaches_traced_exact_functions(capsys, monkeypatch, argv, expected):
    # patch every cuckoo_lab module attribute bound to each function, the
    # way a tracer that wraps them by name does
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _TRACED_EXACT:
        original = getattr(exact, name)
        wrapper = counted(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "cuckoo_lab" or mod_name.startswith("cuckoo_lab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    code, _, err = _run(capsys, *argv, "--n", "40", "--m", "50")
    assert code == 0, err
    assert calls == expected


def test_exact_commands_take_more_bins_than_a_list_holds(capsys):
    # the series allocate nothing per bin
    for argv in (
        ("exact", "--n", "1", "--m", str(2**64), "--model", "d2"),
        ("stash-size", "--n", "1", "--m", str(2**64), "--epsilon", "0.5"),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 0, (argv, err)


def test_argument_errors_exit_2(capsys, tmp_path):
    keys = tmp_path / "keys.hex"
    keys.write_text("1\n2\n")
    cases = [
        # --sweep sets --synthetic beside --input, which argparse cannot see
        ("trace", "--input", str(keys), "--m", "10", "--repeats", "1", "--sweep", "synthetic=10:20:10"),
        ("exact", "--n", "2", "--m", "2", "--model", "mixed-det"),  # missing --a
        ("exact", "--n", "2", "--m", "2", "--model", "d2", "--beta", "0.5"),  # stray flag
        ("exact", "--n", "2", "--m", "2", "--model", "nope"),  # bad choice (argparse)
        ("asymptotic", "--model", "d2"),  # missing --alpha
        ("asymptotic", "--alpha", "1", "--model", "d2", "--sweep", "junk"),
        ("asymptotic", "--alpha", "1", "--model", "d2", "--sweep", "beta=0:1:0.1"),  # beta clashes with d2
        ("exact", "--n", "2", "--m", "2"),  # missing --model
        ("no-such-command",),
        ("asymptotic", "--alpha", "nan", "--model", "d2"),  # non-finite floats
        ("asymptotic", "--alpha", "inf", "--model", "d2"),
        ("concentration", "--n", "10", "--m", "10", "--lambda", "nan", "--trials", "5"),
        ("asymptotic", "--model", "d2", "--sweep", "alpha=0:inf:1"),
        ("simulate", "--n", "20", "--m", "20", "--model", "mixed-det", "--a", "1.5",
         "--p", "0.3", "--beta", "0.5", "--trials", "2"),  # flags of other models
        ("trace", "--synthetic", "10", "--m", "0", "--repeats", "1"),  # no bins
        ("trace", "--synthetic", "10", "--m", "10", "--d", "1", "--repeats", "1"),  # one choice
        ("simulate", "--n", "10", "--m", "10", "--model", "partitioned", "--beta", "0",
         "--trials", "2"),  # an empty bank
        ("simulate", "--n", "10", "--m", "10", "--model", "partitioned", "--beta", "1",
         "--trials", "2"),
        ("simulate", "--n", "10", "--m", "10", "--model", "d2", "--trials", "0"),
        # beta*m or a*n beyond the float range: out of range, never rounded
        ("trace", "--synthetic", "1", "--m", "50", "--repeats", "1", "--beta", "1e308"),
        ("exact", "--model", "partitioned", "--n", "50", "--m", "2", "--beta", "1e308", "--round"),
        ("exact", "--model", "mixed-det", "--n", "50", "--m", "2", "--a", "1e308", "--round"),
        # grids whose point count overflows a float
        ("asymptotic", "--model", "d2", "--sweep", "alpha=1:1e308:1e-300"),
        ("asymptotic", "--model", "d2", "--sweep", "alpha=-1e308:1e308:1"),
        ("exact", "--model", "d2", "--m", "10", "--sweep", "n=1:3:1e-320"),
        ("exact", "--model", "d2", "--m", "10", "--sweep", "n=1:2:0.5"),  # n = 1.5
        ("trace", "--synthetic", "-1", "--m", "10", "--repeats", "1"),
        # more bins than 64-bit words reach without bias
        ("simulate", "--n", "1", "--m", str(2**64 + 1), "--model", "d2", "--trials", "1"),
        ("simulate", "--n", "1", "--m", str(2**64 + 1), "--model", "mixed-rand", "--p", "0.5",
         "--trials", "1"),
        ("trace", "--synthetic", "3", "--m", str(2**64 + 1), "--repeats", "1"),
        # more bins than a list can hold
        ("simulate", "--n", "1", "--m", str(2**64), "--model", "d2", "--trials", "1"),
        ("simulate", "--n", "1", "--m", str(2**64), "--model", "fixed-d", "--d", "3", "--trials", "1"),
        ("simulate", "--m", str(2**64), "--model", "d2", "--trials", "1", "--sweep", "n=1:2:1"),
        ("trace", "--synthetic", "3", "--m", str(2**64), "--repeats", "1"),
        ("concentration", "--n", "1", "--m", str(2**64), "--lambda", "1", "--trials", "100"),
        # more keys or bins than a float holds
        ("exact", "--n", "3", "--m", str(10**400), "--model", "d2"),
        ("exact", "--n", "3", "--m", str(10**400), "--model", "partitioned", "--beta", "0.5"),
        ("stash-size", "--n", "3", "--m", str(10**400), "--epsilon", "0.5"),
        ("exact", "--n", str(10**400), "--m", "3", "--model", "mixed-rand", "--p", "0.5"),
        # more choices (d*n, a*n) or bank pairs (beta*m * (m - beta*m)) than a float holds
        ("exact", "--n", str(10**308), "--m", "3", "--model", "d2"),
        ("exact", "--n", str(10**308), "--m", "3", "--model", "bound-d", "--d", "3"),
        ("exact", "--n", str(10**308), "--m", "3", "--model", "mixed-det", "--a", "2"),
        ("stash-size", "--n", str(10**308), "--m", "3", "--epsilon", "0.1"),
        ("exact", "--n", "3", "--m", str(10**308), "--model", "partitioned", "--beta", "0.5"),
        ("exact", "--n", "3", "--m", str(10**160), "--model", "partitioned", "--beta", "0.5"),
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == 2, (argv, err)
    # each message names the CLI's own flags and commands
    worded = [
        (("exact", "--n", "4", "--m", "4", "--model", "bound-d", "--d", "1"), "error: d must be >= 2\n"),
        (("exact", "--n", "4", "--m", "4", "--model", "partitioned", "--beta", "0"), "use asymptotic --model partitioned"),
        # at n = 0 too: the model, not the key count, needs both banks
        (("simulate", "--n", "0", "--m", "10", "--model", "partitioned", "--beta", "0", "--trials", "1"),
         "use asymptotic --model partitioned"),
        (("stash-size", "--n", str(10**400), "--m", "3", "--epsilon", "0.5"), "error: n must be at most"),
        (("exact", "--n", str(10**308), "--m", "3", "--model", "d2"), "error: d*n with d = 2 must be at most"),
        (("exact", "--n", str(10**308), "--m", "3", "--model", "bound-d", "--d", "3"),
         "error: d*n with d = 3 must be at most"),
        (("exact", "--n", "3", "--m", str(10**308), "--model", "partitioned", "--beta", "0.5"),
         "error: beta*m * (m - beta*m) must be at most"),
    ]
    for argv, message in worded:
        code, _, err = _run(capsys, *argv)
        assert code == 2 and message in err, (argv, err)


def test_bins_beyond_memory_exit_2():
    # each command asks for lists of 1e10 bins, about 80 GB, so each runs
    # only in a process whose address space is capped, where the first such
    # list fails at once
    import resource

    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    env = dict(os.environ, PYTHONPATH=str(Path(exact.__file__).parents[1]))
    env.pop("CUCKOO_LAB_THREADS", None)
    for argv in (
        ("simulate", "--n", "1", "--m", "10000000000", "--model", "d2", "--trials", "1"),
        ("trace", "--synthetic", "1", "--m", "10000000000", "--repeats", "1"),
        ("concentration", "--n", "1", "--m", "10000000000", "--lambda", "1", "--trials", "100"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cuckoo_lab.cli", *argv],
            env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and "--m" in proc.stderr, (argv, proc.stderr)


def test_trace_binary_file_read_as_hex_lines_exits_2(capsys, tmp_path):
    path = tmp_path / "keys.bin"
    path.write_bytes(b"".join(k.to_bytes(8, "little") for k in (1 << 63, 5)))
    code, out, err = _run(capsys, "trace", "--input", str(path), "--m", "10", "--repeats", "1")
    assert code == 2 and out == ""
    assert f"{path}:1: not ASCII text" in err


def test_asymptotic_partitioned_at_large_alpha(capsys):
    code, out, err = _run(
        capsys, "asymptotic", "--model", "partitioned", "--beta", "0.5", "--alpha", "1000"
    )
    assert code == 0, err
    assert _json(out)["results"]["gamma"] == pytest.approx(1 / 1000, rel=1e-15)


def test_asymptotic_partitioned_at_subnormal_beta(capsys):
    # t2 = alpha/beta e^(-alpha) is beyond the float range, gamma is not
    code, out, err = _run(
        capsys, "asymptotic", "--model", "partitioned", "--alpha", "1e-10", "--beta", "5e-324"
    )
    assert code == 0, err
    results = json.loads(out, parse_constant=_reject_constant)["results"]
    assert results["gamma"] == pytest.approx(-math.expm1(-1e-10) / 1e-10, rel=1e-12, abs=0)
    assert results["t1"] == 0.0
    assert results["t2"] is None


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize(
    "model_flags",
    [("d2",), ("mixed", "--a", "1.5"), ("mixed-rand", "--p", "0.5"), ("partitioned", "--beta", "0.3")],
)
def test_asymptotic_at_huge_alpha(capsys, model_flags):
    code, out, err = _run(capsys, "asymptotic", "--alpha", "1e308", "--model", *model_flags)
    assert code == 0, err
    assert _json(out)["results"]["gamma"] == pytest.approx(1e-308, rel=1e-12, abs=0)


def test_csv_refuses_rows_whose_columns_differ():
    records = [
        {"command": "asymptotic", "parameters": {"model": "d2"}, "results": {"gamma": 1.0}, "metadata": {}},
        {"command": "asymptotic", "parameters": {"model": "d2"}, "results": {"gamma": 1.0, "t1": 1.0}, "metadata": {}},
    ]
    with pytest.raises(RuntimeError, match="inconsistent sweep columns"):
        _render(records, "csv", True)


def test_json_refuses_non_finite_floats(capsys, monkeypatch):
    for value in (math.nan, math.inf, -math.inf):
        record = {"command": "asymptotic", "parameters": {}, "results": {"gamma": value}, "metadata": {}}
        with pytest.raises(ValueError):
            _render([record], "json", False)
    # the command exits 2 and prints nothing
    monkeypatch.setattr(cli, "gamma_d2", lambda alpha: types.SimpleNamespace(gamma=math.nan, closed_form_used=True))
    assert _run(capsys, "asymptotic", "--alpha", "1", "--model", "d2")[:2] == (2, "")


def test_float_fields_print_as_floats(capsys):
    # an integral float prints as 67.0, not as the JSON integer 67
    argv = ("simulate", "--n", "70", "--m", "70", "--model", "fixed-d", "--d", "3", "--trials", "5", "--seed", "11")
    results = _json(_run(capsys, *argv)[1])["results"]
    assert [results[k] for k in ("mean", "min", "max")] == [67.0, 66.0, 68.0]
    assert {type(results[k]) for k in ("mean", "min", "max")} == {float}
    rec = _json(_run(capsys, "asymptotic", "--alpha", "1", "--model", "d2")[1])
    assert type(rec["parameters"]["alpha"]) is float
    rec = _json(_run(capsys, "asymptotic", "--model", "partitioned", "--alpha", "1e-10", "--beta", "5e-324")[1])
    assert rec["parameters"]["beta"] == 5e-324
    assert type(rec["results"]["t1"]) is float


def test_runtime_errors_exit_1(capsys):
    code, _, err = _run(
        capsys, "trace", "--input", "/no/such/file", "--m", "8", "--repeats", "1"
    )
    assert code == 1
    assert err


def test_sweep_rejects_unknown_parameter(capsys):
    code, _, err = _run(
        capsys, "asymptotic", "--alpha", "1", "--model", "d2", "--sweep", "zeta=0:1:0.5"
    )
    assert code == 2
    assert "zeta" in err


@pytest.mark.parametrize("grid, ns", [("n=10:30:10", [10, 20, 30]), ("n=10:10:1", [10])],
                         ids=["three-points", "one-point"])
def test_sweep_json_array(capsys, grid, ns):
    # a sweep prints an array however many points its grid has
    code, out, _ = _run(capsys, "exact", "--model", "d2", "--m", "50", "--sweep", grid, "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["parameters"]["n"] for r in records] == ns
    for r in records:
        assert r["results"]["mu"] == expected_matching_d2(r["parameters"]["n"], 50).mu


# stdout of the CLI, byte for byte: the layout of the records and each
# float in its shortest round-trip form
_PINNED = [
    ('exact --n 2 --m 2 --model d2',
     '{"command": "exact", "parameters": {"model": "d2", "n": 2, "m": 2}, "results": {"mu": 1.875, "stash_expected": 0.125, "mu_over_n": 0.9375, "truncated_at": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('exact --n 30 --m 40 --model mixed-det --a 1.5 --format csv',
     'command,model,n,m,a,mu,stash_expected,mu_over_n,truncated_at,version\nexact,mixed-det,30,40,1.5,24.98278924627961,5.017210753720391,0.8327596415426536,,0.1.0\n'),
    ('exact --n 4 --m 10 --model partitioned --beta 0.33 --round',
     '{"command": "exact", "parameters": {"model": "partitioned", "n": 4, "m": 10, "beta": 0.3}, "results": {"mu": 3.9885541518194576, "stash_expected": 0.011445848180542395, "mu_over_n": 0.9971385379548644, "truncated_at": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('exact --n 50 --m 50 --model bound-d --d 3',
     '{"command": "exact", "parameters": {"model": "bound-d", "n": 50, "m": 50, "d": 3}, "results": {"mu": 47.57450709418123, "stash_expected": 2.4254929058187713, "mu_over_n": 0.9514901418836246, "truncated_at": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('exact --m 50 --model mixed-rand --p 0.3 --sweep n=10:30:10',
     'command,model,n,m,p,mu,stash_expected,mu_over_n,truncated_at,version\nexact,mixed-rand,10,50,0.3,9.525880765130275,0.4741192348697254,0.9525880765130275,,0.1.0\nexact,mixed-rand,20,50,0.3,17.87702312951667,2.122976870483331,0.8938511564758335,,0.1.0\nexact,mixed-rand,30,50,0.3,24.92417776217178,5.07582223782822,0.830805925405726,,0.1.0\n'),
    ('asymptotic --alpha 1 --model partitioned --beta 0.3',
     '{"command": "asymptotic", "parameters": {"model": "partitioned", "alpha": 1.0, "beta": 0.3}, "results": {"gamma": 0.8072088548048635, "closed_form": false, "t1": 0.12613112418768965, "t2": 0.9062251444004882}, "metadata": {"version": "0.1.0"}}\n'),
    ('asymptotic --model partitioned --alpha 1e-10 --beta 5e-324',
     '{"command": "asymptotic", "parameters": {"model": "partitioned", "alpha": 1e-10, "beta": 5e-324}, "results": {"gamma": 0.99999999995, "closed_form": false, "t1": 0.0, "t2": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('asymptotic --model mixed --a 1.5 --sweep alpha=0.5:1.5:0.5 --format json',
     '[{"command": "asymptotic", "parameters": {"model": "mixed", "alpha": 0.5, "a": 1.5}, "results": {"gamma": 0.9036998685949807, "closed_form": false}, "metadata": {"version": "0.1.0"}},\n {"command": "asymptotic", "parameters": {"model": "mixed", "alpha": 1.0, "a": 1.5}, "results": {"gamma": 0.7438047674232506, "closed_form": false}, "metadata": {"version": "0.1.0"}},\n {"command": "asymptotic", "parameters": {"model": "mixed", "alpha": 1.5, "a": 1.5}, "results": {"gamma": 0.5897191924016837, "closed_form": false}, "metadata": {"version": "0.1.0"}}]\n'),
    ('simulate --n 70 --m 70 --model fixed-d --d 3 --trials 5 --seed 11',
     '{"command": "simulate", "parameters": {"model": "fixed-d", "n": 70, "m": 70, "trials": 5, "d": 3}, "results": {"mean": 67.0, "std_dev": 0.7071067811865476, "min": 66.0, "max": 68.0, "std_error": 0.31622776601683794, "mean_over_n": 0.9571428571428572}, "metadata": {"version": "0.1.0", "seed": 11}}\n'),
    ('simulate --n 40 --m 40 --model partitioned --beta 0.5 --trials 5 --seed 2 --format csv',
     'command,model,n,m,trials,beta,mean,std_dev,min,max,std_error,mean_over_n,version,seed\nsimulate,partitioned,40,40,5,0.5,34.6,1.140175425099138,33.0,36.0,0.5099019513592785,0.865,0.1.0,2\n'),
    ('stash-size --n 100 --m 100 --epsilon 0.01',
     '{"command": "stash-size", "parameters": {"n": 100, "m": 100, "epsilon": 0.01}, "results": {"stash_real": 46.37613187821596, "stash_slots": 47}, "metadata": {"version": "0.1.0"}}\n'),
    ('trace --synthetic 300 --m 300 --repeats 2 --seed 5 --beta 0.5',
     '{"command": "trace", "parameters": {"source": "synthetic", "m": 300, "d": 2, "repeats": 2, "beta": 0.5}, "results": {"n": 300, "overflow_mean": 0.16, "overflow_min": 0.14333333333333334, "overflow_max": 0.17666666666666667, "inserted_mean": 0.84}, "metadata": {"version": "0.1.0", "seed": 5}}\n'),
    ('concentration --n 20 --m 20 --lambda 1 --trials 100 --seed 2 --one-sided --format csv',
     'command,n,m,lambda,trials,one_sided,empirical_fraction,bound,version,seed\nconcentration,20,20,1.0,100,true,0.0,0.6065306597126334,0.1.0,2\n'),
]


@pytest.mark.parametrize("argv, expected", _PINNED, ids=[argv for argv, _ in _PINNED])
def test_cli_stdout_is_pinned(capsys, argv, expected):
    code, out, err = _run(capsys, *argv.split())
    assert code == 0, err
    assert out == expected


def _csv_cell_value(cell: str, like: object) -> object:
    """A CSV cell read as the type of the JSON value ``like``."""
    if like is None:
        return None if cell == "" else cell
    if isinstance(like, bool):
        return {"true": True, "false": False}.get(cell, cell)
    if isinstance(like, str):
        return cell
    return json.loads(cell)


@pytest.mark.parametrize("argv", [argv for argv, _ in _PINNED])
def test_csv_cells_read_back_to_json_values(capsys, argv):
    words = argv.split()
    if "--format" in words:
        del words[words.index("--format") : words.index("--format") + 2]
    code, json_out, err = _run(capsys, *words, "--format", "json")
    assert code == 0, err
    code, csv_out, err = _run(capsys, *words, "--format", "csv")
    assert code == 0, err
    records = json.loads(json_out, parse_constant=_reject_constant)
    records = records if isinstance(records, list) else [records]
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert len(rows) == len(records) + 1
    for rec, row in zip(records, rows[1:]):
        flat = {"command": rec["command"], **rec["parameters"], **rec["results"], **rec["metadata"]}
        assert rows[0] == list(flat)
        for cell, value in zip(row, flat.values()):
            got = _csv_cell_value(cell, value)
            # repr tells 67 from 67.0 and tells every pair of distinct doubles apart
            assert (type(got), repr(got)) == (type(value), repr(value)), (cell, value)


def test_module_entry_point_exit_codes():
    env = dict(os.environ, PYTHONPATH=str(Path(exact.__file__).parents[1]))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cuckoo_lab.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )

    ok = cli("exact", "--n", "2", "--m", "2", "--model", "d2")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["results"]["mu"] == 1.875
    bad = cli("exact", "--n", "2", "--m", "2", "--model", "nope")
    assert bad.returncode == 2
    assert "invalid choice" in bad.stderr


@pytest.mark.parametrize("value", ["junk", "0", "-3", "2x"])
def test_bad_worker_count_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("CUCKOO_LAB_THREADS", value)
    code, out, err = _run(capsys, "simulate", "--n", "20", "--m", "20", "--model", "d2", "--trials", "3")
    assert code == 2
    assert out == ""
    assert "CUCKOO_LAB_THREADS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "60", "--m", "60", "--model", "fixed-d", "--d", "3", "--trials", "8", "--seed", "4"),
        ("trace", "--synthetic", "200", "--m", "200", "--repeats", "4", "--seed", "7"),
    ],
)
def test_worker_count_leaves_stdout_unchanged(argv):
    # the module entry point, run with the variable unset and set to 2 (on
    # a one-CPU machine the CPU cap leaves one worker and starts no pool)
    env = dict(os.environ, PYTHONPATH=str(Path(exact.__file__).parents[1]))
    env.pop("CUCKOO_LAB_THREADS", None)

    def stdout(**extra):
        proc = subprocess.run(
            [sys.executable, "-m", "cuckoo_lab.cli", *argv],
            env={**env, **extra}, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert stdout() == stdout(CUCKOO_LAB_THREADS="2")


# The argv fuzz draws each numeric flag from the edges of its range and
# beyond; counts stay small enough that a sweep keeps n, m <= 1000.
_FUZZ_REALS = (0.0, 5e-324, 1 - 1e-16, 1e308, -1.0, 0.3, 0.5, 1.0, 1.5, 2.0)
_FUZZ_INTS = {
    "n": (-1, 0, 1, 2, 7, 100, 998),
    "m": (-1, 0, 1, 2, 7, 100, 998),
    "synthetic": (-1, 0, 1, 7, 100, 998),
    "d": (0, 1, 2, 3, 5),
    "trials": (0, 1, 2, 18),
    "repeats": (0, 1, 3),
    "seed": (-1, 0, 7, 2**64 - 1, 2**64),
}
_FUZZ_MODELS = {
    "exact": ("d2", "mixed-det", "mixed-rand", "partitioned", "bound-d"),
    "asymptotic": ("d2", "mixed", "mixed-rand", "partitioned"),
    "simulate": ("d2", "mixed-det", "mixed-rand", "partitioned", "fixed-d"),
}
_FUZZ_SWITCHES = {
    "exact": ("--round",),
    "trace": ("--keep-duplicates", "--input-format=binary-u64-le"),
    "concentration": ("--one-sided",),
}


def _fuzz_values(command: str, name: str) -> tuple:
    if _NUMERIC[command][name] is int:
        # concentration needs at least 100 trials; n and m stay <= 20 there
        if command == "concentration":
            return {"trials": (0, 18, 100), "n": (0, 1, 20), "m": (0, 1, 20)}.get(name, _FUZZ_INTS[name])
        return _FUZZ_INTS[name]
    return _FUZZ_REALS


@pytest.fixture(scope="module")
def fuzz_key_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "keys.hex"
    path.write_text("".join(f"{k:x}\n" for k in (1, 2, 2, 3, 0xFFFFFFFFFFFFFFFF)))
    return str(path)


@settings(max_examples=200)
@given(data=st.data())
def test_fuzzed_argv_exits_0_with_strict_output_or_2(fuzz_key_file, data):
    command = data.draw(st.sampled_from(sorted(_NUMERIC)), label="command")
    argv = [command]
    own = None
    if command in _FUZZ_MODELS:
        model = data.draw(st.sampled_from(_FUZZ_MODELS[command]), label="model")
        argv += ["--model", model]
        own = _MODEL_FLAG[model]
    # mostly valid argv: the flags a run needs are usually given, the
    # flags of other models seldom, and the rest half the time
    for name in _NUMERIC[command]:
        if name in _REQUIRED[command] or name == own or (command, name) == ("trace", "synthetic"):
            odds = 7
        elif name in _MODEL_FLAG.values():
            odds = 1
        else:
            odds = 4
        if data.draw(st.integers(0, 7), label=f"give --{name}") < odds:
            argv += [f"--{name}", repr(data.draw(st.sampled_from(_fuzz_values(command, name)), label=name))]
    if command == "trace" and data.draw(st.integers(0, 3), label="give --input") == 0:
        argv += ["--input", fuzz_key_file]
    for switch in _FUZZ_SWITCHES.get(command, ()):
        if data.draw(st.booleans(), label=switch):
            argv.append(switch)
    points = 1
    if data.draw(st.booleans(), label="sweep"):
        applicable = [name for name in _NUMERIC[command] if name == own or name not in _MODEL_FLAG.values()]
        name = data.draw(st.sampled_from(applicable), label="swept")
        start = float(data.draw(st.sampled_from(_fuzz_values(command, name)), label="start"))
        # mostly steps that make a grid; 0 and -0.5 make none
        step = data.draw(st.sampled_from((1.0, 1.0, 0.5, 0.5, 5e-324, 0.0, -0.5)), label="step")
        stop = start + data.draw(st.integers(0, 2), label="points - 1") * step
        argv += ["--sweep", f"{name}={start!r}:{stop!r}:{step!r}"]
        # the grid the CLI walks, of the decimals as written; it exits 2 on
        # an empty or uncountable one
        if step > 0 and math.isfinite((stop - start) / step):
            points = (Fraction(repr(stop)) - Fraction(repr(start))) // Fraction(repr(step)) + 1
        else:
            points = 0
    fmt = data.draw(st.sampled_from((None, "json", "csv")), label="format")
    if fmt:
        argv += ["--format", fmt]

    # capsys is not reset between examples; capture each run apart
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "" and err.startswith(("error: ", "usage: ")), (argv, out, err)
        return
    if (fmt or ("csv" if "--sweep" in argv else "json")) == "json":
        records = json.loads(out, parse_constant=_reject_constant)
        assert isinstance(records, list) == ("--sweep" in argv), (argv, out)
        assert len(records if isinstance(records, list) else [records]) == points, (argv, out)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == points + 1, (argv, out)
        assert {len(row) for row in rows} == {len(rows[0])}, (argv, out)
        for cell in (cell for row in rows[1:] for cell in row):
            assert cell.lower().lstrip("+-") not in ("nan", "inf", "infinity"), (argv, out)
