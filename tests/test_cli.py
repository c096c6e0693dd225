"""CLI surface: grammar, output formats, exit codes, determinism."""

import collections
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuckoo_lab import __version__, exact
from cuckoo_lab.asymptotics import gamma_d2
from cuckoo_lab.cli import _json_value, run
from cuckoo_lab.exact import expected_matching_d2, expected_matching_mixed_det, stash_size_for_epsilon
from cuckoo_lab.simulate import RngSeed, estimate_mu
from cuckoo_lab.exact import ModelParams
from cuckoo_lab.hashing import wang_mix64


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json(out: str) -> dict:
    return json.loads(out)


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
    ],
)
def test_sweep_of_any_numeric_flag_matches_standalone_runs(capsys, flags, sweep):
    # a required flag that the sweep sets need not also be given
    code, out, err = _run(capsys, *flags, "--sweep", sweep)
    assert code == 0, err
    rows = list(csv.DictReader(io.StringIO(out)))
    name = sweep.split("=")[0]
    assert len({row[name] for row in rows}) == len(rows) > 1
    for row in rows:
        code, out, err = _run(capsys, *flags, f"--{name}", row[name], "--format", "csv")
        assert code == 0, err
        assert list(csv.DictReader(io.StringIO(out))) == [row]


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
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == 2, (argv, err)


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


def test_json_refuses_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _json_value({"x": value})


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


def test_sweep_json_array(capsys):
    code, out, _ = _run(
        capsys, "exact", "--model", "d2", "--m", "50", "--sweep", "n=10:30:10",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["parameters"]["n"] for r in records] == [10, 20, 30]
    for r in records:
        assert r["results"]["mu"] == expected_matching_d2(r["parameters"]["n"], 50).mu


# stdout of the CLI, byte for byte, as it was before the CLI's flags,
# errors and records were each stated in one place
_PINNED = [
    ('exact --n 2 --m 2 --model d2',
     '{"command": "exact", "parameters": {"model": "d2", "n": 2, "m": 2}, "results": {"mu": 1.875, "stash_expected": 0.125, "mu_over_n": 0.9375, "truncated_at": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('exact --n 30 --m 40 --model mixed-det --a 1.5 --format csv',
     'command,model,n,m,a,mu,stash_expected,mu_over_n,truncated_at,version\nexact,mixed-det,30,40,1.5,24.982789246279907,5.017210753720093,0.83275964154266358,,0.1.0\n'),
    ('exact --n 4 --m 10 --model partitioned --beta 0.33 --round',
     '{"command": "exact", "parameters": {"model": "partitioned", "n": 4, "m": 10, "beta": 0.29999999999999999}, "results": {"mu": 3.9885541518194607, "stash_expected": 0.011445848180539286, "mu_over_n": 0.99713853795486518, "truncated_at": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('exact --n 50 --m 50 --model bound-d --d 3',
     '{"command": "exact", "parameters": {"model": "bound-d", "n": 50, "m": 50, "d": 3}, "results": {"mu": 47.574507094181214, "stash_expected": 2.4254929058187855, "mu_over_n": 0.95149014188362424, "truncated_at": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('exact --m 50 --model mixed-rand --p 0.3 --sweep n=10:30:10',
     'command,model,n,m,p,mu,stash_expected,mu_over_n,truncated_at,version\nexact,mixed-rand,10,50,0.29999999999999999,9.5258807651299264,0.47411923487007357,0.9525880765129926,,0.1.0\nexact,mixed-rand,20,50,0.29999999999999999,17.877023129516388,2.1229768704836118,0.89385115647581936,,0.1.0\nexact,mixed-rand,30,50,0.29999999999999999,24.924177762171514,5.0758222378284863,0.83080592540571707,,0.1.0\n'),
    ('asymptotic --alpha 1 --model partitioned --beta 0.3',
     '{"command": "asymptotic", "parameters": {"model": "partitioned", "alpha": 1, "beta": 0.29999999999999999}, "results": {"gamma": 0.80720885480486348, "closed_form": false, "t1": 0.12613112418768965, "t2": 0.90622514440048818}, "metadata": {"version": "0.1.0"}}\n'),
    ('asymptotic --model partitioned --alpha 1e-10 --beta 5e-324',
     '{"command": "asymptotic", "parameters": {"model": "partitioned", "alpha": 1e-10, "beta": 4.9406564584124654e-324}, "results": {"gamma": 0.99999999995, "closed_form": false, "t1": 0, "t2": null}, "metadata": {"version": "0.1.0"}}\n'),
    ('asymptotic --model mixed --a 1.5 --sweep alpha=0.5:1.5:0.5 --format json',
     '[{"command": "asymptotic", "parameters": {"model": "mixed", "alpha": 0.5, "a": 1.5}, "results": {"gamma": 0.90369986859498075, "closed_form": false}, "metadata": {"version": "0.1.0"}},\n {"command": "asymptotic", "parameters": {"model": "mixed", "alpha": 1, "a": 1.5}, "results": {"gamma": 0.74380476742325063, "closed_form": false}, "metadata": {"version": "0.1.0"}},\n {"command": "asymptotic", "parameters": {"model": "mixed", "alpha": 1.5, "a": 1.5}, "results": {"gamma": 0.58971919240168369, "closed_form": false}, "metadata": {"version": "0.1.0"}}]\n'),
    ('simulate --n 70 --m 70 --model fixed-d --d 3 --trials 5 --seed 11',
     '{"command": "simulate", "parameters": {"model": "fixed-d", "n": 70, "m": 70, "trials": 5, "d": 3}, "results": {"mean": 67, "std_dev": 0.70710678118654757, "min": 66, "max": 68, "std_error": 0.31622776601683794, "mean_over_n": 0.95714285714285718}, "metadata": {"version": "0.1.0", "seed": 11}}\n'),
    ('simulate --n 40 --m 40 --model partitioned --beta 0.5 --trials 5 --seed 2 --format csv',
     'command,model,n,m,trials,beta,mean,std_dev,min,max,std_error,mean_over_n,version,seed\nsimulate,partitioned,40,40,5,0.5,33.799999999999997,1.3038404810405297,32,35,0.58309518948452999,0.84499999999999997,0.1.0,2\n'),
    ('stash-size --n 100 --m 100 --epsilon 0.01',
     '{"command": "stash-size", "parameters": {"n": 100, "m": 100, "epsilon": 0.01}, "results": {"stash_real": 46.376131878215503, "stash_slots": 47}, "metadata": {"version": "0.1.0"}}\n'),
    ('trace --synthetic 300 --m 300 --repeats 2 --seed 5 --beta 0.5',
     '{"command": "trace", "parameters": {"source": "synthetic", "m": 300, "d": 2, "repeats": 2, "beta": 0.5}, "results": {"n": 300, "overflow_mean": 0.16, "overflow_min": 0.14333333333333334, "overflow_max": 0.17666666666666667, "inserted_mean": 0.83999999999999997}, "metadata": {"version": "0.1.0", "seed": 5}}\n'),
    ('concentration --n 20 --m 20 --lambda 1 --trials 100 --seed 2 --one-sided --format csv',
     'command,n,m,lambda,trials,one_sided,empirical_fraction,bound,version,seed\nconcentration,20,20,1,100,true,0,0.60653065971263342,0.1.0,2\n'),
]


@pytest.mark.parametrize("argv, expected", _PINNED)
def test_cli_stdout_is_pinned(capsys, argv, expected):
    code, out, err = _run(capsys, *argv.split())
    assert code == 0, err
    assert out == expected


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
