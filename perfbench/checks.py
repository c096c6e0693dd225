"""Correctness checks on what cuckoo-lab printed or stored.

Each check returns a list of problems, empty when the output is right.
Outputs are compared with ``reference`` (computed apart from the program)
or with a property the method must have; statistical tolerances come from
McDiarmid's bounded-difference inequality, so a correct program passes on
any seed.  Nothing here runs inside a timed region, and ``reference`` (which loads
scipy and mpmath) is imported only inside the checks that need it, so
that importing this module during the run leaves peak memory alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

# The program sums log-gamma summands in float64: each carries ~1e-11
# relative error at m = 1e4, and the deficit sum reaches m/2, so mu can be
# off by ~m * 1e-11.  1e-9 of mu leaves a margin of 20 and still rejects an
# error of 1e-6.
EXACT_RTOL = 1e-9
# gap |mu/n - gamma| between finite size and the two-bank limit, in units
# of 1/n; measured below 0.35 at the benchmark's sizes
LIMIT_GAP_C = 2.0
LIMIT_RTOL = 1e-10  # Halley / Newton against scipy, to machine precision
# false-alarm probability of one statistical check
DELTA = 1e-9


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and anything else outside RFC 8259."""
    def bad_constant(name: str):
        raise ValueError(f"non-finite number {name}")

    return json.loads(text, parse_constant=bad_constant)


def flags(argv: list[str]) -> dict[str, str]:
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[tok[2:]] = "" if nxt.startswith("--") else nxt
    return out


def close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(abs(expected), 1e-300)


def check_command(argv: list[str], rc: int, stdout: str) -> list[str]:
    """Check one CLI invocation: exit 0, strict JSON, right numbers."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        record = strict_json(stdout)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    f = flags(argv)
    try:
        return _CHECKS[argv[0]](f, record)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed record: {exc!r}"]


def _exact(f: dict, rec: dict) -> list[str]:
    from perfbench import reference as ref

    n, m, model = int(f["n"]), int(f["m"]), f["model"]
    r = rec["results"]
    mu, stash = r["mu"], r["stash_expected"]
    problems = []
    if not 0 <= mu <= min(n, m):
        problems.append(f"mu {mu} outside [0, min(n, m)]")
    if abs(stash - (n - mu)) > 1e-9 * max(1, n):
        problems.append(f"stash {stash} != n - mu")
    if model == "d2":
        expected = ref.mu_d2(n, m)
    elif model == "mixed-det":
        two = round((float(f["a"]) - 1.0) * n)
        expected = ref.mu_mixed_det(n - two, two, m)
    elif model == "bound-d":
        expected = ref.mu_bound_d(n, m, int(f["d"]))
    elif model == "mixed-rand":
        expected = ref.mu_mixed_rand(n, m, float(f["p"]))
    elif model == "partitioned":
        beta = float(f["beta"])
        expected = ref.mu_partitioned(n, m, beta)
        gamma = ref.two_bank(n / m, beta)[0] if (n / m) ** 2 > beta * (1 - beta) else 1.0
        if abs(mu / n - gamma) > LIMIT_GAP_C / n:
            problems.append(f"mu/n {mu / n} farther than {LIMIT_GAP_C}/n from the limit {gamma}")
    else:
        return [f"unknown model {model}"]
    if not close(mu, expected, EXACT_RTOL):
        problems.append(f"{model} mu {mu!r} != reference {expected!r}")
    return problems


def _stash_size(f: dict, rec: dict) -> list[str]:
    from perfbench import reference as ref

    n, m, eps = int(f["n"]), int(f["m"]), float(f["epsilon"])
    r = rec["results"]
    expected = n - ref.mu_d2(n, m) + math.sqrt(2.0 * n * math.log(1.0 / eps))
    problems = []
    if not close(r["stash_real"], expected, EXACT_RTOL):
        problems.append(f"stash_real {r['stash_real']!r} != reference {expected!r}")
    if r["stash_slots"] != math.ceil(r["stash_real"]):
        problems.append("stash_slots is not the ceiling of stash_real")
    return problems


def _asymptotic(f: dict, rec) -> list[str]:
    from perfbench import reference as ref

    alpha, model = float(f["alpha"]), f["model"]
    problems = []
    for row in rec if isinstance(rec, list) else [rec]:
        p, r = row["parameters"], row["results"]
        gamma = r["gamma"]
        if model == "partitioned":
            beta = p["beta"]
            closed = alpha * alpha <= beta * (1.0 - beta)
            if closed:
                expected, t1, t2 = 1.0, alpha / (1.0 - beta), alpha / beta
            else:
                expected, t1, t2 = ref.two_bank(alpha, beta)
            if r["closed_form"] != closed:
                problems.append(f"beta={beta}: closed_form {r['closed_form']} expected {closed}")
            if r["t1"] * r["t2"] > 1.0 + 1e-9:
                problems.append(f"beta={beta}: t1 t2 = {r['t1'] * r['t2']} > 1")
            if not (close(r["t1"], t1, 1e-6) and close(r["t2"], t2, 1e-6)):
                problems.append(f"beta={beta}: (t1, t2) = ({r['t1']}, {r['t2']}) expected ({t1}, {t2})")
        else:
            a = {"d2": 2.0, "mixed": float(f.get("a") or 0), "mixed-rand": 1.0 + float(f.get("p") or 0)}[model]
            expected = ref.gamma_mixed(alpha, a)
            if r["closed_form"] != (a == 2.0 and alpha <= 0.5):
                problems.append(f"{model}: closed_form {r['closed_form']}")
        if not close(gamma, expected, LIMIT_RTOL):
            problems.append(f"{model} gamma {gamma!r} != reference {expected!r}")
    return problems


def _simulate(f: dict, rec: dict) -> list[str]:
    from perfbench import reference as ref

    n, m, trials, model = int(f["n"]), int(f["m"]), int(f["trials"]), f["model"]
    r = rec["results"]
    mean = r["mean"]
    radius = ref.mcdiarmid_radius(n, trials, DELTA)
    problems = []
    if not r["min"] <= mean <= r["max"] <= min(n, m):
        problems.append(f"min {r['min']} <= mean {mean} <= max {r['max']} <= min(n, m) fails")
    if model == "fixed-d":
        bound = ref.mu_bound_d(n, m, int(f["d"]))
        if mean > bound + radius:
            problems.append(f"d={f['d']} mean {mean} above bound {bound} + {radius:.3g}")
        return problems
    if model == "d2":
        expected = ref.mu_d2(n, m)
    elif model == "mixed-rand":
        expected = ref.mu_mixed_rand(n, m, float(f["p"]))
    elif model == "partitioned":
        expected = ref.mu_partitioned(n, m, float(f["beta"]))
    else:
        return [f"unchecked model {model}"]
    if abs(mean - expected) > radius:
        problems.append(f"{model} mean {mean} farther than {radius:.3g} from exact {expected}")
    return problems


def _concentration(f: dict, rec: dict) -> list[str]:
    lam = float(f["lambda"])
    r = rec["results"]
    bound = min(1.0, 2.0 * math.exp(-lam * lam / 2.0))
    problems = []
    if not close(r["bound"], bound, 1e-12):
        problems.append(f"bound {r['bound']} != 2 exp(-lambda^2/2) = {bound}")
    # McDiarmid puts the true deviation probability below 2 exp(-2 lambda^2),
    # far under the printed bound, so the sample fraction must sit below it
    if not 0.0 <= r["empirical_fraction"] <= bound:
        problems.append(f"fraction {r['empirical_fraction']} above the bound {bound}")
    return problems


def _trace(f: dict, rec: dict) -> list[str]:
    from perfbench import reference as ref

    m, repeats = int(f["m"]), int(f["repeats"])
    d = int(f.get("d") or 2)
    r = rec["results"]
    n = r["n"]
    if "synthetic" in f and n != int(f["synthetic"]):
        return [f"n {n} != --synthetic {f['synthetic']}"]
    mean = r["overflow_mean"]
    problems = []
    if not 0.0 <= r["overflow_min"] <= mean <= r["overflow_max"] <= 1.0:
        problems.append("overflow min <= mean <= max fails")
    if abs(r["inserted_mean"] + mean - 1.0) > 1e-12:
        problems.append("inserted_mean != 1 - overflow_mean")
    # each key moves a repeat's stash by at most one, i.e. the mean
    # overflow fraction by 1/(n repeats)
    radius = ref.mcdiarmid_radius(n * repeats, 1, DELTA) / (n * repeats)
    if d == 3:
        floor = 1.0 - ref.mu_bound_d(n, m, 3) / n
        if mean < floor - radius:
            problems.append(f"d=3 overflow {mean} below 1 - bound/n = {floor} - {radius:.3g}")
        return problems
    if "beta" in f:
        expected = 1.0 - ref.mu_partitioned(n, m, float(f["beta"])) / n
    else:
        expected = 1.0 - ref.mu_d2(n, m) / n
    if abs(mean - expected) > radius:
        problems.append(f"overflow {mean} farther than {radius:.3g} from exact {expected}")
    return problems


_CHECKS = {
    "exact": _exact,
    "stash-size": _stash_size,
    "asymptotic": _asymptotic,
    "simulate": _simulate,
    "concentration": _concentration,
    "trace": _trace,
}


def check_graph(program_size: int, choices, m: int, record_min: float, record_max: float) -> list[str]:
    """A generated graph's matching size, from the program's kernel, against
    scipy, and inside the [min, max] the simulate record printed."""
    from perfbench import reference as ref

    expected = ref.matching_size(choices, m)
    problems = []
    if program_size != expected:
        problems.append(f"matching {program_size} != scipy {expected}")
    if not record_min <= expected <= record_max:
        problems.append(f"trial-0 matching {expected} outside printed [{record_min}, {record_max}]")
    return problems


# ---------------------------------------------------------------------------
# the table


def check_lookup(key: int, stored: bool, found: bool) -> list[str]:
    """Every stored key is found and every absent key is missed.  Where a
    found key sits is checked at the checkpoints."""
    if found != stored:
        return [f"lookup of {'stored' if stored else 'absent'} key {key:#x} reported found={found}"]
    return []


@dataclass
class Snapshot:
    """The table's state at a checkpoint, for checking after the run."""

    live: list[int]  # the benchmark's own record of the stored keys
    length: int  # len(table)
    placed: int  # table.stats.placed
    bins: dict[int, Optional[int]]  # key -> bin, None for the stash
    stash: tuple[int, ...]


def check_snapshot(snap: Snapshot, seeds: tuple[int, ...], m: int) -> list[str]:
    """placed equals the maximum matching of the live keys' choices, every
    placed key sits in one of its choices, and nothing is lost."""
    from perfbench import reference as ref

    problems = []
    if snap.length != len(snap.live):
        problems.append(f"len(table) {snap.length} != {len(snap.live)} keys stored")
    choices = [ref.bin_choices(k, seeds, m) for k in snap.live]
    optimum = ref.matching_size(choices, m)
    if snap.placed != optimum:
        problems.append(f"placed {snap.placed} != maximum matching {optimum}")
    used = set()
    for k, c in zip(snap.live, choices):
        b = snap.bins.get(k)
        if b is None:
            continue
        if b not in c:
            problems.append(f"key {k:#x} in bin {b}, not one of its choices {c}")
        if b in used:
            problems.append(f"bin {b} holds two keys")
        used.add(b)
    if len(used) != snap.placed:
        problems.append(f"{len(used)} keys in bins, placed says {snap.placed}")
    if sorted(snap.stash) != sorted(k for k in snap.live if snap.bins.get(k) is None):
        problems.append("stash differs from the stored keys not in a bin")
    return problems
