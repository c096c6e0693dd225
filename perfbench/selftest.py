#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each accepts the program's real
output and rejects a corrupted copy of it.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from cuckoo_lab import cli, new_table
    from perfbench import checks

    failures = []

    def expect(name: str, problems: list[str], rejected: bool) -> None:
        ok = bool(problems) == rejected
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict}: {name}" + (f" ({problems[0]})" if problems else ""))
        if not ok:
            failures.append(name)

    def run(argv: list[str]) -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.run(argv)
        assert rc == 0, argv
        return buf.getvalue()

    def with_result(out: str, **changes) -> str:
        record = json.loads(out)
        record["results"].update(changes)
        return json.dumps(record)

    commands = [
        ["exact", "--n", "2000", "--m", "2000", "--model", "d2"],
        ["exact", "--n", "1000", "--m", "2000", "--model", "mixed-det", "--a", "1.5"],
        ["exact", "--n", "2000", "--m", "2000", "--model", "bound-d", "--d", "3"],
        ["exact", "--n", "500", "--m", "1000", "--model", "mixed-rand", "--p", "0.5"],
        ["exact", "--n", "200", "--m", "400", "--model", "partitioned", "--beta", "0.3"],
    ]
    for argv in commands:
        out = run(argv)
        name = " ".join(argv[1:])
        expect(name, checks.check_command(argv, 0, out), False)
        r = json.loads(out)["results"]
        mu = r["mu"] * (1 + 1e-6)
        n = int(argv[2])
        expect(f"{name}, mu off by 1e-6 relative",
               checks.check_command(argv, 0, with_result(out, mu=mu, stash_expected=n - mu)), True)
        expect(f"{name}, exit code 1", checks.check_command(argv, 1, out), True)

    argv = ["stash-size", "--n", "1000", "--m", "1000", "--epsilon", "1e-6"]
    out = run(argv)
    expect("stash-size", checks.check_command(argv, 0, out), False)
    for bare in ("nan", "inf", "NaN", "Infinity"):
        corrupt = re.sub(r'"stash_real": [^,}]+', f'"stash_real": {bare}', out)
        expect(f"stash-size with a bare {bare}", checks.check_command(argv, 0, corrupt), True)

    argv = ["asymptotic", "--alpha", "0.5", "--model", "partitioned",
            "--sweep", "beta=0.35:0.65:0.05", "--format", "json"]
    out = run(argv)
    expect("asymptotic partitioned sweep", checks.check_command(argv, 0, out), False)
    rows = json.loads(out)
    rows[1]["results"]["gamma"] *= 1 - 1e-9
    expect("sweep with one gamma off by 1e-9", checks.check_command(argv, 0, json.dumps(rows)), True)
    argv = ["asymptotic", "--alpha", "1", "--model", "mixed", "--a", "1.5"]
    out = run(argv)
    expect("asymptotic mixed", checks.check_command(argv, 0, out), False)
    gamma = json.loads(out)["results"]["gamma"]
    expect("asymptotic mixed, gamma off by 1e-9",
           checks.check_command(argv, 0, with_result(out, gamma=gamma * (1 + 1e-9))), True)

    argv = ["simulate", "--n", "400", "--m", "400", "--model", "d2", "--trials", "20", "--seed", "5"]
    out = run(argv)
    expect("simulate d2", checks.check_command(argv, 0, out), False)
    r = json.loads(out)["results"]
    expect("simulate d2, every statistic moved 20 keys", checks.check_command(argv, 0, with_result(
        out, mean=r["mean"] + 20, min=r["min"] + 20, max=r["max"] + 20)), True)
    argv = ["concentration", "--n", "100", "--m", "100", "--lambda", "2", "--trials", "100", "--seed", "5"]
    out = run(argv)
    expect("concentration", checks.check_command(argv, 0, out), False)
    expect("concentration, fraction above the bound",
           checks.check_command(argv, 0, with_result(out, empirical_fraction=0.3)), True)
    argv = ["trace", "--synthetic", "1000", "--m", "1000", "--repeats", "2", "--seed", "5"]
    out = run(argv)
    expect("trace d2", checks.check_command(argv, 0, out), False)
    expect("trace d2, overflow a third of exact", checks.check_command(argv, 0, with_result(
        out, overflow_mean=0.05, overflow_min=0.05, overflow_max=0.05, inserted_mean=0.95)), True)

    # the table, at full load
    rng = random.Random(5)
    seeds = (rng.getrandbits(64), rng.getrandbits(64))
    m = 300
    table = new_table(m, 2, seeds)
    keys = [rng.getrandbits(64) for _ in range(m)]
    for k in keys:
        table.insert(k)
    expect("lookup of a stored key", checks.check_lookup(keys[0], True, table.lookup(keys[0]).found), False)
    expect("stored key reported missing", checks.check_lookup(keys[0], True, False), True)
    expect("absent key reported found", checks.check_lookup(7, False, True), True)
    snap = checks.Snapshot(live=keys, length=len(table), placed=table.stats.placed,
                           bins={k: table.bin_of(k) for k in keys}, stash=table.stash_keys())
    expect(f"table checkpoint ({len(snap.stash)} stashed)", checks.check_snapshot(snap, seeds, m), False)
    snap.placed -= 1
    expect("placed one below the matching", checks.check_snapshot(snap, seeds, m), True)

    print(f"{len(failures)} check(s) misbehaved" if failures else "every check behaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
