#!/usr/bin/env python3
"""The single-layer timings listed as baselines in ROADMAP item 1, measured
again: the minimum wall time of a few calls of each library function.

    python3 perfbench/baselines.py

Takes about half a minute.  These are not the benchmark's metrics (those
come from ``run.py``); they locate each layer's cost at the sizes where the
roadmap quotes it.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cuckoo_lab import (ModelParams, RngSeed, gen_graph, max_matching, mu_via_deficit, new_table,
                            synthetic_stream)
    from cuckoo_lab import exact, hashing

    rows = []

    def report(name: str, seconds: float, unit: str = "ms") -> None:
        value = seconds * (1e3 if unit == "ms" else 1e6)
        rows.append((name, value, unit))
        print(f"{name:58s} {value:10.3f} {unit}", flush=True)

    report("expected_matching_d2 n=m=1e5", best(lambda: exact.expected_matching_d2(100_000, 100_000), 5))
    report("expected_matching_d2 n=1e5 m=2e5", best(lambda: exact.expected_matching_d2(100_000, 200_000), 3))
    report("expected_matching_partitioned n=m=1e5 beta=0.5",
           best(lambda: exact.expected_matching_partitioned(100_000, 100_000, 0.5), 3))
    report("expected_matching_mixed_rand n=m=1e4 p=0.5",
           best(lambda: exact.expected_matching_mixed_rand(10_000, 10_000, 0.5), 2))
    report("expected_matching_mixed_rand n=m=1e5 p=0.5",
           best(lambda: exact.expected_matching_mixed_rand(100_000, 100_000, 0.5), 1))

    d2 = ModelParams.fixed2(1000, 1000)
    report("gen_graph d2 n=m=1000", best(lambda: gen_graph(d2, RngSeed(1).derive(0)), 5))
    graph = gen_graph(d2, RngSeed(1).derive(0))
    report("mu_via_deficit d2 n=m=1000", best(lambda: mu_via_deficit(graph), 5))
    d3 = ModelParams.fixed_d(10_000, 10_000, 3)
    report("gen_graph d=3 n=m=1e4", best(lambda: gen_graph(d3, RngSeed(1).derive(0)), 3))
    graph = gen_graph(d3, RngSeed(1).derive(0))
    report("max_matching (Hopcroft-Karp) d=3 n=m=1e4", best(lambda: max_matching(graph), 3))

    keys = synthetic_stream(10_000, 1).keys
    seeds = (0x1234, 0x5678)

    def one_repeat():
        table = new_table(10_000, 2, seeds)
        for k in keys:
            table.insert(k)
        return table

    report("trace repeat: 1e4 keys into m=1e4, d=2", best(one_repeat, 3))
    report("  of which bin_choices of each key once",
           best(lambda: [hashing.bin_choices(k, seeds, 10_000, 2) for k in keys], 3))
    table = one_repeat()
    report("lookup of a stored key, full table m=1e4",
           best(lambda: [table.lookup(k) for k in keys], 3) / len(keys), "us")
    rng = random.Random(1)
    absent = [rng.getrandbits(64) for _ in range(1000)]
    report("lookup of an absent key, full table m=1e4",
           best(lambda: [table.lookup(k) for k in absent], 3) / len(absent), "us")
    stash = len(table.stash_keys())
    victims = rng.sample(list(keys), 5)
    t0 = time.perf_counter()
    for k in victims:
        table.remove(k)
        table.insert(k)
    report(f"remove + reinsert, full table m=1e4 ({stash} stashed)", (time.perf_counter() - t0) / len(victims))
    return 0


if __name__ == "__main__":
    sys.exit(main())
