"""What one round of the benchmark runs, and how every input follows from the seed.

Both workloads run the same commands on the same sizes; only the load
alpha = n/m differs.  The one exception is the number of table writes per
round: a remove at full load retries a search from every stashed key and
costs about 2000 times one at half load, so each workload does as
many as keep its round near the same length while the sample stays steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ALPHA = {"half-load": 0.5, "full-load": 1.0}

# bins per group; every n below is alpha times these
EXACT_M = 10_000  # exact d2, mixed-det, bound-d and stash-size
MIXED_RAND_M = 1_000
PARTITIONED_M = 400
PARTITIONED_BETA = 0.3
SIM_M = 400  # simulate d2, mixed-rand, partitioned
SIM_TRIALS = 20
CONC_M = 100
CONC_TRIALS = 100
CONC_LAMBDA = 2.0
D3_M = 2_000
D3_TRIALS = 4
TRACE_M = 1_000
TRACE_REPEATS = 2
TABLE_M = 2_000
# The cost of a remove at full load depends on the table instance (how
# far the searches from its stashed keys reach) by ~15%; spreading the
# stream over several tables averages that out.
TABLES = 16
TABLE_LOOKUPS = 2_000  # hits per round, and as many misses
TABLE_WRITES = {"half-load": 16_000, "full-load": 16}  # remove + fresh insert pairs

MIXED_A = 1.5
MIXED_P = 0.5
SIM_BETA = 0.5
ASYMPTOTIC_SWEEP = "beta=0.3:0.7:0.1"
STASH_EPSILON = 1e-6

# passes of the cheap groups per round, so they get as many samples as the
# others without taking a larger share of the run
EXACT_PASSES = 2
ASYMPTOTIC_PASSES = 3

CLI_GROUPS = (
    "exact",
    "exact_mixed_rand",
    "exact_partitioned",
    "asymptotic",
    "montecarlo_d2",
    "montecarlo_d3",
    "trace",
)


@dataclass
class Inputs:
    """Everything one run derives from (workload, seed)."""

    workload: str
    alpha: float
    rng: random.Random
    tables: list[tuple[tuple[int, int], list[int]]]  # (hash seeds, keys) per table
    key_file: Path

    def n(self, m: int) -> int:
        return round(self.alpha * m)


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Draw the tables' hash seeds and keys and write the trace key file.

    One ``random.Random`` seeded with the workload name and the seed gives
    every value, in a fixed order, so the same arguments give the same
    inputs.  The same generator later gives each round's CLI ``--seed``
    values and the table's stream of fresh and probed keys.
    """
    rng = random.Random(f"cuckoo-lab perfbench {workload} {seed}")
    alpha = ALPHA[workload]
    tables = [((rng.getrandbits(64), rng.getrandbits(64)), distinct_keys(rng, round(alpha * TABLE_M), set()))
              for _ in range(TABLES)]
    trace_keys = distinct_keys(rng, round(alpha * TRACE_M), set())
    workdir.mkdir(parents=True, exist_ok=True)
    key_file = workdir / f"keys-{workload}-{seed}.hex"
    key_file.write_text("".join(f"{k:016x}\n" for k in trace_keys), encoding="ascii")
    return Inputs(workload, alpha, rng, tables, key_file)


def distinct_keys(rng: random.Random, count: int, taken: set[int]) -> list[int]:
    """``count`` fresh 64-bit keys, none in ``taken``; adds them to it."""
    keys = []
    while len(keys) < count:
        k = rng.getrandbits(64)
        if k not in taken:
            taken.add(k)
            keys.append(k)
    return keys


def round_commands(inp: Inputs, group: str) -> list[list[str]]:
    """The CLI invocations of one pass over a group.  Simulation, trace and
    concentration commands take a fresh ``--seed`` from the run's
    generator on every pass, so a run averages over many graphs."""
    a = inp

    def seed() -> str:
        return str(a.rng.getrandbits(31))

    def nm(m: int) -> list[str]:
        return ["--n", str(a.n(m)), "--m", str(m)]

    if group == "exact":
        return [
            ["exact", *nm(EXACT_M), "--model", "d2"],
            ["exact", *nm(EXACT_M), "--model", "mixed-det", "--a", str(MIXED_A)],
            ["exact", *nm(EXACT_M), "--model", "bound-d", "--d", "3"],
            ["stash-size", *nm(EXACT_M), "--epsilon", str(STASH_EPSILON)],
        ]
    if group == "exact_mixed_rand":
        return [["exact", *nm(MIXED_RAND_M), "--model", "mixed-rand", "--p", str(MIXED_P)]]
    if group == "exact_partitioned":
        return [["exact", *nm(PARTITIONED_M), "--model", "partitioned", "--beta", str(PARTITIONED_BETA)]]
    if group == "asymptotic":
        alpha = str(a.alpha)
        return [
            ["asymptotic", "--alpha", alpha, "--model", "d2"],
            ["asymptotic", "--alpha", alpha, "--model", "mixed", "--a", str(MIXED_A)],
            ["asymptotic", "--alpha", alpha, "--model", "mixed-rand", "--p", str(MIXED_P)],
            ["asymptotic", "--alpha", alpha, "--model", "partitioned",
             "--sweep", ASYMPTOTIC_SWEEP, "--format", "json"],
        ]
    if group == "montecarlo_d2":
        sim = ["simulate", *nm(SIM_M), "--trials", str(SIM_TRIALS)]
        return [
            [*sim, "--model", "d2", "--seed", seed()],
            [*sim, "--model", "mixed-rand", "--p", str(MIXED_P), "--seed", seed()],
            [*sim, "--model", "partitioned", "--beta", str(SIM_BETA), "--seed", seed()],
            ["concentration", *nm(CONC_M), "--lambda", str(CONC_LAMBDA),
             "--trials", str(CONC_TRIALS), "--seed", seed()],
        ]
    if group == "montecarlo_d3":
        return [["simulate", *nm(D3_M), "--model", "fixed-d", "--d", "3",
                 "--trials", str(D3_TRIALS), "--seed", seed()]]
    if group == "trace":
        common = ["--m", str(TRACE_M), "--repeats", str(TRACE_REPEATS)]
        synthetic = ["trace", "--synthetic", str(a.n(TRACE_M)), *common]
        return [
            [*synthetic, "--seed", seed()],
            ["trace", "--input", str(a.key_file), *common, "--seed", seed()],
            [*synthetic, "--beta", "0.5", "--seed", seed()],
            [*synthetic, "--d", "3", "--seed", seed()],
        ]
    raise ValueError(f"unknown group {group!r}")
