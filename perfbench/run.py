#!/usr/bin/env python3
"""Benchmark cuckoo-lab on one workload with one seed.

    python3 perfbench/run.py --workload half-load --seed 1 --seconds 30 --trace 0

Runs whole rounds until ``--seconds`` have passed.  A round makes one or
more timed passes over each CLI group (commands run in-process through
``cuckoo_lab.cli.run`` with stdout captured) and one pass over a stream of
table operations.  Every output is checked afterwards.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``,
from rounds run with spans around every layer, alternating with rounds
run without them).  Per-metric quartiles, CPU time and any problems found
go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 5
MIN_ROUNDS = 4
# The speed of this kind of shared machine drifts by up to a third over
# minutes, on every metric at once (see README).  Every time is therefore
# reported at a reference speed: scaled by REFERENCE_KERNEL_S over the
# time the calibration kernel took around the same round or set-up.
REFERENCE_KERNEL_S = 0.006
# end-to-end metric -> (sample list, scale, unit)
END_TO_END = {
    "exact_ms": ("exact", 1e3, "ms"),
    "exact_mixed_rand_ms": ("exact_mixed_rand", 1e3, "ms"),
    "exact_partitioned_ms": ("exact_partitioned", 1e3, "ms"),
    "asymptotic_ms": ("asymptotic", 1e3, "ms"),
    "montecarlo_d2_ms": ("montecarlo_d2", 1e3, "ms"),
    "montecarlo_d3_ms": ("montecarlo_d3", 1e3, "ms"),
    "trace_ms": ("trace", 1e3, "ms"),
    "insert_us": ("insert", 1e6, "us"),
    "lookup_hit_us": ("hit", 1e6, "us"),
    "lookup_miss_us": ("miss", 1e6, "us"),
    "remove_us": ("remove", 1e6, "us"),
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="cuckoo-lab benchmark")
    parser.add_argument("--workload", required=True, choices=("half-load", "full-load"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit; the parent times this for setup_s")
    args = parser.parse_args(argv)

    if not (SRC / "cuckoo_lab" / "__init__.py").is_file():
        print(f"perfbench: no cuckoo-lab sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CUCKOO_LAB_THREADS", None)  # one worker throughout
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.setup_only:
        setup(args.workload, args.seed)
        print(statistics.median(kernel_seconds() for _ in range(3)))
        return 0

    setup_samples, setup_kernel = measure_setup(args.workload, args.seed)
    inputs, tables = setup(args.workload, args.seed)
    bench = Bench(inputs, tables, traced=bool(args.trace))
    try:
        bench.run(args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.check()
    finally:
        inputs.key_file.unlink(missing_ok=True)
        bench.outputs.close()
        bench.outputs_path.unlink(missing_ok=True)

    details = bench.details()
    details["setup_s_samples"] = setup_samples
    details["setup_kernel_s"] = setup_kernel
    if args.trace:
        metrics = bench.per_layer()
    else:
        setup_s = statistics.median(s * REFERENCE_KERNEL_S / k for s, k in zip(setup_samples, setup_kernel))
        metrics = {"setup_s": (setup_s, "s"), "peak_rss_mib": (peak_rss_mib, "MiB")}
        for name, (samples, scale, unit) in END_TO_END.items():
            metrics[name] = (statistics.median(bench.samples[samples]) * scale, unit)
    details["metrics"] = {k: v for k, (v, _) in metrics.items()}
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n")

    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def setup(workload: str, seed: int):
    """Import cuckoo-lab, derive the inputs, write the key file and fill the
    tables to the workload's load: what ``setup_s`` times."""
    import cuckoo_lab.cli  # noqa: F401  (the commands run through it)
    from cuckoo_lab import new_table
    from perfbench import workload as w

    inputs = w.make_inputs(workload, seed, WORKDIR)
    tables = []
    for seeds, keys in inputs.tables:
        table = new_table(w.TABLE_M, 2, seeds)
        for key in keys:
            table.insert(key)
        tables.append(table)
    return inputs, tables


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of whole set-ups in fresh interpreters, start-up included,
    and the kernel time each interpreter read right after its set-up (a
    reading in the parent, idle while it waits, runs faster than one taken
    under load)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    env = {k: v for k, v in os.environ.items() if k != "CUCKOO_LAB_THREADS"}
    samples, kernel = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, check=True, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True)
        samples.append(time.perf_counter() - t0)
        kernel.append(float(done.stdout))
    return samples, kernel


def kernel_seconds() -> float:
    """Wall time of a fixed piece of interpreter work (integer arithmetic
    and dict stores) that no change to cuckoo-lab can touch: a reading of
    how fast the machine runs Python right now."""
    t0 = time.perf_counter()
    x, seen = 1, {}
    for i in range(20_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        seen[x >> 54] = i
    return time.perf_counter() - t0


class Stored:
    """One table and the benchmark's own record of the keys it holds."""

    def __init__(self, table, seeds, keys) -> None:
        self.table, self.seeds = table, seeds
        self.live = list(keys)
        self.live_set = set(keys)

    def fresh(self, rng) -> int:
        key = rng.getrandbits(64)
        while key in self.live_set:
            key = rng.getrandbits(64)
        return key


class Bench:
    def __init__(self, inputs, tables, traced: bool) -> None:
        from cuckoo_lab import cli
        from perfbench import checks, workload as w
        from perfbench.tracing import Tracer

        self.w, self.checks, self.cli = w, checks, cli
        self.inputs = inputs
        self.tracer = Tracer() if traced else None
        self.stored = [Stored(t, seeds, keys) for t, (seeds, keys) in zip(tables, inputs.tables)]
        self.samples: dict[str, list[float]] = {}  # at the reference speed
        self.raw: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.pending: list[tuple[str, float, float]] = []  # this round's raw samples
        self.kernel: list[float] = []
        # outputs and table snapshots wait on disk for the checks, so that
        # memory does not grow with the number of rounds
        self.outputs_path = WORKDIR / f"outputs-{os.getpid()}.jsonl"
        self.outputs = open(self.outputs_path, "w", encoding="utf-8")
        self.problems: list[str] = []
        self.failed = 0
        self.rounds = 0
        self.round_wall: dict[bool, list[float]] = {False: [], True: []}
        self.layer = {"stash": [], "displacements": 0, "inserts": 0}
        writes = w.TABLE_WRITES[inputs.workload]
        cli_ops = sum(len(w.round_commands(inputs, g)) * self._passes(g) for g in w.CLI_GROUPS)
        self.ops_per_round = cli_ops + 2 * writes + 2 * w.TABLE_LOOKUPS

    @property
    def attempted(self) -> int:
        return self.rounds * self.ops_per_round

    def _passes(self, group: str) -> int:
        return {"exact": self.w.EXACT_PASSES, "asymptotic": self.w.ASYMPTOTIC_PASSES}.get(group, 1)

    def _sample(self, name: str, wall: float, cpu: float = float("nan")) -> None:
        self.pending.append((name, wall, cpu))

    # -- timed phase -----------------------------------------------------------

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while self.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            # traced runs alternate plain and traced rounds; only plain
            # rounds feed the end-to-end samples
            traced = self.tracer is not None and self.rounds % 2 == 1
            before = kernel_seconds()
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                self.one_round(traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.round_wall[traced].append(time.perf_counter() - t0)
            kernel = (before + kernel_seconds()) / 2
            self.kernel.append(kernel)
            for name, wall, cpu in self.pending:
                self.samples.setdefault(name, []).append(wall * REFERENCE_KERNEL_S / kernel)
                self.raw.setdefault(name, []).append(wall)
                self.cpu.setdefault(name, []).append(cpu)
            self.pending.clear()
            if self.rounds == 0:
                self.snapshot()
            self.rounds += 1
        self.snapshot()

    def one_round(self, traced: bool) -> None:
        pc, cpu = time.perf_counter, time.process_time
        for group in self.w.CLI_GROUPS:
            for _ in range(self._passes(group)):
                commands = self.w.round_commands(self.inputs, group)
                results = []
                w0, c0 = pc(), cpu()
                for argv in commands:
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        rc = self.cli.run(argv)
                    results.append((self.rounds, argv, rc, out.getvalue(), err.getvalue()))
                if not traced:
                    self._sample(group, pc() - w0, cpu() - c0)
                for result in results:
                    self.outputs.write(json.dumps(["cli", *result]) + "\n")
        w0, c0 = pc(), cpu()
        self.table_round(traced)
        if not traced:
            self._sample("table", pc() - w0, cpu() - c0)

    def table_round(self, traced: bool) -> None:
        """Remove a random stored key and insert a fresh one, table by table
        in turn, with lookups of stored and never-stored keys spread evenly
        between the writes."""
        rng = self.inputs.rng
        writes, lookups = self.w.TABLE_WRITES[self.inputs.workload], self.w.TABLE_LOOKUPS
        pc = time.perf_counter
        spent = {"insert": 0.0, "remove": 0.0, "hit": 0.0, "miss": 0.0}
        displacements = sum(s.table.stats.displacements for s in self.stored)

        for i in range(writes):
            s = self.stored[i % len(self.stored)]
            table, live = s.table, s.live
            j = rng.randrange(len(live))
            key = live[j]
            t0 = pc()
            removed = table.remove(key)
            spent["remove"] += pc() - t0
            live[j] = live[-1]
            live.pop()
            s.live_set.discard(key)
            if not removed:
                self._fail(f"remove of stored key {key:#x} returned False")
            key = s.fresh(rng)
            t0 = pc()
            table.insert(key)
            spent["insert"] += pc() - t0
            live.append(key)
            s.live_set.add(key)
            for _ in range(lookups * (i + 1) // writes - lookups * i // writes):
                s = self.stored[rng.randrange(len(self.stored))]
                key = s.live[rng.randrange(len(s.live))]
                t0 = pc()
                found = s.table.lookup(key).found
                spent["hit"] += pc() - t0
                self._expect_lookup(key, True, found)
                key = s.fresh(rng)
                t0 = pc()
                found = s.table.lookup(key).found
                spent["miss"] += pc() - t0
                self._expect_lookup(key, False, found)

        if traced:
            self.layer["stash"].append(statistics.mean(s.table.load_stats().stash_size for s in self.stored))
            self.layer["displacements"] += sum(s.table.stats.displacements for s in self.stored) - displacements
            self.layer["inserts"] += writes
        else:
            for kind, count in (("insert", writes), ("remove", writes), ("hit", lookups), ("miss", lookups)):
                self._sample(kind, spent[kind] / count)

    def _expect_lookup(self, key: int, stored: bool, found: bool) -> None:
        problems = self.checks.check_lookup(key, stored, found)
        if problems:
            self._fail(*problems)

    def _fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)

    def snapshot(self) -> None:
        for index, s in enumerate(self.stored):
            t = s.table
            record = ["table", index, s.live, len(t), t.stats.placed,
                      [t.bin_of(k) for k in s.live], t.stash_keys()]
            self.outputs.write(json.dumps(record) + "\n")

    # -- checks, after the timed phase -----------------------------------------

    def check(self) -> None:
        from cuckoo_lab import ModelParams, RngSeed, gen_graph, max_matching, mu_via_deficit

        checks, seen = self.checks, {}
        self.outputs.close()
        with open(self.outputs_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        outputs = [r[1:] for r in records if r[0] == "cli"]
        for round_index, argv, rc, out, err in outputs:
            key = (tuple(argv), rc, out)
            if key not in seen:
                seen[key] = checks.check_command(argv, rc, out)
                if rc != 0:
                    seen[key].append(f"stderr: {err.strip()}")
            if seen[key]:
                self._fail(*(f"{' '.join(argv)}: {p}" for p in seen[key]))

        # re-match the first graph of each simulate command of the first round
        for round_index, argv, rc, out, err in outputs:
            if round_index > 0 or argv[0] != "simulate" or rc != 0:
                continue
            f = checks.flags(argv)
            m = int(f["m"])
            extra = {k: cast(f[k]) for k, cast in (("p", float), ("beta", float), ("d", int)) if k in f}
            params = ModelParams(int(f["n"]), m, f["model"], **extra)
            graph = gen_graph(params, RngSeed(int(f["seed"])).derive(0))
            size = max_matching(graph)[0] if graph.max_left_degree() > 2 else mu_via_deficit(graph)
            r = json.loads(out)["results"]
            problems = checks.check_graph(size, graph.choices, m, r["min"], r["max"])
            if problems:
                self._fail(*(f"{' '.join(argv)}: {p}" for p in problems))

        for _, index, live, length, placed, bins, stash in (r for r in records if r[0] == "table"):
            snap = checks.Snapshot(live, length, placed, dict(zip(live, bins)), tuple(stash))
            problems = checks.check_snapshot(snap, self.stored[index].seeds, self.w.TABLE_M)
            self.problems.extend(f"table {index}: {p}" for p in problems)
        for index, s in enumerate(self.stored):
            missing = [k for k in s.live if not s.table.lookup(k).found]
            if missing or len(s.table) != len(s.live):
                self.problems.append(f"table {index}: {len(missing)} stored keys not found; "
                                     f"len {len(s.table)} for {len(s.live)} keys")

    # -- results -----------------------------------------------------------------

    def details(self) -> dict:
        def quartiles(xs):
            q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            return {"q1": q1, "median": q2, "q3": q3, "samples": len(xs)}

        return {
            "workload": self.inputs.workload,
            "rounds": self.rounds,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:100],
            "reference_speed_s": {k: quartiles(v) for k, v in self.samples.items()},
            "wall_s": {k: quartiles(v) for k, v in self.raw.items()},
            "cpu_s": {k: quartiles(v) for k, v in self.cpu.items() if v[0] == v[0]},
            "kernel_s": quartiles(self.kernel),
            "round_wall_s": {("traced" if k else "plain"): quartiles(v)
                             for k, v in self.round_wall.items() if v},
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        from perfbench.tracing import GAMMAS

        t, layer = self.tracer, self.layer
        traced_rounds = len(self.round_wall[True])
        speed = REFERENCE_KERNEL_S / statistics.median(self.kernel)  # times at the reference speed

        def calls(name, callers=None):
            return t.total(name, callers)[0]

        def ms(name, callers=None):
            return t.mean_ns(name, callers) / 1e6 * speed

        def per_call(count, name):
            return t.counts[count] / calls(name)

        outer_gamma = [s for (caller, name), s in t.spans.items() if name in GAMMAS and caller not in GAMMAS]
        gamma_calls = sum(s[0] for s in outer_gamma)
        cli_calls, _, cli_self = t.total("cli.run")
        overhead = statistics.median(self.round_wall[True]) / statistics.median(self.round_wall[False])
        return {
            "hashing.bin_choices_us": (ms("hashing.bin_choices") * 1e3, "us"),
            "hashing.bin_choices_calls": (calls("hashing.bin_choices") / traced_rounds, "count"),
            "cuckoo.rehash_per_remove": (calls("hashing.bin_choices", {"cuckoo.remove"})
                                         / calls("cuckoo.remove"), "count"),
            "cuckoo.stash_size": (statistics.mean(layer["stash"]), "count"),
            "cuckoo.displacements_per_insert": (layer["displacements"] / layer["inserts"], "count"),
            "cuckoo.insert_us": (ms("cuckoo.insert", {"trace.run_trace_experiment"}) * 1e3, "us"),
            "simulate.gen_graph_ms": (ms("simulate.gen_graph"), "ms"),
            "simulate.draws_per_graph": (per_call("simulate.draws", "simulate.gen_graph"), "count"),
            "matching.mu_via_deficit_ms": (ms("matching.mu_via_deficit"), "ms"),
            "matching.max_matching_ms": (ms("matching.max_matching"), "ms"),
            "exact.d2_ms": (ms("exact.d2"), "ms"),
            "exact.d2_terms": (per_call("exact.d2_terms", "exact.d2"), "count"),
            "exact.mixed_rand_ms": (ms("exact.mixed_rand"), "ms"),
            "exact.mixed_rand_terms": (per_call("exact.mixed_rand_terms", "exact.mixed_rand"), "count"),
            "exact.partitioned_ms": (ms("exact.partitioned"), "ms"),
            "exact.partitioned_rows": (per_call("exact.partitioned_terms", "exact.partitioned"), "count"),
            "exact.bound_d_ms": (ms("exact.bound_d"), "ms"),
            "asymptotics.gamma_us": (sum(s[1] for s in outer_gamma) / gamma_calls / 1e3 * speed, "us"),
            "asymptotics.closed_form_frac": (t.counts["asymptotics.closed_form"] / gamma_calls, "ratio"),
            "trace.read_keys_ms": (ms("trace.read_keys"), "ms"),
            "trace.synthetic_stream_ms": (ms("trace.synthetic_stream"), "ms"),
            "trace.run_trace_experiment_ms": (ms("trace.run_trace_experiment"), "ms"),
            "cli.self_ms": (cli_self / cli_calls / 1e6 * speed, "ms"),
            "tracing.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
        }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
