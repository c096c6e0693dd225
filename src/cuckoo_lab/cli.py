"""Command-line surface.

Every capability is a subcommand producing one machine-readable record
(JSON by default) or, with ``--sweep PARAM=start:stop:step``, one record
per grid point (CSV by default, ready for plotting).  Floats are printed in
their shortest round-trip form in both formats (an integral float as
``67.0``), so each reads back to the same double and the two serializations
give value-identical data.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from decimal import MAX_PREC, Context, Decimal
from typing import Iterator, Sequence

from . import __version__
from .asymptotics import gamma_d2, gamma_mixed, gamma_mixed_rand, gamma_partitioned
from .exact import ModelParams, evaluate, matching_upper_bound_d, require_integral, stash_size_for_epsilon
from .simulate import RngSeed, concentration_experiment, estimate_mu
from .trace import disambiguate_duplicates, read_keys, run_trace_experiment, synthetic_stream


def _render(records: list[dict], fmt: str, sweep: bool) -> str:
    """The records as one JSON value, an array for a sweep however many
    points it has, or as CSV with one column per field.  A non-finite float
    has no JSON form and raises ValueError."""
    if fmt == "json":
        text = ",\n ".join(json.dumps(r, allow_nan=False) for r in records)
        return ("[" + text + "]" if sweep else text) + "\n"
    rows = [{"command": r["command"], **r["parameters"], **r["results"], **r["metadata"]} for r in records]
    header = list(rows[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if list(row) != header:
            raise RuntimeError("inconsistent sweep columns")
        writer.writerow([("true" if v else "false") if isinstance(v, bool) else v for v in row.values()])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# flags


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# Each subcommand's numeric flags and their types.  This one table builds
# both the parser's numeric flags and the --sweep grid, so every numeric
# flag can be swept.
_NUMERIC: dict[str, dict[str, type]] = {
    "exact": {"n": int, "m": int, "a": _finite_float, "p": _finite_float, "beta": _finite_float, "d": int},
    "asymptotic": {"alpha": _finite_float, "a": _finite_float, "p": _finite_float, "beta": _finite_float},
    "simulate": {
        "n": int, "m": int, "a": _finite_float, "p": _finite_float, "beta": _finite_float, "d": int,
        "trials": int, "seed": int,
    },
    "stash-size": {"n": int, "m": int, "epsilon": _finite_float},
    "trace": {"synthetic": int, "m": int, "d": int, "repeats": int, "seed": int, "beta": _finite_float},
    "concentration": {"n": int, "m": int, "lambda": _finite_float, "trials": int, "seed": int},
}

# the numeric flags a subcommand cannot run without; checked once --sweep
# has set its value, so a swept flag need not also be given
_REQUIRED = {
    "exact": ("n", "m"),
    "asymptotic": ("alpha",),
    "simulate": ("n", "m", "trials"),
    "stash-size": ("n", "m", "epsilon"),
    "trace": ("m", "repeats"),
    "concentration": ("n", "m", "lambda", "trials"),
}

# the subcommands that hold a list entry per bin, so --m is capped by the
# longest list
_PER_BIN = ("simulate", "trace", "concentration")

# the one model flag each model takes (None: it takes none)
_MODEL_FLAG = {
    "d2": None,
    "mixed": "a",
    "mixed-det": "a",
    "mixed-rand": "p",
    "partitioned": "beta",
    "bound-d": "d",
    "fixed-d": "d",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuckoo-lab",
        description="Expected cuckoo hash-table utilization and stash sizing, "
        "exact, asymptotic, simulated, and trace-driven.",
    )
    parser.add_argument("--version", action="version", version=f"cuckoo-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("exact", help="exact expected matching size / stash for finite n, m")
    p.add_argument("--model", required=True, choices=("d2", "mixed-det", "mixed-rand", "partitioned", "bound-d"))
    p.add_argument("--round", action="store_true", help="snap a*n or beta*m to the nearest integer")

    p = sub.add_parser("asymptotic", help="limit matching fraction gamma at fixed load")
    p.add_argument("--model", required=True, choices=("d2", "mixed", "mixed-rand", "partitioned"))

    p = sub.add_parser("simulate", help="Monte-Carlo matching-size statistics")
    p.add_argument("--model", required=True, choices=("d2", "mixed-det", "mixed-rand", "partitioned", "fixed-d"))
    p.set_defaults(seed=0)

    sub.add_parser("stash-size", help="stash capacity for a target overflow probability")

    p = sub.add_parser("trace", help="repeated table builds over a key stream")
    source = p.add_mutually_exclusive_group(required=True)  # --input or --synthetic
    source.add_argument("--input", metavar="PATH")
    p.add_argument("--input-format", choices=("hex-lines", "binary-u64-le"), default="hex-lines")
    p.add_argument("--keep-duplicates", action="store_true")
    p.set_defaults(d=2, seed=0)

    p = sub.add_parser("concentration", help="empirical deviation fraction vs. the tail bound")
    p.add_argument("--one-sided", action="store_true")
    p.set_defaults(seed=0)

    for command, flags in _NUMERIC.items():
        p = sub.choices[command]
        for name, kind in flags.items():
            # trace's --synthetic is the alternative to --input
            group = source if (command, name) == ("trace", "synthetic") else p
            group.add_argument(f"--{name}", type=kind)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument(
            "--sweep",
            metavar="PARAM=START:STOP:STEP",
            default=None,
            help="repeat the command over a numeric grid, one output row per point",
        )
    return parser


def _model_flags(args: argparse.Namespace) -> dict:
    """Require the model's own flag and refuse the subcommand's other model
    flags; returns the model's flag and its value, if it has one."""
    own = _MODEL_FLAG[args.model]
    if own is not None and getattr(args, own) is None:
        raise ValueError(f"--{own} is required here")
    for name in _NUMERIC[args.subcommand]:
        if name != own and name in _MODEL_FLAG.values() and getattr(args, name) is not None:
            raise ValueError(f"--{name} does not apply to model {args.model!r}")
    return {} if own is None else {own: getattr(args, own)}


def _snap(args: argparse.Namespace) -> None:
    """Apply --round: replace a or beta with the nearest representable value.
    A value outside its range is left as it is, for the model to reject."""
    if args.model == "mixed-det" and args.a is not None and args.n and 1.0 <= args.a <= 2.0:
        args.a = round(args.a * args.n) / args.n
    if args.model == "partitioned" and args.beta is not None and args.m and 0.0 <= args.beta <= 1.0:
        args.beta = round(args.beta * args.m) / args.m


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (parameters, results) and raises
# ValueError on bad input


def _handle_exact(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.round:
        _snap(args)
    flags = _model_flags(args)
    # the other exact model names are the ModelParams variants
    res = (
        matching_upper_bound_d(args.n, args.m, args.d)
        if args.model == "bound-d"
        else evaluate(ModelParams(args.n, args.m, args.model, **flags))
    )
    results = {
        "mu": res.mu,
        "stash_expected": res.stash_expected,
        "mu_over_n": res.mu / args.n if args.n else 0.0,
        "truncated_at": res.truncated_at,
    }
    return {"model": args.model, "n": args.n, "m": args.m, **flags}, results


def _handle_asymptotic(args: argparse.Namespace) -> tuple[dict, dict]:
    flags = _model_flags(args)
    # built per call, so that a function swapped into this module's
    # namespace (a tracing wrapper, say) is the one called
    limit = {
        "d2": gamma_d2,
        "mixed": gamma_mixed,
        "mixed-rand": gamma_mixed_rand,
        "partitioned": gamma_partitioned,
    }[args.model]
    res = limit(args.alpha, *flags.values())
    results: dict = {"gamma": res.gamma, "closed_form": res.closed_form_used}
    if args.model == "partitioned":
        # null without a branch pair, or for a component beyond the float range
        t1, t2 = res.branch_data or (math.inf, math.inf)
        results["t1"] = t1 if math.isfinite(t1) else None
        results["t2"] = t2 if math.isfinite(t2) else None
    return {"model": args.model, "alpha": args.alpha, **flags}, results


def _handle_simulate(args: argparse.Namespace) -> tuple[dict, dict]:
    flags = _model_flags(args)
    # simulate's model names are the ModelParams variants
    stats = estimate_mu(ModelParams(args.n, args.m, args.model, **flags), args.trials, RngSeed(args.seed))
    results = {**dataclasses.asdict(stats), "mean_over_n": stats.mean / args.n if args.n else 0.0}
    return {"model": args.model, "n": args.n, "m": args.m, "trials": args.trials, **flags}, results


def _handle_stash_size(args: argparse.Namespace) -> tuple[dict, dict]:
    real = stash_size_for_epsilon(args.n, args.m, args.epsilon)
    return {"n": args.n, "m": args.m, "epsilon": args.epsilon}, {"stash_real": real, "stash_slots": math.ceil(real)}


def _handle_trace(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.synthetic is not None and args.input is not None:
        # argparse refuses both flags; a --sweep over synthetic sets it later
        raise ValueError("--input and --synthetic (here set by --sweep) are exclusive key sources")
    if args.synthetic is not None:
        keys = synthetic_stream(args.synthetic, args.seed)
        source = "synthetic"
    else:
        keys = read_keys(args.input, args.input_format)
        # the model's keys are distinct: repeats are mixed apart or dropped
        keys = tuple(disambiguate_duplicates(keys)) if args.keep_duplicates else tuple(dict.fromkeys(keys))
        source = args.input
    params: dict = {"source": source, "m": args.m, "d": args.d, "repeats": args.repeats}
    boundary = None
    if args.beta is not None:
        # checked before beta*m is formed, which a huge beta overflows
        if not 0.0 <= args.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        boundary = require_integral(args.beta * args.m, "beta*m")
        params["beta"] = args.beta
    report = run_trace_experiment(keys, args.m, args.d, args.repeats, args.seed, boundary)
    return params, dataclasses.asdict(report)


def _handle_concentration(args: argparse.Namespace) -> tuple[dict, dict]:
    lam = getattr(args, "lambda")
    empirical, bound = concentration_experiment(
        ModelParams.fixed2(args.n, args.m), args.trials, lam, RngSeed(args.seed), one_sided=args.one_sided
    )
    params = {"n": args.n, "m": args.m, "lambda": lam, "trials": args.trials, "one_sided": args.one_sided}
    return params, {"empirical_fraction": empirical, "bound": bound}


_HANDLERS = {
    "exact": _handle_exact,
    "asymptotic": _handle_asymptotic,
    "simulate": _handle_simulate,
    "stash-size": _handle_stash_size,
    "trace": _handle_trace,
    "concentration": _handle_concentration,
}


# ---------------------------------------------------------------------------
# sweeps and the entry point

# exact arithmetic on the grid's decimals: no result of theirs has more
# digits than this
_EXACT = Context(prec=MAX_PREC)


def _points(args: argparse.Namespace) -> Iterator[argparse.Namespace]:
    """``args`` itself or, with --sweep, one copy of it per grid point,
    made as the grid is walked rather than all up front."""
    if not args.sweep:
        yield args
        return
    spec = args.sweep
    name, _, grid = spec.partition("=")
    texts = grid.split(":")
    try:
        start, stop, step = (_finite_float(v) for v in texts)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"bad --sweep spec {spec!r}; expected PARAM=START:STOP:STEP") from None
    flags = _NUMERIC[args.subcommand]
    if name not in flags:
        raise ValueError(f"cannot sweep {name!r} in {args.subcommand!r}; choose from {sorted(flags)}")
    # the grid is the decimals as written, walked exactly; the floats are
    # checked too, so that every grid they refuse stays refused
    exact_start, exact_stop, exact_step = (Decimal(v) for v in texts)
    if step <= 0 or stop < start or exact_stop < exact_start:
        raise ValueError("sweep needs step > 0 and stop >= start")
    if not math.isfinite((stop - start) / step):
        raise ValueError(f"--sweep {spec!r} has more points than can be counted")
    kind = flags[name]
    for k in range(int(_EXACT.divide_int(_EXACT.subtract(exact_stop, exact_start), exact_step)) + 1):
        value = _EXACT.fma(k, exact_step, exact_start)
        number = kind(value)
        if kind is int and number != value:
            raise ValueError(f"sweep value {float(value)} for integer parameter {name!r}")
        # each point gets its own copy: handlers may rewrite it (--round)
        point = argparse.Namespace(**vars(args))
        setattr(point, name, number)
        yield point


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code: 0, 2 for
    bad input (any ValueError, a flag argparse refuses, or sizes that do
    not fit in memory), 1 for any other failure."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0

    command = args.subcommand
    try:
        records = []
        for point in _points(args):
            for name in _REQUIRED[command]:
                if getattr(point, name) is None:
                    raise ValueError(f"--{name} is required here")
            if command in _PER_BIN and point.m > sys.maxsize:
                raise ValueError(f"--m {point.m} is more bins than a list can hold ({sys.maxsize})")
            parameters, results = _HANDLERS[command](point)
            metadata: dict = {"version": __version__}
            if getattr(point, "seed", None) is not None:
                metadata["seed"] = point.seed
            records.append({"command": command, "parameters": parameters, "results": results, "metadata": metadata})
        sweep = bool(args.sweep)
        sys.stdout.write(_render(records, args.format or ("csv" if sweep else "json"), sweep))
    except ValueError as exc:  # bad input: flags, key file, model parameters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a MemoryError has no message of its own
        where = ": the lists of --m bins do not fit" if command in _PER_BIN else ""
        print(f"error: out of memory{where}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, solver, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
