"""Command-line surface.

Every capability is a subcommand producing one machine-readable record
(JSON by default) or, with ``--sweep PARAM=start:stop:step``, one record
per grid point (CSV by default, ready for plotting).  Numbers are printed
with 17 significant digits in both formats, so the two serializations give
value-identical data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import __version__
from .asymptotics import gamma_d2, gamma_mixed, gamma_mixed_rand, gamma_partitioned
from .exact import ModelParams, evaluate, matching_upper_bound_d, require_integral, stash_size_for_epsilon
from .simulate import RngSeed, concentration_experiment, estimate_mu
from .trace import disambiguate_duplicates, read_keys, run_trace_experiment, synthetic_stream, KeyStream


class UsageError(Exception):
    """Bad or inconsistent command-line arguments (exit code 2)."""


@dataclass
class OutputRecord:
    command: str
    parameters: dict
    results: dict
    metadata: dict

    def flat_items(self) -> list[tuple[str, object]]:
        items: list[tuple[str, object]] = [("command", self.command)]
        items.extend(self.parameters.items())
        items.extend(self.results.items())
        items.extend(self.metadata.items())
        return items


def _num_repr(value: float) -> str:
    return format(value, ".17g")


def _json_value(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value} has no JSON representation")
        return _num_repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {value!r}")


def _record_json(record: OutputRecord) -> str:
    return _json_value(
        {
            "command": record.command,
            "parameters": record.parameters,
            "results": record.results,
            "metadata": record.metadata,
        }
    )


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _num_repr(value)
    return str(value)


def _records_csv(records: list[OutputRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [k for k, _ in records[0].flat_items()]
    writer.writerow(header)
    for rec in records:
        items = rec.flat_items()
        if [k for k, _ in items] != header:
            raise RuntimeError("inconsistent sweep columns")
        writer.writerow([_csv_cell(v) for _, v in items])
    return buf.getvalue()


def _emit(records: list[OutputRecord], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(_records_csv(records))
    elif len(records) == 1:
        out.write(_record_json(records[0]) + "\n")
    else:
        out.write("[" + ",\n ".join(_record_json(r) for r in records) + "]\n")


# ---------------------------------------------------------------------------
# argument plumbing


_SWEEPABLE: dict[str, dict[str, type]] = {
    "exact": {"n": int, "m": int, "a": float, "p": float, "beta": float, "d": int},
    "asymptotic": {"alpha": float, "a": float, "p": float, "beta": float},
    "simulate": {"n": int, "m": int, "a": float, "p": float, "beta": float, "d": int, "trials": int},
    "stash-size": {"n": int, "m": int, "epsilon": float},
    "trace": {"m": int, "d": int, "repeats": int, "synthetic": int},
    "concentration": {"n": int, "m": int, "lam": float, "trials": int},
}

# CLI flag spelling for sweep parameters whose dest differs
_SWEEP_ALIASES = {"lambda": "lam"}


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: NaN and infinities are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuckoo-lab",
        description="Expected cuckoo hash-table utilization and stash sizing, "
        "exact, asymptotic, simulated, and trace-driven.",
    )
    parser.add_argument("--version", action="version", version=f"cuckoo-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument(
            "--sweep",
            metavar="PARAM=START:STOP:STEP",
            default=None,
            help="repeat the command over a numeric grid, one output row per point",
        )

    p = sub.add_parser("exact", help="exact expected matching size / stash for finite n, m")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--model", required=True, choices=("d2", "mixed-det", "mixed-rand", "partitioned", "bound-d"))
    p.add_argument("--a", type=_finite_float)
    p.add_argument("--p", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    p.add_argument("--d", type=int)
    p.add_argument("--round", action="store_true", help="snap a*n or beta*m to the nearest integer")
    add_common(p)

    p = sub.add_parser("asymptotic", help="limit matching fraction gamma at fixed load")
    p.add_argument("--alpha", type=_finite_float)
    p.add_argument("--model", required=True, choices=("d2", "mixed", "mixed-rand", "partitioned"))
    p.add_argument("--a", type=_finite_float)
    p.add_argument("--p", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    add_common(p)

    p = sub.add_parser("simulate", help="Monte-Carlo matching-size statistics")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--model", required=True, choices=("d2", "mixed-det", "mixed-rand", "partitioned", "fixed-d"))
    p.add_argument("--a", type=_finite_float)
    p.add_argument("--p", type=_finite_float)
    p.add_argument("--beta", type=_finite_float)
    p.add_argument("--d", type=int)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("stash-size", help="stash capacity for a target overflow probability")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--epsilon", type=_finite_float)
    add_common(p)

    p = sub.add_parser("trace", help="repeated table builds over a key stream")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH")
    src.add_argument("--synthetic", type=int, metavar="N")
    p.add_argument("--input-format", choices=("hex-lines", "binary-u64-le"), default="hex-lines")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--repeats", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", type=_finite_float, help="partition the bins into banks beta*m / (1-beta)*m")
    p.add_argument("--keep-duplicates", action="store_true")
    add_common(p)

    p = sub.add_parser("concentration", help="empirical deviation fraction vs. the tail bound")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--lambda", dest="lam", type=_finite_float)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--one-sided", action="store_true")
    add_common(p)

    return parser


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = {"lam": "lambda"}.get(name, name)
            raise UsageError(f"--{flag} is required here")


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


def _model_flags(args: argparse.Namespace, *flags: str) -> dict:
    """Require the model's own flag and forbid the command's other model
    ``flags``; returns the model's flag and its value, if it has one."""
    model = args.model
    own = _MODEL_FLAG[model]
    if own is not None:
        _require(args, own)
    for name in flags:
        if name != own and getattr(args, name) is not None:
            raise UsageError(f"--{name} does not apply to model {model!r}")
    return {} if own is None else {own: getattr(args, own)}


def _snap(args: argparse.Namespace) -> None:
    """Apply --round: replace a or beta with the nearest representable value.
    A value outside its range is left as it is, for the model to reject."""
    if args.model == "mixed-det" and args.a is not None and args.n and 1.0 <= args.a <= 2.0:
        args.a = round(args.a * args.n) / args.n
    if args.model == "partitioned" and args.beta is not None and args.m and 0.0 <= args.beta <= 1.0:
        args.beta = round(args.beta * args.m) / args.m


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (parameters, results)


def _handle_exact(args: argparse.Namespace) -> tuple[dict, dict]:
    _require(args, "n", "m")
    if args.round:
        _snap(args)
    model = args.model
    params: dict = {"model": model, "n": args.n, "m": args.m, **_model_flags(args, "a", "p", "beta", "d")}
    try:
        if model == "bound-d":
            mu, truncated_at = matching_upper_bound_d(args.n, args.m, args.d), None
        else:
            # the other exact model names are the ModelParams variants
            res = evaluate(ModelParams(args.n, args.m, model, a=args.a, p=args.p, beta=args.beta))
            mu, truncated_at = res.mu, res.truncated_at
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    results = {
        "mu": mu,
        "stash_expected": args.n - mu,
        "mu_over_n": mu / args.n if args.n else 0.0,
        "truncated_at": truncated_at,
    }
    return params, results


def _handle_asymptotic(args: argparse.Namespace) -> tuple[dict, dict]:
    _require(args, "alpha")
    model = args.model
    flags = _model_flags(args, "a", "p", "beta")
    params: dict = {"model": model, "alpha": args.alpha, **flags}
    # built per call, so that a function swapped into this module's
    # namespace (a tracing wrapper, say) is the one called
    limit = {
        "d2": gamma_d2,
        "mixed": gamma_mixed,
        "mixed-rand": gamma_mixed_rand,
        "partitioned": gamma_partitioned,
    }[model]
    try:
        res = limit(args.alpha, *flags.values())
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    results: dict = {"gamma": res.gamma, "closed_form": res.closed_form_used}
    if model == "partitioned":
        # null without a branch pair, or for a component beyond the float range
        t1, t2 = res.branch_data or (math.inf, math.inf)
        results["t1"] = t1 if math.isfinite(t1) else None
        results["t2"] = t2 if math.isfinite(t2) else None
    return params, results


def _handle_simulate(args: argparse.Namespace) -> tuple[dict, dict]:
    _require(args, "n", "m", "trials")
    flags = _model_flags(args, "a", "p", "beta", "d")
    try:
        # simulate's model names are the ModelParams variants
        mp = ModelParams(args.n, args.m, args.model, a=args.a, p=args.p, beta=args.beta, d=args.d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        stats = estimate_mu(mp, args.trials, RngSeed(args.seed))
    except ValueError as exc:  # trials < 1, or a partition that leaves a bank empty
        raise UsageError(str(exc)) from exc
    params: dict = {"model": args.model, "n": args.n, "m": args.m, "trials": args.trials, **flags}
    results = {
        "mean": stats.mean,
        "std_dev": stats.std_dev,
        "min": stats.min,
        "max": stats.max,
        "std_error": stats.std_error,
        "mean_over_n": stats.mean / args.n if args.n else 0.0,
    }
    return params, results


def _handle_stash_size(args: argparse.Namespace) -> tuple[dict, dict]:
    _require(args, "n", "m", "epsilon")
    try:
        real = stash_size_for_epsilon(args.n, args.m, args.epsilon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params = {"n": args.n, "m": args.m, "epsilon": args.epsilon}
    return params, {"stash_real": real, "stash_slots": math.ceil(real)}


def _handle_trace(args: argparse.Namespace) -> tuple[dict, dict]:
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    if args.m < 1:
        raise UsageError("--m must be >= 1")
    if args.d < 2:
        raise UsageError("--d must be >= 2")
    if args.synthetic is not None:
        if args.synthetic < 0:
            raise UsageError("--synthetic must be >= 0")
        stream = synthetic_stream(args.synthetic, args.seed)
        source = "synthetic"
    else:
        stream = read_keys(args.input, args.input_format, dedup=not args.keep_duplicates)
        if args.keep_duplicates:
            stream = KeyStream(
                keys=tuple(disambiguate_duplicates(list(stream.keys))),
                source=stream.source,
                dedup_applied=True,
            )
        source = args.input
    boundary = None
    if args.beta is not None:
        if args.d != 2:
            raise UsageError("--beta requires d = 2")
        if not 0.0 <= args.beta <= 1.0:
            raise UsageError("beta must be in [0, 1]")
        try:
            boundary = require_integral(args.beta * args.m, "beta*m")
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if not 0 < boundary < args.m:
            raise UsageError("beta must leave both banks non-empty")
    report = run_trace_experiment(stream, args.m, args.d, args.repeats, args.seed, boundary)
    params: dict = {
        "source": source,
        "m": args.m,
        "d": args.d,
        "repeats": args.repeats,
    }
    if args.beta is not None:
        params["beta"] = args.beta
    results = {
        "n": report.n,
        "overflow_mean": report.overflow_mean,
        "overflow_min": report.overflow_min,
        "overflow_max": report.overflow_max,
        "inserted_mean": report.inserted_mean,
    }
    return params, results


def _handle_concentration(args: argparse.Namespace) -> tuple[dict, dict]:
    _require(args, "n", "m", "lam")
    try:
        empirical, bound = concentration_experiment(
            ModelParams.fixed2(args.n, args.m),
            args.trials,
            args.lam,
            RngSeed(args.seed),
            one_sided=args.one_sided,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params = {
        "n": args.n,
        "m": args.m,
        "lambda": args.lam,
        "trials": args.trials,
        "one_sided": args.one_sided,
    }
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
# sweep machinery


def _parse_sweep(spec: str, subcommand: str) -> tuple[str, list[float]]:
    try:
        name, _, grid = spec.partition("=")
        start_s, stop_s, step_s = grid.split(":")
        start, stop, step = (_finite_float(v) for v in (start_s, stop_s, step_s))
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"bad --sweep spec {spec!r}; expected PARAM=START:STOP:STEP") from None
    name = _SWEEP_ALIASES.get(name, name)
    allowed = _SWEEPABLE.get(subcommand, {})
    if name not in allowed:
        raise UsageError(
            f"cannot sweep {name!r} in {subcommand!r}; choose from {sorted(allowed)}"
        )
    if step <= 0 or stop < start:
        raise UsageError("sweep needs step > 0 and stop >= start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = [start + k * step for k in range(count)]
    if allowed[name] is int:
        for v in values:
            if abs(v - round(v)) > 1e-9:
                raise UsageError(f"sweep value {v} for integer parameter {name!r}")
    return name, values


def _seed_of(args: argparse.Namespace) -> Optional[int]:
    return getattr(args, "seed", None)


def run(argv: Sequence[str]) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0

    handler = _HANDLERS[args.subcommand]
    try:
        records: list[OutputRecord] = []
        if args.sweep:
            name, values = _parse_sweep(args.sweep, args.subcommand)
            caster = _SWEEPABLE[args.subcommand][name]
            for value in values:
                # each point gets its own copy: handlers may rewrite it (--round)
                point = argparse.Namespace(**vars(args))
                setattr(point, name, caster(round(value)) if caster is int else value)
                parameters, results = handler(point)
                records.append(_make_record(point, parameters, results))
        else:
            parameters, results = handler(args)
            records.append(_make_record(args, parameters, results))
        fmt = args.format or ("csv" if args.sweep else "json")
        _emit(records, fmt, sys.stdout)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: I/O, solver, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _make_record(args: argparse.Namespace, parameters: dict, results: dict) -> OutputRecord:
    metadata: dict = {"version": __version__}
    seed = _seed_of(args)
    if seed is not None:
        metadata["seed"] = seed
    return OutputRecord(
        command=args.subcommand,
        parameters=parameters,
        results=results,
        metadata=metadata,
    )


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
