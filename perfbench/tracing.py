"""Spans around the public entry points of each cuckoo-lab layer.

The wrappers are installed from here, by replacing module and class
attributes for the length of a traced round; nothing under ``src/``
changes.  Each span records its caller (the nearest enclosing span), its
duration and its self time (duration minus the time of the spans it
encloses).  Spans are aggregated in memory per (caller, name).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# splitmix64 adds this odd constant per draw, so the number of draws is the
# state difference times its inverse modulo 2^64
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
_MASK64 = (1 << 64) - 1

GAMMAS = ("asymptotics.gamma_d2", "asymptotics.gamma_mixed",
          "asymptotics.gamma_mixed_rand", "asymptotics.gamma_partitioned")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, time of enclosed spans]
        self.spans: dict[tuple[str, str], list[int]] = {}  # -> [calls, ns, self ns]
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        from cuckoo_lab import asymptotics, cli, cuckoo, exact, hashing, matching, simulate, trace

        fn = self._patch_function
        fn("hashing.bin_choices", hashing.bin_choices)
        for method in ("insert", "lookup", "remove"):
            self._patch_method(f"cuckoo.{method}", cuckoo.CuckooTable, method)
        fn("simulate.gen_graph", simulate.gen_graph, before=_rng_state, after=self._count_draws)
        fn("simulate.estimate_mu", simulate.estimate_mu)
        fn("simulate.concentration_experiment", simulate.concentration_experiment)
        fn("matching.mu_via_deficit", matching.mu_via_deficit)
        fn("matching.max_matching", matching.max_matching)
        for name in ("d2", "mixed_det", "mixed_rand", "partitioned"):
            fn(f"exact.{name}", getattr(exact, f"expected_matching_{name}"),
               after=functools.partial(self._count_terms, f"exact.{name}"))
        fn("exact.bound_d", exact.matching_upper_bound_d)
        fn("exact.stash_size_for_epsilon", exact.stash_size_for_epsilon)
        for name in GAMMAS:
            fn(name, getattr(asymptotics, name.split(".")[1]), after=self._count_closed_form)
        for name in ("read_keys", "synthetic_stream", "disambiguate_duplicates", "run_trace_experiment"):
            fn(f"trace.{name}", getattr(trace, name))
        fn("cli.run", cli.run)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch_function(self, name, original, before=None, after=None) -> None:
        # every module that imported the function by name gets the wrapper
        wrapper = self._wrap(name, original, before, after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "cuckoo_lab" or mod_name.startswith("cuckoo_lab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _patch_method(self, name, cls, attr) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, None, None))

    def _wrap(self, name, fn, before, after):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            parent = stack[-1][0] if stack else ""
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                s = spans.get((parent, name))
                if s is None:
                    s = spans[(parent, name)] = [0, 0, 0]
                s[0] += 1
                s[1] += dt
                s[2] += dt - frame[1]
            if after:
                after(args, kwargs, result, ctx, parent)
            return result

        return wrapper

    # -- counters --------------------------------------------------------------

    def _count_draws(self, args, kwargs, result, state_before, parent) -> None:
        rng = args[1] if len(args) > 1 else kwargs["rng"]
        self.counts["simulate.draws"] += ((rng.state - state_before) * _GOLDEN_INV) & _MASK64

    def _count_terms(self, name, args, kwargs, result, ctx, parent) -> None:
        self.counts[f"{name}_terms"] += len(result.terms)

    def _count_closed_form(self, args, kwargs, result, ctx, parent) -> None:
        if parent not in GAMMAS:
            self.counts["asymptotics.closed_form"] += bool(result.closed_form_used)

    # -- reading ---------------------------------------------------------------

    def total(self, name: str, callers=None) -> tuple[int, int, int]:
        """(calls, ns, self ns) of the spans ``name`` whose caller is in
        ``callers``, or of all of them."""
        calls = ns = own = 0
        for (caller, n), (c, t, s) in self.spans.items():
            if n == name and (callers is None or caller in callers):
                calls, ns, own = calls + c, ns + t, own + s
        return calls, ns, own

    def mean_ns(self, name: str, callers=None) -> float:
        calls, ns, _ = self.total(name, callers)
        return ns / calls if calls else 0.0


def _rng_state(args, kwargs) -> int:
    rng = args[1] if len(args) > 1 else kwargs["rng"]
    return rng.state
