"""The package's public names and members, and their refusal of a NaN
argument."""

import collections
import dataclasses

import pytest

import cuckoo_lab
from cuckoo_lab import (
    ModelParams,
    RngSeed,
    concentration_experiment,
    concentration_tail_bound,
    gamma_d2,
    gamma_mixed,
    gamma_mixed_rand,
    gamma_partitioned,
    lambert_w0,
)
from cuckoo_lab.cuckoo import TableStats

# Every export is listed here, so that adding or removing one is a
# deliberate edit of this list.
PUBLIC_NAMES = [
    "AsymptoticResult",
    "BipartiteGraph",
    "BranchSolveError",
    "CuckooTable",
    "DuplicateKeyError",
    "ExactResult",
    "LoadStats",
    "LookupResult",
    "ModelParams",
    "RngSeed",
    "SimStats",
    "SplitMix64",
    "TraceReport",
    "__version__",
    "bin_choices",
    "concentration_experiment",
    "concentration_tail_bound",
    "disambiguate_duplicates",
    "estimate_mu",
    "expected_matching_d2",
    "expected_matching_mixed_det",
    "expected_matching_mixed_rand",
    "expected_matching_partitioned",
    "gamma_d2",
    "gamma_mixed",
    "gamma_mixed_rand",
    "gamma_partitioned",
    "gen_graph",
    "lambert_w0",
    "matching_upper_bound_d",
    "max_matching",
    "mu_via_deficit",
    "new_table",
    "read_keys",
    "run_trace_experiment",
    "stash_size_for_epsilon",
    "synthetic_stream",
    "wang_mix64",
]


def test_every_export_resolves_once():
    repeated = [name for name, count in collections.Counter(cuckoo_lab.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in cuckoo_lab.__all__ if not hasattr(cuckoo_lab, name)]
    assert missing == []


def test_exports_are_exactly_the_public_names():
    assert sorted(cuckoo_lab.__all__) == PUBLIC_NAMES


# The fields of the result and parameter dataclasses and the public
# methods of the generator and the table, pinned like the names.
DATACLASS_FIELDS = {
    cuckoo_lab.ExactResult: ["mu", "stash_expected", "terms", "truncated_at"],
    cuckoo_lab.AsymptoticResult: ["gamma", "branch_data", "closed_form_used"],
    cuckoo_lab.SimStats: ["mean", "std_dev", "min", "max", "std_error"],
    cuckoo_lab.TraceReport: ["n", "overflow_mean", "overflow_min", "overflow_max", "inserted_mean"],
    TableStats: ["placed", "displacements", "stash_peak"],
    cuckoo_lab.LoadStats: ["placed", "stash_size"],
    cuckoo_lab.LookupResult: ["found", "in_stash", "bin"],
    ModelParams: ["n", "m", "variant", "a", "p", "beta", "d"],
    RngSeed: ["seed"],
}
PUBLIC_METHODS = {
    cuckoo_lab.SplitMix64: ["draws"],
    cuckoo_lab.CuckooTable: ["bin_of", "insert", "insert_many", "load_stats", "lookup", "remove", "stash_keys"],
}


@pytest.mark.parametrize("cls", DATACLASS_FIELDS, ids=lambda cls: cls.__name__)
def test_dataclass_fields_are_pinned(cls):
    assert [f.name for f in dataclasses.fields(cls)] == DATACLASS_FIELDS[cls]


@pytest.mark.parametrize("cls", PUBLIC_METHODS, ids=lambda cls: cls.__name__)
def test_public_methods_are_pinned(cls):
    methods = sorted(name for name, value in vars(cls).items() if not name.startswith("_") and callable(value))
    assert methods == PUBLIC_METHODS[cls]


_NAN = float("nan")
_NAN_CALLS = [
    (gamma_d2, (_NAN,)),
    (gamma_mixed, (_NAN, 1.5)),
    (gamma_mixed_rand, (_NAN, 0.5)),
    (gamma_partitioned, (_NAN, 0.3)),
    (lambert_w0, (_NAN,)),
    (concentration_tail_bound, (_NAN,)),
    (concentration_experiment, (ModelParams.fixed2(20, 20), 100, _NAN, RngSeed(1))),
]


@pytest.mark.parametrize("call, args", _NAN_CALLS, ids=[call.__name__ for call, _ in _NAN_CALLS])
def test_nan_argument_is_rejected(call, args):
    # a NaN fails every comparison, so a check written as "x <= 0" lets it
    # through; each check is written so that NaN fails it
    with pytest.raises(ValueError):
        call(*args)
