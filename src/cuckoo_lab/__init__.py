"""cuckoo-lab: how full can a cuckoo hash table get, and how big must its
stash be?

The library answers that question four independent ways -- exact finite-
size expectations, large-system limits, seeded Monte-Carlo simulation, and
an executable table driven by hashed key streams -- and the test suite
holds them against each other.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticResult,
    BranchSolveError,
    gamma_d2,
    gamma_mixed,
    gamma_mixed_rand,
    gamma_partitioned,
    lambert_w0,
    perfect_beta_interval,
)
from .cuckoo import CuckooTable, DuplicateKeyError, LoadStats, LookupResult, new_table
from .exact import (
    ExactResult,
    ModelParams,
    concentration_tail_bound,
    connect_probability,
    connect_probability_partitioned,
    expected_matching_d2,
    expected_matching_mixed_det,
    expected_matching_mixed_rand,
    expected_matching_partitioned,
    husimi_count,
    matching_upper_bound_d,
    stash_size_for_epsilon,
    tree_count_d2,
    tree_count_partitioned,
)
from .hashing import bin_choices, wang_mix64
from .matching import (
    BipartiteGraph,
    ComponentSummary,
    assert_structure,
    components,
    max_matching,
    mu_via_deficit,
)
from .simulate import (
    RngSeed,
    SimStats,
    SplitMix64,
    concentration_experiment,
    estimate_mu,
    gen_graph,
)
from .trace import (
    TraceReport,
    disambiguate_duplicates,
    read_keys,
    run_trace_experiment,
    synthetic_stream,
)

__all__ = [
    "__version__",
    "AsymptoticResult",
    "BipartiteGraph",
    "BranchSolveError",
    "ComponentSummary",
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
    "assert_structure",
    "bin_choices",
    "components",
    "concentration_experiment",
    "concentration_tail_bound",
    "connect_probability",
    "connect_probability_partitioned",
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
    "husimi_count",
    "lambert_w0",
    "matching_upper_bound_d",
    "max_matching",
    "mu_via_deficit",
    "new_table",
    "perfect_beta_interval",
    "read_keys",
    "run_trace_experiment",
    "stash_size_for_epsilon",
    "synthetic_stream",
    "tree_count_d2",
    "tree_count_partitioned",
    "wang_mix64",
]
