"""Fluid-flow throughput engine: LPs, FPTAS, bounds, proportionality."""

from .adversarial import (
    Conjecture24Evidence,
    adversarial_matching_tm,
    conjecture_2_4_evidence,
    random_hose_tm,
)
from .bounds import (
    best_static_throughput_bound,
    moore_bound_mean_distance,
    tm_throughput_upper_bound,
)
from .errors import (
    InfeasibleError,
    SolverFailure,
    SolverNumericalError,
    UnboundedError,
)
from .colgen import ColgenTopologyContext, path_colgen_throughput
from .lp import (
    EdgeLpContext,
    ThroughputResult,
    max_concurrent_throughput,
    path_throughput,
)
from .mcf import approx_concurrent_throughput
from .paths import all_shortest_paths, ecmp_next_hops, k_shortest_paths, path_edges
from .proportionality import (
    SkewSweepResult,
    fattree_flexibility_curve,
    skew_sweep,
    tp_curve,
)

__all__ = [
    "ThroughputResult",
    "SolverFailure",
    "InfeasibleError",
    "UnboundedError",
    "SolverNumericalError",
    "random_hose_tm",
    "adversarial_matching_tm",
    "conjecture_2_4_evidence",
    "Conjecture24Evidence",
    "max_concurrent_throughput",
    "EdgeLpContext",
    "ColgenTopologyContext",
    "path_throughput",
    "path_colgen_throughput",
    "approx_concurrent_throughput",
    "tm_throughput_upper_bound",
    "best_static_throughput_bound",
    "moore_bound_mean_distance",
    "k_shortest_paths",
    "all_shortest_paths",
    "ecmp_next_hops",
    "path_edges",
    "tp_curve",
    "fattree_flexibility_curve",
    "SkewSweepResult",
    "skew_sweep",
]
