"""repro: a reproduction of "Beyond fat-trees without antennae, mirrors,
and disco-balls" (Kassing et al., SIGCOMM 2017).

The package provides:

* :mod:`repro.topologies` — fat-trees, Jellyfish, Xpander, SlimFly,
  LongHop, and analytic models of dynamic (reconfigurable) networks;
* :mod:`repro.traffic` — the paper's traffic matrices, pair
  distributions (A2A, Permute, Skew, ProjecToR-like), flow-size
  distributions (pFabric web search, Pareto-HULL), and workloads;
* :mod:`repro.throughput` — fluid-flow throughput: exact and path-based
  max-concurrent-flow LPs, a Garg–Könemann FPTAS, NSDI'14 upper bounds,
  and the throughput-proportionality flexibility metric;
* :mod:`repro.sim` — a packet-level discrete-event simulator with DCTCP
  and ECMP / VLB / HYB routing;
* :mod:`repro.flowsim` — a fast flow-level (max-min fair) simulator;
* :mod:`repro.perf` — shared per-topology path/routing caches (distance
  matrices, ECMP tables, k-shortest-path sets) behind the hot paths;
* :mod:`repro.cost` — Table 1's per-port cost model and equal-cost
  network sizing;
* :mod:`repro.analysis` — plain-text rendering of results;
* :mod:`repro.harness` — parallel sweep orchestration over declarative
  experiment specs with content-addressed result caching
  (``python -m repro sweep``);
* :mod:`repro.obs` — opt-in observability: metrics, spans, and a
  per-run JSONL trace + manifest (``python -m repro profile``);
* :mod:`repro.registry` — string-spec construction registry for
  topologies, traffic patterns, routing policies, failure modes, and
  throughput solver backends;
* :mod:`repro.solvers` — pluggable throughput solver backends
  (``highs-exact``, ``highs-incremental`` / ``highs-batched``,
  ``highs-colgen``, ``highs-paths``, ``mcf-approx``) returning typed
  :class:`~repro.solvers.SolveOutcome` values;
* :mod:`repro.resilience` — seeded failure scenarios,
  ``topology.degrade(...)``, and "throughput retained vs. fraction
  failed" campaigns (``python -m repro resilience``);
* :mod:`repro.api` — a long-lived, stdlib-only HTTP service exposing
  throughput/simulate/sweep/compare/design over warm shared state
  (``python -m repro serve``), plus the typed
  :class:`~repro.api.ReproClient` facade;
* :mod:`repro.design` — inverse design: the staged search for the
  cheapest network meeting a declarative SLO target
  (``python -m repro design``).

Quickstart::

    from repro.topologies import fattree, xpander_from_budget
    from repro.traffic import Workload, PoissonArrivals, pfabric_web_search
    from repro.traffic import permute_pair_distribution
    from repro.sim import run_packet_experiment

    ft = fattree(8).topology
    xp = xpander_from_budget(num_switches=53, ports_per_switch=8,
                             servers_total=ft.num_servers)
    wl = Workload(permute_pair_distribution(xp, 0.31),
                  pfabric_web_search(), PoissonArrivals(2000.0))
    stats = run_packet_experiment(xp, wl, routing="hyb")
    print(stats.summary())
"""

from . import (
    analysis,
    api,
    cost,
    design,
    flowsim,
    harness,
    obs,
    perf,
    registry,
    resilience,
    sim,
    solvers,
    throughput,
    topologies,
    traffic,
)
from .version import SPEC_HASH_VERSION, __version__

__all__ = [
    "topologies",
    "traffic",
    "throughput",
    "sim",
    "flowsim",
    "perf",
    "cost",
    "analysis",
    "harness",
    "api",
    "obs",
    "registry",
    "resilience",
    "solvers",
    "design",
    "SPEC_HASH_VERSION",
    "__version__",
]
