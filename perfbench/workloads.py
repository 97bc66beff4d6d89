"""The three benchmark workloads, driven through the library's public API.

Each workload is a closed loop with one caller.  One op is one fixed
unit of work: the same inputs on every op of a run, except that
``service_warm`` asks each session for fresh TM and flow seeds, as a
new client of a warm service would.  Every input is derived from the
run's ``--seed``.

A workload exposes:

* ``setup()`` / ``close()`` — start and stop what outlives the ops
  (for ``service_warm`` the server and its loopback connection);
* ``prepare()`` — run before each op, outside the timed interval;
* ``op(index, tracer)`` — one op; ``tracer`` opens a span around each
  call into a library layer.  Op 0 is the warm-up, whose result the
  runner stores in ``reference``;
* ``check(result)`` — output checks, run outside the timed interval;
  returns a list of failure messages;
* ``layer_values(result)`` — the per-layer counts and times the op's
  result carries (span times come from the tracer).  Called once per
  op, in order.
* ``flagged`` — the exact counts that must repeat on every op.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import perf, registry
from repro.api import ApiServer, ApiService, ReproClient
from repro.sim import NetworkParams, PacketSimulation
from repro.throughput import tm_throughput_upper_bound
from repro.traffic import (
    PoissonArrivals,
    Workload,
    longest_matching_tm,
    pfabric_web_search,
)

from spans import NULL_TRACER

#: Absolute tolerance of the throughput checks.
EPS = 1e-9

#: Scaled packet conventions of the figure benches: 1 Gbps links,
#: pFabric at a 200 KB mean, HYB's Q = 100 KB scaled by the same factor.
LINK_RATE = 1e9
MEAN_FLOW_BYTES = 200_000
HYB_Q_BYTES = int(100_000 * MEAN_FLOW_BYTES / 2_400_000)


class _ColdWorkload:
    """A workload whose every op starts from an empty shared path cache."""

    reference: Optional[Dict[str, Any]] = None

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        perf.clear_shared_caches()
        gc.collect()

    def close(self) -> None:
        pass


class FluidCurve(_ColdWorkload):
    """Cold Fig 2/5-style throughput mini-figure.

    Longest-matching TMs at three server fractions, solved with the
    exact edge LP on a k=6 fat-tree and on a 20-switch jellyfish
    hosting about as many servers, and with column generation on a
    32-switch jellyfish.  Every op builds each topology, TM and solver
    backend afresh.
    """

    name = "fluid_curve"
    flagged = ("perf.ksp_pairs", "perf.cache_entries", "solvers.solves",
               "solvers.iterations")
    FRACTIONS = (0.3, 0.6, 1.0)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.figure = (
            ("fattree:k=6", "highs-exact"),
            (f"jellyfish:switches=20,degree=4,servers=3,seed={seed}", "highs-exact"),
            (f"jellyfish:switches=32,degree=5,servers=3,seed={seed}", "highs-colgen"),
        )

    def op(self, index: int, tracer=NULL_TRACER) -> Dict[str, Any]:
        solves: List[Tuple[Any, Any, Any]] = []
        for topo_spec, solver in self.figure:
            with tracer.span("topologies.build"):
                topo = registry.topology(topo_spec)
            for fraction in self.FRACTIONS:
                with tracer.span("traffic.tm"):
                    tm = longest_matching_tm(topo, fraction, seed=self.seed)
                with tracer.span("solvers.solve"):
                    outcome = registry.solver(solver).solve(topo, tm)
                solves.append((topo, tm, outcome))
        return {"solves": solves, "cache": perf.shared_cache_stats()}

    def check(self, result: Dict[str, Any]) -> List[str]:
        problems = []
        for i, (topo, tm, outcome) in enumerate(result["solves"]):
            if not outcome.ok:
                problems.append(f"solve {i} ended {outcome.status.value}")
                continue
            t = outcome.result.throughput
            bound = tm_throughput_upper_bound(topo, tm)
            if not 0 < t <= bound + EPS:
                problems.append(f"solve {i}: t={t} outside (0, {bound}]")
            if self.reference is not None:
                ref = self.reference["solves"][i][2].result.throughput
                if abs(t - ref) > EPS:
                    problems.append(f"solve {i}: t={t} differs from the first op's {ref}")
        return problems

    def layer_values(self, result: Dict[str, Any]) -> Dict[str, float]:
        outcomes = [o for _, _, o in result["solves"]]
        return {
            "perf.ksp_pairs": result["cache"]["ksp_pairs"],
            "perf.cache_entries": result["cache"]["entries"],
            "solvers.solves": len(outcomes),
            "solvers.iterations": sum(o.iterations for o in outcomes),
            "solvers.optimal_ratio": sum(o.ok for o in outcomes) / len(outcomes),
        }


class PacketFct(_ColdWorkload):
    """Fig 9/10-style packet-level run at one load where queues build.

    Permute(0.31) at 0.5 load per active server, with the scaled
    conventions above.  The same flows run on a k=4 fat-tree with ECMP
    and on an Xpander of 16 four-port switches with HYB.

    Flow sizes and arrival times are one fixed pFabric trace (the
    paper's "identical set of flows", section 6.4); ``--seed`` draws the
    rack permutation and the routing and simulation seeds.  With a
    seeded trace a handful of heavy-tailed flows swing an op's event
    count by 3x from one seed to the next, which no run length averages
    away.
    """

    name = "packet_fct"
    flagged = ("traffic.flows", "sim.events", "sim.heap_compactions")
    PERMUTE_FRACTION = 0.31
    LOAD = 0.5
    MEASURE = (0.02, 0.04)
    TRACE_SEED = 1
    SYSTEMS = (
        ("fattree:k=4", "ecmp", True),
        ("xpander:degree=3,lift=4,servers=1", "hyb", False),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sizes = pfabric_web_search(MEAN_FLOW_BYTES)

    def op(self, index: int, tracer=NULL_TRACER) -> Dict[str, Any]:
        start, end = self.MEASURE
        runs = []
        for topo_spec, routing, take_first in self.SYSTEMS:
            with tracer.span("topologies.build"):
                topo = registry.topology(topo_spec)
            with tracer.span("traffic.workload"):
                pairs = registry.traffic(
                    {"pattern": "permute", "fraction": self.PERMUTE_FRACTION,
                     "seed": self.seed, "take_first": take_first},
                    topo,
                )
                active = sum(topo.servers_at(r) for r in pairs.active_racks())
                rate = self.LOAD * active * LINK_RATE / 8.0 / MEAN_FLOW_BYTES
                flows = Workload(
                    pairs, self.sizes, PoissonArrivals(rate), seed=self.TRACE_SEED
                ).generate(horizon=end + (end - start))
            with tracer.span("sim.routing"):
                defaults: Dict[str, Any] = {"seed": self.seed}
                if routing == "hyb":
                    defaults["hyb_threshold_bytes"] = HYB_Q_BYTES
                policy = registry.routing(routing, topo, **defaults)
            with tracer.span("sim.inject"):
                sim = PacketSimulation(
                    topo,
                    routing=policy,
                    network_params=NetworkParams(
                        link_rate_bps=LINK_RATE, server_link_rate_bps=LINK_RATE
                    ),
                    seed=self.seed,
                )
                sim.inject(flows)
            with tracer.span("sim.run"):
                t0 = time.perf_counter()
                stats = sim.run(start, end)
                run_s = time.perf_counter() - t0
            runs.append({
                "system": topo_spec,
                "flows": len(flows),
                "measured": len(stats.records),
                "completed": sum(1 for r in stats.records if r.finished),
                "events": sim.engine.events_processed,
                "compactions": sim.engine.heap_compactions,
                "run_s": run_s,
            })
        return {"runs": runs}

    def check(self, result: Dict[str, Any]) -> List[str]:
        return [
            f"{run['system']}: {run['completed']} of {run['measured']} "
            "measured flows completed"
            for run in result["runs"]
            if run["measured"] == 0 or run["completed"] != run["measured"]
        ]

    def layer_values(self, result: Dict[str, Any]) -> Dict[str, float]:
        runs = result["runs"]
        events = sum(r["events"] for r in runs)
        return {
            "traffic.flows": sum(r["flows"] for r in runs),
            "sim.events": events,
            "sim.heap_compactions": sum(r["compactions"] for r in runs),
            "sim.events_per_s": events / sum(r["run_s"] for r in runs),
            "sim.completed_ratio": (
                sum(r["completed"] for r in runs) / sum(r["measured"] for r in runs)
            ),
        }


class ServiceWarm:
    """A scripted ``/v1`` session against a warm in-process server.

    One ``ReproClient.http`` keep-alive connection over loopback to an
    ``ApiServer`` with one worker.  One op is one session on one warm
    16-switch jellyfish:

    1. ``throughput`` at four fractions with a fresh TM seed (memo miss);
    2. the same request again (memo hit);
    3. ``throughput`` with ``highs-colgen`` and another fresh seed;
    4. ``simulate`` on the flow engine with HYB routing and a fresh seed;
    5. ``design`` of a small bounded space with the run's target seed
       and a per-session SLO, answered from the warm design memo;
    6. ``GET /v1/context``.
    """

    name = "service_warm"
    flagged = ("api.result_hit_ratio", "design.lp_solves", "design.pruned_pre_lp")
    FRACTIONS = (0.25, 0.5, 0.75, 1.0)
    COLGEN_FRACTIONS = (0.5, 1.0)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.topology = {
            "family": "jellyfish", "switches": 16, "degree": 4, "servers": 3,
            "seed": seed,
        }
        self.topology_spec = (
            f"jellyfish:switches=16,degree=4,servers=3,seed={seed}"
        )
        self.server: Optional[ApiServer] = None
        self.client: Optional[ReproClient] = None
        self._results_seen = (0, 0)
        self._bounds: Dict[Tuple[float, int], float] = {}

    def setup(self) -> None:
        perf.clear_shared_caches()
        self.server = ApiServer(ApiService(), host="127.0.0.1", port=0, workers=1)
        self.server.start()
        self.client = ReproClient.http(self.server.host, self.server.port, timeout=120.0)
        self._results_seen = (0, 0)

    def prepare(self) -> None:
        gc.collect()

    def op(self, index: int, tracer=NULL_TRACER) -> Dict[str, Any]:
        client = self.client
        tm_seed = self.seed * 10_000 + index
        colgen_seed = tm_seed + 5_000
        with tracer.span("api.throughput_miss"):
            miss = client.throughput(
                self.topology_spec, fractions=self.FRACTIONS, seed=tm_seed
            )
        with tracer.span("api.throughput_hit"):
            hit = client.throughput(
                self.topology_spec, fractions=self.FRACTIONS, seed=tm_seed
            )
        with tracer.span("api.colgen"):
            colgen = client.throughput(
                self.topology_spec, fractions=self.COLGEN_FRACTIONS,
                seed=colgen_seed, solver="highs-colgen",
            )
        with tracer.span("api.simulate"):
            t0 = time.perf_counter()
            sim = client.simulate({
                "topology": self.topology,
                "workload": {"pattern": "permute", "fraction": 0.5, "load": 0.3,
                             "sizes": "pfabric", "mean_flow_bytes": MEAN_FLOW_BYTES},
                "engine": "flow",
                "routing": "hyb",
                "seed": tm_seed,
                "measure_start": 0.01,
                "measure_end": 0.02,
                "hyb_threshold_bytes": HYB_Q_BYTES,
                "short_flow_bytes": HYB_Q_BYTES,
            })
            simulate_s = time.perf_counter() - t0
        with tracer.span("api.design"):
            report = client.design({
                "servers": 32,
                # A new SLO each session: the what-if cannot reuse a whole
                # earlier answer but is served from the warm LP memo.  The
                # steps are far too small to change what the bounds prune.
                "throughput_per_server": 0.3 + 1e-5 * index,
                "families": ["fattree", "jellyfish", "xpander"],
                "max_switches": 16,
                "radix": 10,
                "seed": self.seed,
                "sensitivity": False,
            })
        with tracer.span("api.context"):
            context = client.context()
        return {
            "tm_seed": tm_seed,
            "colgen_seed": colgen_seed,
            "miss": miss,
            "hit": hit,
            "colgen": colgen,
            "simulate": sim,
            "simulate_s": simulate_s,
            "design": report,
            "results_cache": context.caches["results"],
        }

    def _bound(self, fraction: float, seed: int) -> float:
        """Per-server ceiling from the cut-free bound, computed client-side."""
        key = (fraction, seed)
        if key not in self._bounds:
            topo = registry.topology(self.topology_spec)
            tm = longest_matching_tm(topo, fraction, seed=seed)
            self._bounds[key] = min(1.0, tm_throughput_upper_bound(topo, tm))
        return self._bounds[key]

    def check(self, result: Dict[str, Any]) -> List[str]:
        problems = []

        def strip(results):
            return [{k: v for k, v in r.items() if k != "cached"} for r in results]

        miss, hit = result["miss"].results, result["hit"].results
        if any(r["cached"] for r in miss) or not all(r["cached"] for r in hit):
            problems.append("the repeated throughput request was not a memo hit")
        if strip(miss) != strip(hit):
            problems.append("the memo-hit body differs from the miss body")
        for label, results, seed in (
            ("throughput", miss, result["tm_seed"]),
            ("colgen", result["colgen"].results, result["colgen_seed"]),
        ):
            for r in results:
                if r["status"] != "optimal":
                    problems.append(f"{label} at {r['fraction']}: {r['status']}")
                    continue
                bound = self._bound(r["fraction"], seed)
                if not 0 < r["per_server_throughput"] <= bound + EPS:
                    problems.append(
                        f"{label} at {r['fraction']}: "
                        f"{r['per_server_throughput']} outside (0, {bound}]"
                    )
        if not result["simulate"].ok:
            problems.append(
                f"simulate record is {result['simulate'].record.get('status')!r}"
            )
        report = result["design"]
        if not report.complete:
            problems.append("design search did not complete")
        for e in report.evaluated:
            if e.status != "optimal" or e.per_server > e.bound_per_server + EPS:
                problems.append(f"design candidate {e.spec}: {e.status}, {e.per_server}")
        return problems

    def layer_values(self, result: Dict[str, Any]) -> Dict[str, float]:
        cache = result["results_cache"]
        hits = cache["hits"] - self._results_seen[0]
        misses = cache["misses"] - self._results_seen[1]
        self._results_seen = (cache["hits"], cache["misses"])
        record_s = result["simulate"].record["wall_clock_s"]
        counters = result["design"].counters
        return {
            "api.result_hit_ratio": hits / (hits + misses),
            "flowsim.run_ms": record_s * 1e3,
            "api.simulate_overhead_ms": (result["simulate_s"] - record_s) * 1e3,
            "design.lp_solves": counters["lp_solves"],
            "design.pruned_pre_lp": counters["pruned"],
        }

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {w.name: w for w in (FluidCurve, PacketFct, ServiceWarm)}
