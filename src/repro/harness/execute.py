"""Execution of one :class:`ExperimentSpec` → one :class:`RunRecord`.

This is the single place where a declarative spec is turned into real
library objects — topology, pair distribution, flow sizes, workload —
and evaluated by the requested engine:

* ``packet`` — :class:`repro.sim.PacketSimulation` (discrete-event,
  DCTCP), with a link-telemetry summary attached;
* ``flow``   — :class:`repro.flowsim.FlowLevelSimulation` (fluid
  max-min fair);
* ``lp``     — the fluid-flow throughput LP over a longest-matching TM
  (the Fig 2/5/6 engine), through :func:`evaluate_lp`, the LP path
  ``repro throughput``, the API and the design search share.

Everything here is deterministic given the spec (wall-clock time is
recorded but kept out of ``metrics``), which is what makes the
content-addressed cache sound: see the determinism test in
``tests/harness/test_determinism.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import registry
from ..flowsim import FlowLevelSimulation
from ..obs import emit_network_report
from ..sim import NetworkParams, PacketSimulation
from ..sim.stats import FlowStats
from ..solvers import SolveOutcome
from ..topologies import Topology
from ..traffic import PoissonArrivals, Workload, pareto_hull, pfabric_web_search
from .records import RunRecord, provenance
from .spec import ExperimentSpec, SpecError

__all__ = ["execute_spec", "execute_lp_batch", "evaluate_lp", "LpEvaluation"]


def _build_topology(topo_spec: Any, failures: Any = None) -> Topology:
    """Build a topology spec, degraded by ``failures`` when given."""
    try:
        topology = registry.topology(topo_spec)
    except registry.RegistryError as exc:
        raise SpecError(str(exc)) from exc
    return topology if failures is None else topology.degrade(registry.failure(failures))


def _build_pairs(spec: ExperimentSpec, topology: Topology):
    wl = spec.workload
    pattern = wl.get("pattern", "permute")
    params: Dict[str, Any] = {"seed": wl.get("pattern_seed", spec.seed)}
    if pattern in ("a2a", "permute"):
        params["fraction"] = wl.get("fraction", 1.0)
        params["take_first"] = bool(wl.get("take_first", False))
    elif pattern == "skew":
        params["theta"] = wl.get("theta", 0.04)
        params["phi"] = wl.get("phi", 0.77)
    try:
        return registry.TRAFFIC.build(pattern, topology, **params)
    except registry.RegistryError as exc:
        raise SpecError(str(exc)) from exc


def _build_sizes(spec: ExperimentSpec):
    wl = spec.workload
    kind = wl.get("sizes", "pfabric")
    mean = wl.get("mean_flow_bytes")
    if kind == "pfabric":
        return pfabric_web_search(mean) if mean else pfabric_web_search()
    if kind == "hull":
        kwargs: Dict[str, Any] = {}
        if mean:
            kwargs["mean_bytes"] = mean
        if "cap_bytes" in wl:
            kwargs["cap_bytes"] = wl["cap_bytes"]
        return pareto_hull(**kwargs)
    raise SpecError(f"unknown size distribution {kind!r} (pfabric/hull)")


def _resolve_rate(spec: ExperimentSpec, topology: Topology, pairs, sizes) -> float:
    """The aggregate flow arrival rate (flows/s) for the workload.

    ``rate`` is taken verbatim.  ``load`` is the offered fraction of the
    *active* servers' access capacity: racks with positive sampling
    weight contribute their servers, each assumed to inject at the
    server link rate.
    """
    wl = spec.workload
    if wl.get("rate") is not None:
        return float(wl["rate"])
    load = float(wl["load"])
    active_racks = getattr(pairs, "active_racks", None)
    if active_racks is not None:
        active_servers = sum(topology.servers_at(t) for t in active_racks())
    else:
        active_servers = topology.num_servers
    rate_bps = spec.server_link_rate_bps or spec.link_rate_bps
    mean_bytes = wl.get("mean_flow_bytes") or sizes.mean()
    return (load * active_servers * rate_bps / 8.0) / mean_bytes


@dataclass
class LpEvaluation:
    """One outcome per point of an :func:`evaluate_lp` call.

    ``cached[i]``: ``outcomes[i]`` came from the warm result memo.
    ``context_hit`` is ``None`` for context-free solvers.
    """

    topology: Topology
    solver: str
    outcomes: List[SolveOutcome]
    cached: List[bool]
    topology_hit: bool = False
    context_hit: Optional[bool] = None


def evaluate_lp(
    topology: Any,
    points: Sequence[Tuple[float, int]],
    solver: Any = "exact",
    *,
    failures: Any = None,
    per_server_demand: float = 1.0,
    warm: bool = True,
    state: Any = None,
) -> LpEvaluation:
    """Longest-matching throughput of one topology at each point.

    The library's one LP path: the harness's lp engine, ``repro
    throughput``, ``/v1/throughput`` and ``/v1/compare`` all call it.
    ``topology`` is a :data:`repro.registry.TOPOLOGIES` spec, degraded
    by the ``failures`` spec when given; each ``(fraction, tm_seed)``
    point builds one longest-matching TM; ``solver`` is a
    :data:`repro.registry.SOLVERS` spec string such as
    ``"highs-paths:k=4"``.  Solvers with a per-topology context solve
    every point on one, warm-starting across points unless ``warm`` is
    False.  With a :class:`repro.api.WarmState` as ``state`` (and
    ``warm``), the topology, the context and optimal outcomes come from
    and go to its caches.  Non-optimal solves come back as outcomes.
    """
    name, params = registry.parse_spec(solver, key="name")
    backend = registry.solver(solver)
    if state is not None and warm:
        from ..api.state import canonical_key

        topo, topology_hit = state.topology(topology, failures)
        topo_key = state.topology_key(topology, failures)
    else:
        state, topology_hit = None, False
        topo = _build_topology(topology, failures)
    context, context_hit = None, None
    if getattr(backend, "context_kind", None) is not None:
        if state is not None:
            context, context_hit = state.solver_context(topo_key, topo, backend, params)
        else:
            context, context_hit = backend.new_context(topo), False

    evaluation = LpEvaluation(topo, name, [], [], topology_hit, context_hit)
    for fraction, seed in points:
        if state is not None:
            key = canonical_key(
                ["throughput", topo_key, fraction, name, params, seed,
                 per_server_demand]
            )
            memo = state.result_get(key)
            if memo is not None:
                evaluation.outcomes.append(memo)
                evaluation.cached.append(True)
                continue
        tm = registry.TRAFFIC.build(
            "longest_matching", topo, fraction=fraction, seed=seed
        )
        if context is None:
            outcome = backend.solve(topo, tm, per_server_demand)
        else:
            outcome = backend.solve_in(context, tm, per_server_demand, warm)
        if state is not None and outcome.ok:
            # The memo keeps no per-arc flows: no reader uses them.
            result = replace(outcome.result, link_utilization=None)
            state.result_put(key, replace(outcome, result=result))
        evaluation.outcomes.append(outcome)
        evaluation.cached.append(False)
    return evaluation


def _lp_records(
    specs: Sequence[ExperimentSpec],
) -> Tuple[List[RunRecord], List[SolveOutcome]]:
    """Evaluate lp specs sharing topology, failures and solver spec."""
    for spec in specs:
        spec.validate()
    first = specs[0]
    start = time.perf_counter()
    evaluation = evaluate_lp(
        first.topology,
        [
            (spec.workload.get("fraction", 1.0),
             spec.workload.get("pattern_seed", spec.seed))
            for spec in specs
        ],
        first.solver_spec(),
        failures=first.failures,
        warm=bool(first.workload.get("warm", True)),
    )
    outcomes = evaluation.outcomes
    solve_s = sum(outcome.wall_time_s for outcome in outcomes)
    setup_s = (time.perf_counter() - start - solve_s) / len(specs)
    telemetry = _failure_telemetry(first, evaluation.topology)
    records = []
    for spec, outcome in zip(specs, outcomes):
        record = RunRecord(
            spec=spec.to_dict(),
            spec_hash=spec.content_hash(),
            status="ok" if outcome.ok else "failed",
            wall_clock_s=setup_s + outcome.wall_time_s,
            provenance=provenance(spec.engine),
        )
        if outcome.ok:
            record.telemetry = dict(telemetry)
            record.metrics = {
                "per_server_throughput": outcome.result.per_server,
                "fraction": float(spec.workload.get("fraction", 1.0)),
                "disconnected_pairs": float(outcome.result.disconnected_pairs),
            }
        else:
            record.error = f"{type(outcome.error).__name__}: {outcome.error}"
        records.append(record)
    return records, outcomes


def _run_packet(
    spec: ExperimentSpec, topology: Topology, flows
) -> Tuple[FlowStats, Dict[str, float]]:
    defaults: Dict[str, Any] = {"seed": spec.seed}
    if spec.routing == "hyb":
        defaults["hyb_threshold_bytes"] = spec.hyb_threshold_bytes
    policy = registry.routing(spec.routing, topology, **defaults)
    sim = PacketSimulation(
        topology,
        routing=policy,
        network_params=NetworkParams(
            link_rate_bps=spec.link_rate_bps,
            server_link_rate_bps=spec.server_link_rate_bps,
        ),
        seed=spec.seed,
    )
    sim.inject(flows)
    stats = sim.run(
        spec.measure_start, spec.measure_end, max_sim_time=spec.max_sim_time
    )
    report = emit_network_report(sim.network)
    telemetry = {
        "total_drops": report.total_drops,
        "total_marks": report.total_marks,
        "max_utilization": report.max_utilization,
        "mean_utilization": report.mean_utilization,
        "num_links": len(report.links),
    }
    return stats, telemetry


def _run_flow(spec: ExperimentSpec, topology: Topology, flows) -> FlowStats:
    sim = FlowLevelSimulation(
        topology,
        routing=spec.routing,
        link_rate_bps=spec.link_rate_bps,
        server_link_rate_bps=spec.server_link_rate_bps,
        hyb_threshold_bytes=spec.hyb_threshold_bytes,
        seed=spec.seed,
    )
    return sim.run(
        flows,
        measure_start=spec.measure_start,
        measure_end=spec.measure_end,
        max_sim_time=spec.max_sim_time if spec.max_sim_time else 1e9,
    )


def _failure_telemetry(
    spec: ExperimentSpec, topology: Topology
) -> Dict[str, float]:
    """What ``spec.failures`` took out of ``topology`` (empty when healthy)."""
    if spec.failures is None:
        return {}
    return {
        "connectivity": topology.connectivity(),
        "failed_links": float(len(topology.failed_links)),
        "failed_switches": float(len(topology.failed_switches)),
        "links_retained": topology.links_retained,
        "switches_retained": topology.switches_retained,
    }


def execute_spec(spec: ExperimentSpec) -> RunRecord:
    """Run one spec to completion and return its successful record.

    Exceptions propagate to the caller; the :class:`~repro.harness.runner.Runner`
    converts them into failure records.
    """
    if spec.engine == "lp":
        # A non-optimal outcome re-raises its typed SolverFailure: the
        # Runner turns it into a (non-retryable) failure record, so
        # infeasible points degrade a sweep instead of aborting it.
        (record,), (outcome,) = _lp_records([spec])
        outcome.raise_for_status()
        return record
    spec.validate()
    start = time.perf_counter()
    topology = _build_topology(spec.topology, spec.failures)
    telemetry = _failure_telemetry(spec, topology)
    if spec.failures is not None:
        # The simulators need every generated flow to be routable;
        # the LP engines report disconnected pairs instead.
        from ..topologies import largest_connected_component

        topology = largest_connected_component(topology)
    pairs = _build_pairs(spec, topology)
    sizes = _build_sizes(spec)
    rate = _resolve_rate(spec, topology, pairs, sizes)
    workload = Workload(pairs, sizes, PoissonArrivals(rate), seed=spec.seed)
    horizon = spec.workload.get(
        "horizon",
        spec.measure_end + (spec.measure_end - spec.measure_start),
    )
    flows = workload.generate(horizon=horizon)
    if spec.engine == "packet":
        stats, engine_telemetry = _run_packet(spec, topology, flows)
        telemetry = {**engine_telemetry, **telemetry}
    else:
        stats = _run_flow(spec, topology, flows)
    if spec.short_flow_bytes is not None:
        stats.short_flow_bytes = spec.short_flow_bytes
    metrics = stats.summary()

    return RunRecord(
        spec=spec.to_dict(),
        spec_hash=spec.content_hash(),
        status="ok",
        metrics=metrics,
        telemetry=telemetry,
        wall_clock_s=time.perf_counter() - start,
        provenance=provenance(spec.engine),
    )


def execute_lp_batch(specs: Sequence[ExperimentSpec]) -> List[RunRecord]:
    """Run lp specs sharing topology, failures and solver spec as one batch.

    One :func:`evaluate_lp` call: the topology is built once and every
    point solves on one solver context.  Returns one record per spec, in
    order, with ``metrics`` byte-identical to :func:`execute_spec`'s; a
    non-optimal solve becomes a failure record carrying its typed error
    instead of sinking the batch.
    """
    return _lp_records(specs)[0]
