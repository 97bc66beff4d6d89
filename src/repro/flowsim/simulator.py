"""Flow-level (fluid) simulator.

Models each flow as a fluid stream on a fixed path with max-min fair
bandwidth sharing, recomputed at every flow arrival and departure.  It
ignores packet effects (queueing delay, slow start, retransmissions), so
absolute FCTs are optimistic, but it tracks bandwidth contention
faithfully and runs orders of magnitude faster than the packet simulator
— the cross-check and scale-out companion used for larger sweeps.

Routing approximations mirror the packet simulator's policies:

* ``ecmp`` — each flow picks one uniform-random shortest path.
* ``vlb``  — each flow picks a random intermediate switch and concatenates
  two random shortest paths.
* ``hyb``  — flows smaller than the Q threshold use ``ecmp``; larger
  flows use ``vlb`` (the paper's HYB switches mid-flow at Q bytes; since
  Q is small relative to long-flow sizes, classifying whole flows by size
  is a faithful fluid approximation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from .. import obs
from ..topologies.base import Topology
from ..traffic.workload import FlowSpec
from ..sim.stats import FlowRecord, FlowStats
from .fairshare import FairShareState

__all__ = ["FlowLevelSimulation", "run_flow_experiment"]


class _Routes:
    """Random shortest-path sampler with memoized path sets."""

    def __init__(self, topology: Topology, seed: int, max_paths: int = 16) -> None:
        self.graph = topology.graph
        self.rng = random.Random(seed)
        self.max_paths = max_paths
        self._cache: Dict[Tuple[int, int], List[List[int]]] = {}
        self.switches = sorted(self.graph.nodes())

    def _paths(self, src: int, dst: int) -> List[List[int]]:
        key = (src, dst)
        if key not in self._cache:
            paths: List[List[int]] = []
            for p in nx.all_shortest_paths(self.graph, src, dst):
                paths.append(list(p))
                if len(paths) >= self.max_paths:
                    break
            self._cache[key] = paths
        return self._cache[key]

    def shortest(self, src: int, dst: int) -> List[int]:
        """One uniform-random shortest path (ECMP approximation)."""
        if src == dst:
            return [src]
        return self.rng.choice(self._paths(src, dst))

    def vlb(self, src: int, dst: int) -> List[int]:
        """A two-segment VLB path through a random intermediate.

        An intermediate that failures have cut off from either endpoint
        is abandoned in favor of the direct path (mirroring the packet
        policies' early decapsulation); a disconnected src/dst pair still
        raises, for the caller to strand the flow.
        """
        if src == dst:
            return [src]
        via = self.rng.choice(self.switches)
        if via in (src, dst):
            return self.shortest(src, dst)
        try:
            first = self.shortest(src, via)
            second = self.shortest(via, dst)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return self.shortest(src, dst)
        return first + second[1:]


@dataclass
class _ActiveFlow:
    record: FlowRecord
    arcs: List[Tuple[int, int]]
    remaining: float
    rate: float = 0.0


class FlowLevelSimulation:
    """Fluid simulation of a flow workload on a topology."""

    def __init__(
        self,
        topology: Topology,
        routing: str = "ecmp",
        link_rate_bps: float = 10e9,
        server_link_rate_bps: Optional[float] = 10e9,
        hyb_threshold_bytes: int = 100_000,
        seed: int = 0,
    ) -> None:
        if routing not in ("ecmp", "vlb", "hyb"):
            raise ValueError(f"unknown routing {routing!r}")
        self.topology = topology
        self.routing = routing
        self.hyb_threshold = hyb_threshold_bytes
        self.link_rate_bps = link_rate_bps
        self.server_link_rate_bps = server_link_rate_bps
        self.server_arcs = server_link_rate_bps is not None
        self._seed = seed
        self.routes = _Routes(topology, seed)
        self.server_to_tor = topology.server_to_tor()
        self.capacities = self._build_capacities()

    def _build_capacities(self) -> Dict[Tuple[int, int], float]:
        """Directed arc capacities in bits/s for the current topology;
        server access arcs included unless unconstrained (None)."""
        capacities: Dict[Tuple[int, int], float] = {}
        for u, v, data in self.topology.graph.edges(data=True):
            cap = self.link_rate_bps * data.get("capacity", 1.0)
            capacities[(u, v)] = cap
            capacities[(v, u)] = cap
        if self.server_arcs:
            for server, tor in self.server_to_tor.items():
                capacities[("h", server), tor] = self.server_link_rate_bps
                capacities[tor, ("h", server)] = self.server_link_rate_bps
        return capacities

    def _arcs_for(
        self, src_server: int, dst_server: int, size_bytes: int
    ) -> List[Tuple[int, int]]:
        """Route one flow on the current topology.

        Raises ``KeyError`` (endpoint server gone), ``nx.NodeNotFound``,
        or ``nx.NetworkXNoPath`` (endpoints disconnected) when failures
        make the flow unroutable.
        """
        src_tor = self.server_to_tor[src_server]
        dst_tor = self.server_to_tor[dst_server]
        if self.routing == "ecmp":
            path = self.routes.shortest(src_tor, dst_tor)
        elif self.routing == "vlb":
            path = self.routes.vlb(src_tor, dst_tor)
        else:  # hyb
            if size_bytes < self.hyb_threshold:
                path = self.routes.shortest(src_tor, dst_tor)
            else:
                path = self.routes.vlb(src_tor, dst_tor)
        arcs = list(zip(path[:-1], path[1:]))
        if self.server_arcs:
            arcs.insert(0, (("h", src_server), src_tor))
            arcs.append((dst_tor, ("h", dst_server)))
        return arcs

    def _flow_arcs(self, spec: FlowSpec) -> List[Tuple[int, int]]:
        return self._arcs_for(spec.src_server, spec.dst_server, spec.size_bytes)

    def _degrade(self, scenario) -> None:
        """Apply a failure scenario and refresh routing/capacity state."""
        from ..registry import failure

        self.topology = failure(scenario).apply(self.topology)
        self.routes = _Routes(self.topology, self._seed)
        self.server_to_tor = self.topology.server_to_tor()
        self.capacities = self._build_capacities()

    def run(
        self,
        flows: Sequence[FlowSpec],
        measure_start: float = 0.0,
        measure_end: float = float("inf"),
        max_sim_time: float = 1e9,
        failures: Optional[Sequence[Tuple[float, object]]] = None,
    ) -> FlowStats:
        """Simulate the flow list and aggregate the paper's metrics.

        ``failures`` is an optional list of ``(time, scenario)`` events
        (any :func:`repro.registry.failure` spec).  At each event the
        scenario degrades the *current* topology; in-flight flows whose
        paths died are re-planned on the survivors, and flows whose
        endpoints became unreachable are stranded (they never complete,
        and count toward the run's ``flowsim.stranded``).
        """
        arrivals = sorted(flows, key=lambda f: f.start_time)
        fail_events = sorted(
            ((float(t), scenario) for t, scenario in failures or ()),
            key=lambda e: e[0],
        )
        records = {
            f.flow_id: FlowRecord(
                f.flow_id, f.src_server, f.dst_server, f.size_bytes, f.start_time
            )
            for f in arrivals
        }
        active: Dict[int, _ActiveFlow] = {}
        # Incremental fair-share state: arcs are interned once per flow
        # at arrival; every event re-runs only the vectorized water-fill.
        # A failure event replaces it wholesale (capacities changed).
        share = FairShareState(self.capacities)
        now = 0.0
        i = 0
        j = 0
        n = len(arrivals)

        def recompute() -> None:
            rates = share.rates()
            for fid, af in active.items():
                af.rate = rates[fid]

        def advance(to: float) -> float:
            # A zero-length step moves no bytes; skipping it also keeps
            # an infinite-rate (same-ToR, unconstrained) flow from
            # turning its remaining bytes into inf * 0 = nan.
            if to == now:
                return to
            for af in active.values():
                af.remaining -= af.rate * (to - now) / 8.0
            return to

        # Arrivals/completions tally in plain locals inside the event
        # loop and flush once as counters after it, so the per-event hot
        # path carries no instrumentation (obs disabled costs nothing).
        arrived = 0
        completed = 0
        replanned = 0
        stranded = 0
        recomputes = 0
        waterfill_rounds = 0
        with obs.span("flowsim.run", flows=n, routing=self.routing):
            while (i < n or active or j < len(fail_events)) and now < max_sim_time:
                next_arrival = arrivals[i].start_time if i < n else float("inf")
                next_failure = (
                    fail_events[j][0] if j < len(fail_events) else float("inf")
                )
                # Earliest completion among active flows.
                next_completion = float("inf")
                completing: Optional[int] = None
                for fid, af in active.items():
                    if af.rate > 0:
                        t = now + af.remaining * 8.0 / af.rate
                        if t < next_completion:
                            next_completion = t
                            completing = fid

                if min(next_arrival, next_completion, next_failure) > max_sim_time:
                    break  # nothing further happens inside the horizon

                if next_failure <= next_arrival and next_failure <= next_completion:
                    now = advance(next_failure)
                    scenario = fail_events[j][1]
                    j += 1
                    self._degrade(scenario)
                    recomputes += share.recomputes
                    waterfill_rounds += share.waterfill_rounds
                    share = FairShareState(self.capacities)
                    survivors: Dict[int, _ActiveFlow] = {}
                    for fid, af in active.items():
                        if all(arc in self.capacities for arc in af.arcs):
                            survivors[fid] = af
                            share.add_flow(fid, af.arcs)
                            continue
                        r = af.record
                        try:
                            af.arcs = self._arcs_for(
                                r.src_server, r.dst_server, r.size_bytes
                            )
                        except (KeyError, nx.NetworkXNoPath, nx.NodeNotFound):
                            stranded += 1  # endpoints cut off: never completes
                            continue
                        survivors[fid] = af
                        share.add_flow(fid, af.arcs)
                        replanned += 1
                    active = survivors
                    recompute()
                elif next_arrival <= next_completion:
                    now = advance(next_arrival)
                    spec = arrivals[i]
                    i += 1
                    try:
                        arcs = self._flow_arcs(spec)
                    except (KeyError, nx.NetworkXNoPath, nx.NodeNotFound):
                        stranded += 1  # arrived after its endpoints died
                        continue
                    flow = _ActiveFlow(
                        record=records[spec.flow_id],
                        arcs=arcs,
                        remaining=float(spec.size_bytes),
                    )
                    active[spec.flow_id] = flow
                    share.add_flow(spec.flow_id, flow.arcs)
                    arrived += 1
                    recompute()
                elif completing is not None:
                    now = advance(next_completion)
                    done = active.pop(completing)
                    share.remove_flow(completing)
                    done.record.completion_time = now
                    completed += 1
                    recompute()
                else:
                    break  # no arrivals left and nothing can progress
        obs.add("flowsim.arrivals", arrived)
        obs.add("flowsim.completions", completed)
        obs.add("flowsim.fairshare_recomputes", recomputes + share.recomputes)
        obs.add("flowsim.waterfill_rounds", waterfill_rounds + share.waterfill_rounds)
        if failures is not None:
            obs.add("flowsim.replans", replanned)
            obs.add("flowsim.stranded", stranded)

        measured = [
            r
            for r in records.values()
            if measure_start <= r.start_time < measure_end
        ]
        return FlowStats(records=measured)


def run_flow_experiment(
    topology: Topology,
    flows: Sequence[FlowSpec],
    routing: str = "ecmp",
    link_rate_bps: float = 10e9,
    server_link_rate_bps: Optional[float] = 10e9,
    measure_start: float = 0.0,
    measure_end: float = float("inf"),
    seed: int = 0,
    failures: Optional[Sequence[Tuple[float, object]]] = None,
) -> FlowStats:
    """Convenience wrapper around :class:`FlowLevelSimulation`."""
    sim = FlowLevelSimulation(
        topology,
        routing=routing,
        link_rate_bps=link_rate_bps,
        server_link_rate_bps=server_link_rate_bps,
        seed=seed,
    )
    return sim.run(
        flows,
        measure_start=measure_start,
        measure_end=measure_end,
        failures=failures,
    )
