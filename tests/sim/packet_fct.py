"""The benchmark's ``packet_fct`` configuration, rebuilt for the sim tests.

Same inputs as the ``packet_fct`` workload in ``perfbench/workloads.py``:
Permute(0.31) at 0.5 load per active server, 1 Gbps links, one pFabric
trace at a 200 KB mean (trace seed 1), flows measured over [0.02, 0.04)
and injected until 0.06; ``seed`` draws the rack permutation and the
routing and simulation seeds, and ``failures`` (a failure spec such as
``"links:fraction=0.2,seed=1"``) degrades the topology first.  ``outcome`` condenses a finished run into
the values the pin and reference-model tests compare.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Optional

from repro import registry
from repro.sim import NetworkParams, PacketSimulation
from repro.traffic import PoissonArrivals, Workload, pfabric_web_search

LINK_RATE = 1e9
MEAN_FLOW_BYTES = 200_000
HYB_Q_BYTES = int(100_000 * MEAN_FLOW_BYTES / 2_400_000)
MEASURE = (0.02, 0.04)
#: system name -> (topology spec, permute ``take_first``).
SYSTEMS = {
    "fattree": ("fattree:k=4", True),
    "xpander": ("xpander:degree=3,lift=4,servers=1", False),
}


def run(
    system: str,
    routing: str,
    seed: int,
    transport: str = "dctcp",
    server_link_rate_bps: Optional[float] = LINK_RATE,
    failures: Optional[str] = None,
    **network: Any,
) -> PacketSimulation:
    """Build, inject and run one packet simulation; return it finished."""
    spec, take_first = SYSTEMS[system]
    topo = registry.topology(spec)
    if failures is not None:
        topo = registry.failure(failures).apply(topo)
    start, end = MEASURE
    pairs = registry.traffic(
        {"pattern": "permute", "fraction": 0.31, "seed": seed,
         "take_first": take_first},
        topo,
    )
    active = sum(topo.servers_at(r) for r in pairs.active_racks())
    rate = 0.5 * active * LINK_RATE / 8.0 / MEAN_FLOW_BYTES
    flows = Workload(
        pairs, pfabric_web_search(MEAN_FLOW_BYTES), PoissonArrivals(rate), seed=1
    ).generate(horizon=end + (end - start))
    defaults: Dict[str, Any] = {"seed": seed}
    if routing == "hyb":
        defaults["hyb_threshold_bytes"] = HYB_Q_BYTES
    sim = PacketSimulation(
        topo,
        routing=registry.routing(routing, topo, **defaults),
        network_params=NetworkParams(
            link_rate_bps=LINK_RATE,
            server_link_rate_bps=server_link_rate_bps,
            **network,
        ),
        transport=transport,
        seed=seed,
    )
    sim.inject(flows)
    sim.run(start, end)
    return sim


def outcome(sim: PacketSimulation) -> Dict[str, Any]:
    """Per-flow completion digest plus network-wide link totals.

    The digest is a sha256 over every flow's ``(flow_id,
    repr(completion_time))`` in flow-id order, so two runs agree only if
    every completion time agrees to the last bit.
    """
    items = sorted(
        (r.flow_id, repr(r.completion_time)) for r in sim.records.values()
    )
    links = sim.network.links
    return {
        "fct_sha256": hashlib.sha256(repr(items).encode()).hexdigest(),
        "drops": sum(l.dropped_packets for l in links),
        "marks": sum(l.marked_packets for l in links),
        "transmitted_bytes": sum(l.transmitted_bytes for l in links),
        "max_queue_bytes": max(l.max_queue_bytes for l in links),
    }
