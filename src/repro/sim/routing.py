"""Routing policies: ECMP, VLB, and the paper's HYB hybrid (§6).

Routing has two decision points:

* **At the source, per flowlet** — whether to send the flowlet direct
  (ECMP all the way) or bounce it off a random intermediate switch (VLB,
  realized as encapsulation: the packet carries ``via_tor`` until the
  intermediate decapsulates it).
* **At every switch, per packet** — which ECMP next hop to use toward the
  packet's current target (the intermediate if encapsulated, else the
  destination ToR).  The choice hashes (flow, flowlet, switch), so a new
  flowlet re-rolls the entire path, while packets within a flowlet stay
  on one path and avoid reordering.

HYB (paper §6.3): a flow's flowlets use ECMP until the flow has sent Q
bytes (default 100 KB); all later flowlets use VLB.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..perf import PathCache, shared_path_cache
from .packet import Packet

__all__ = [
    "RouteNotFound",
    "RoutingPolicy",
    "EcmpRouting",
    "VlbRouting",
    "HybRouting",
    "CongestionHybRouting",
    "AdaptiveEcmpRouting",
    "KspRouting",
    "DEFAULT_HYB_THRESHOLD_BYTES",
]


class RouteNotFound(RuntimeError):
    """A packet has no surviving next hop toward its destination.

    Raised only when the destination is genuinely unreachable from the
    current switch (e.g. after failures partition the topology) — an
    unreachable VLB intermediate is handled by decapsulating early and
    continuing toward the destination ToR instead.
    """

#: The paper's HYB ECMP->VLB switch-over threshold: Q = 100 KB.
DEFAULT_HYB_THRESHOLD_BYTES = 100_000


def _mix(a: int, b: int, c: int, d: int) -> int:
    """Deterministic 32-bit hash of four small integers."""
    h = (a * 0x9E3779B1 + b) & 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x85EBCA77 + c) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE3D + d) & 0xFFFFFFFF
    h ^= h >> 16
    return h


class RoutingPolicy:
    """Shared ECMP machinery; subclasses decide VLB usage per flowlet.

    :meth:`next_hop` remains the per-packet forwarding API.  A policy
    that does not override it is served from each switch's compiled
    table instead (see :meth:`repro.sim.switch.Switch.compile`), which
    makes the same choice without calling it; a policy that overrides
    it (e.g. :class:`AdaptiveEcmpRouting`, which reads live queues) is
    asked for every packet.

    Parameters
    ----------
    graph:
        The switch-level networkx graph (used to build ECMP tables).
    vlb_candidates:
        Switch ids eligible as VLB intermediates (default: all switches).
    seed:
        Seed for the VLB intermediate choice.
    path_cache:
        A shared :class:`repro.perf.PathCache` serving the ECMP next-hop
        tables.  Defaults to the process-wide cache for ``graph``, so
        every policy instance over the same topology shares one table
        set instead of re-running a BFS per destination per instance.
    """

    name = "base"

    def __init__(
        self,
        graph,
        vlb_candidates: Optional[Sequence[int]] = None,
        seed: int = 0,
        path_cache: Optional[PathCache] = None,
    ) -> None:
        self._path_cache = path_cache or shared_path_cache(graph)
        # Shared read-only table set, built once per topology.
        self._tables: Dict[int, Dict[int, List[int]]] = (
            self._path_cache.ecmp_tables()
        )
        self._vlb_candidates = sorted(
            vlb_candidates if vlb_candidates is not None else graph.nodes()
        )
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Per-switch forwarding
    # ------------------------------------------------------------------
    def _choices_toward(self, switch_id: int, target: int) -> List[int]:
        """Surviving ECMP next hops at ``switch_id`` toward ``target``.

        Empty both when the switch has no finite-distance neighbor toward
        the target and when either endpoint is absent from the tables
        (e.g. a failed switch) — callers fall back or raise
        :class:`RouteNotFound`.
        """
        table = self._tables.get(target)
        if table is None:
            return []
        return table.get(switch_id, [])

    def next_hops_at(self, switch_id: int) -> Dict[int, List[int]]:
        """Every target with at least one ECMP next hop at ``switch_id``,
        mapped to those next hops (the same lists :meth:`next_hop` picks
        from)."""
        return {
            target: table[switch_id]
            for target, table in self._tables.items()
            if table.get(switch_id)
        }

    def _resolve_target(self, switch_id: int, packet: Packet) -> int:
        """The packet's current target, decapsulating when the VLB
        intermediate is reached — or, after failures, unreachable."""
        if packet.via_tor is not None:
            if packet.via_tor == switch_id:
                packet.via_tor = None  # decapsulate at the intermediate
            elif self._choices_toward(switch_id, packet.via_tor):
                return packet.via_tor
            else:
                packet.via_tor = None  # intermediate died: go direct
        return packet.dst_tor

    def next_hop(self, switch_id: int, packet: Packet) -> int:
        """ECMP next hop at ``switch_id`` for ``packet`` (handles decap)."""
        target = self._resolve_target(switch_id, packet)
        choices = self._choices_toward(switch_id, target)
        if not choices:
            raise RouteNotFound(
                f"no route from switch {switch_id} toward {target}"
            )
        if len(choices) == 1:
            return choices[0]
        idx = _mix(packet.flow_id, packet.flowlet, switch_id, target) % len(choices)
        return choices[idx]

    # ------------------------------------------------------------------
    # Per-flowlet source decision
    # ------------------------------------------------------------------
    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        """Pick a VLB intermediate for the next flowlet, or None for ECMP."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Feedback hooks (no-ops unless a policy uses them)
    # ------------------------------------------------------------------
    def note_ecn(self, flow_id: int) -> None:
        """Called by the transport when an ECN echo arrives for a flow."""

    def flow_done(self, flow_id: int) -> None:
        """Called when a flow completes; policies may release its state."""

    def _random_via(self, src_tor: int, dst_tor: int) -> Optional[int]:
        """A uniform random intermediate, excluding the endpoints.

        Candidates unreachable from the source or unable to reach the
        destination (possible after failures) are rejected and redrawn;
        on a connected graph the reachability checks never fire, so the
        draw sequence is identical to the pre-failure-aware behavior.
        """
        for _ in range(16):
            via = self._rng.choice(self._vlb_candidates)
            if via == src_tor or via == dst_tor:
                continue
            if (
                self._path_cache.distance(src_tor, via) == float("inf")
                or self._path_cache.distance(via, dst_tor) == float("inf")
            ):
                continue
            return via
        return None  # tiny/partitioned networks: fall back to direct


class EcmpRouting(RoutingPolicy):
    """Pure ECMP: every flowlet goes direct over shortest paths."""

    name = "ecmp"

    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        return None


class VlbRouting(RoutingPolicy):
    """Pure VLB: every flowlet bounces off a random intermediate switch."""

    name = "vlb"

    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        return self._random_via(src_tor, dst_tor)


class HybRouting(RoutingPolicy):
    """The paper's HYB: ECMP for the first Q bytes of a flow, then VLB.

    Short flows (< Q bytes) ride low-latency shortest paths and are
    insulated from long flows, which are load-balanced across the whole
    fabric — matching a full-bandwidth fat-tree on the paper's workloads.
    """

    name = "hyb"

    def __init__(
        self,
        graph,
        q_threshold_bytes: int = DEFAULT_HYB_THRESHOLD_BYTES,
        vlb_candidates: Optional[Sequence[int]] = None,
        seed: int = 0,
        path_cache: Optional[PathCache] = None,
    ) -> None:
        super().__init__(
            graph, vlb_candidates=vlb_candidates, seed=seed, path_cache=path_cache
        )
        if q_threshold_bytes < 0:
            raise ValueError("q_threshold_bytes must be non-negative")
        self.q_threshold = q_threshold_bytes

    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        if bytes_sent < self.q_threshold:
            return None
        return self._random_via(src_tor, dst_tor)


class CongestionHybRouting(RoutingPolicy):
    """The paper's first (congestion-aware) hybrid design (§6.3).

    A flow's flowlets use ECMP until the flow has seen a threshold number
    of ECN marks, after which its flowlets use VLB.  Unlike the simpler
    byte-count HYB, this adapts to actual congestion: a large flow on an
    uncongested shortest path stays there, and short flows that do hit an
    ECMP bottleneck escape to VLB — sidestepping HYB's theoretical failure
    mode where voluminous sub-Q flows saturate a shortest path.
    """

    name = "chyb"

    def __init__(
        self,
        graph,
        ecn_mark_threshold: int = 3,
        vlb_candidates: Optional[Sequence[int]] = None,
        seed: int = 0,
        path_cache: Optional[PathCache] = None,
    ) -> None:
        super().__init__(
            graph, vlb_candidates=vlb_candidates, seed=seed, path_cache=path_cache
        )
        if ecn_mark_threshold < 1:
            raise ValueError("ecn_mark_threshold must be >= 1")
        self.ecn_mark_threshold = ecn_mark_threshold
        self._marks: Dict[int, int] = {}

    def note_ecn(self, flow_id: int) -> None:
        self._marks[flow_id] = self._marks.get(flow_id, 0) + 1

    def flow_done(self, flow_id: int) -> None:
        self._marks.pop(flow_id, None)

    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        if self._marks.get(flow_id, 0) < self.ecn_mark_threshold:
            return None
        return self._random_via(src_tor, dst_tor)


class AdaptiveEcmpRouting(RoutingPolicy):
    """Locally congestion-aware ECMP (a CONGA-flavored §7 extension).

    At each switch, instead of hashing over the ECMP next hops, the
    flowlet's first packet picks the next hop whose outgoing queue is
    currently shortest (ties broken by the flowlet hash); subsequent
    packets of the same flowlet stick to that choice via the hash of the
    recorded decision, approximated here by re-evaluating per packet —
    queue state changes slowly relative to a flowlet, so reordering
    remains rare at the paper's 50 us flowlet gap.

    Requires :meth:`bind_network` after the simulated network is built so
    queue occupancies are visible.
    """

    name = "aecmp"

    def __init__(
        self,
        graph,
        vlb_candidates: Optional[Sequence[int]] = None,
        seed: int = 0,
        path_cache: Optional[PathCache] = None,
    ) -> None:
        super().__init__(
            graph, vlb_candidates=vlb_candidates, seed=seed, path_cache=path_cache
        )
        self._switches = None

    def bind_network(self, network) -> None:
        """Attach the built network so queue occupancy can be inspected."""
        self._switches = network.switches

    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        return None

    def next_hop(self, switch_id: int, packet: Packet) -> int:
        target = self._resolve_target(switch_id, packet)
        choices = self._choices_toward(switch_id, target)
        if not choices:
            raise RouteNotFound(
                f"no route from switch {switch_id} toward {target}"
            )
        if len(choices) == 1 or self._switches is None:
            if len(choices) == 1:
                return choices[0]
            idx = _mix(packet.flow_id, packet.flowlet, switch_id, target)
            return choices[idx % len(choices)]
        ports = self._switches[switch_id].switch_ports
        tie = _mix(packet.flow_id, packet.flowlet, switch_id, target)
        return min(
            choices,
            key=lambda nh: (ports[nh].queue_occupancy_bytes, (nh + tie) % 97),
        )


class KspRouting(RoutingPolicy):
    """Source-routed k-shortest paths (§6's mentioned alternative).

    The Jellyfish/Xpander literature routed over Yen's k shortest paths
    (including non-minimal ones) — the paper notes this "requires
    significant architectural changes"; here those changes are modeled as
    source routing: each flowlet picks one of the k precomputed paths
    uniformly at random and its packets carry the remaining hop list.

    Path sets are computed lazily per (src ToR, dst ToR) pair and served
    from the shared :class:`~repro.perf.PathCache`, so a sweep over
    routings on one topology computes each pair's paths exactly once.
    """

    name = "ksp"

    def __init__(
        self,
        graph,
        k: int = 4,
        vlb_candidates: Optional[Sequence[int]] = None,
        seed: int = 0,
        path_cache: Optional[PathCache] = None,
    ) -> None:
        super().__init__(
            graph, vlb_candidates=vlb_candidates, seed=seed, path_cache=path_cache
        )
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def choose_via(
        self, flow_id: int, bytes_sent: int, src_tor: int, dst_tor: int
    ) -> Optional[int]:
        return None

    def _path_set(self, src_tor: int, dst_tor: int) -> List[List[int]]:
        return self._path_cache.k_shortest_paths(src_tor, dst_tor, self.k)

    def choose_route(
        self, flow_id: int, flowlet: int, src_tor: int, dst_tor: int
    ) -> Optional[List[int]]:
        """The remaining-hops list for this flowlet (excludes src ToR)."""
        if src_tor == dst_tor:
            return None
        paths = self._path_set(src_tor, dst_tor)
        if not paths:
            return None
        idx = _mix(flow_id, flowlet, src_tor, dst_tor) % len(paths)
        return paths[idx][1:]


# ----------------------------------------------------------------------
# Registry bindings (see repro.registry)
# ----------------------------------------------------------------------
from ..registry import ROUTINGS as _ROUTINGS  # noqa: E402


def _ecmp_factory(graph, seed=0):
    return EcmpRouting(graph, seed=seed)


def _vlb_factory(graph, seed=0):
    return VlbRouting(graph, seed=seed)


def _hyb_factory(graph, seed=0, hyb_threshold_bytes=DEFAULT_HYB_THRESHOLD_BYTES):
    return HybRouting(graph, q_threshold_bytes=hyb_threshold_bytes, seed=seed)


def _chyb_factory(graph, seed=0, ecn_mark_threshold=3):
    return CongestionHybRouting(
        graph, ecn_mark_threshold=ecn_mark_threshold, seed=seed
    )


def _aecmp_factory(graph, seed=0):
    return AdaptiveEcmpRouting(graph, seed=seed)


def _ksp_factory(graph, seed=0, k=4):
    return KspRouting(graph, k=k, seed=seed)


_ROUTINGS.register(
    "ecmp", _ecmp_factory, "hash flowlets onto shortest paths (§6)"
)
_ROUTINGS.register(
    "vlb", _vlb_factory, "bounce every flowlet off a random intermediate"
)
_ROUTINGS.register(
    "hyb", _hyb_factory,
    "ECMP below Q bytes then VLB (§6.3); hyb_threshold_bytes",
)
_ROUTINGS.register(
    "chyb", _chyb_factory,
    "congestion-aware hybrid: VLB after ECN marks; ecn_mark_threshold",
)
_ROUTINGS.register(
    "aecmp", _aecmp_factory, "queue-aware ECMP next-hop choice (§7)"
)
_ROUTINGS.register("ksp", _ksp_factory, "k-shortest-path flowlet hashing; k")
