"""MPTCP over k paths: the prior routing approach for expanders (§6).

Before HYB, "solutions have depended on MPTCP over k-shortest paths"
(Jellyfish, Xpander).  This module implements that baseline so it can be
compared against the paper's simple schemes:

* a flow opens ``num_subflows`` DCTCP subflows, each pinned to its own
  path (pinning is realized by giving each subflow a distinct flow id and
  an infinite flowlet gap, so the per-hop ECMP hash fixes a stable,
  distinct path per subflow — the way MPTCP rides ECMP in practice);
* with ``diverse_paths`` (default), subflows beyond the first are pinned
  through distinct random intermediate switches, reproducing the
  *k-shortest-paths* (including non-minimal paths) flavor of the
  Jellyfish/Xpander MPTCP proposals — between adjacent racks, shortest
  paths alone collapse to the single direct link;
* flow bytes are dispensed to subflows in chunks, pulled by whichever
  subflow finishes its current chunk first (a simple pull scheduler
  approximating MPTCP's coupled scheduling: fast subflows carry more);
* the flow completes when every dispensed byte has been acknowledged
  (sender-side completion; one extra half-RTT vs receiver-side, noted in
  DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from .engine import Engine
from .host import Host
from .packet import MSS
from .routing import RoutingPolicy
from .tcp import DctcpReceiver, DctcpSender, TransportParams

__all__ = ["MptcpFlow", "MPTCP_SUBFLOW_FACTOR", "DEFAULT_CHUNK_BYTES"]

#: Synthetic flow-id stride: subflow ids are flow_id * FACTOR + index.
MPTCP_SUBFLOW_FACTOR = 64
#: Default scheduler chunk (bytes) pulled by an idle subflow.
DEFAULT_CHUNK_BYTES = 64 * MSS
#: Receiver size sentinel: subflow receivers never self-complete.
_OPEN_ENDED = 1 << 62


class _PinnedViaPolicy:
    """Per-subflow routing facade: a fixed (or absent) VLB intermediate.

    Only the sender-side hooks are overridden; in-network forwarding still
    goes through the simulation's shared policy.
    """

    __slots__ = ("_base", "_via")

    def __init__(self, base: RoutingPolicy, via: Optional[int]) -> None:
        self._base = base
        self._via = via

    def choose_via(self, flow_id, bytes_sent, src_tor, dst_tor):
        return self._via

    def note_ecn(self, flow_id):
        self._base.note_ecn(flow_id)

    def flow_done(self, flow_id):
        self._base.flow_done(flow_id)


class MptcpFlow:
    """One multipath flow between two hosts."""

    def __init__(
        self,
        engine: Engine,
        params: TransportParams,
        routing: RoutingPolicy,
        flow_id: int,
        src_host: Host,
        dst_host: Host,
        size_bytes: int,
        num_subflows: int = 4,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        diverse_paths: bool = True,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError("flow must carry at least one byte")
        if num_subflows < 1:
            raise ValueError("need at least one subflow")
        if num_subflows >= MPTCP_SUBFLOW_FACTOR:
            raise ValueError(
                f"at most {MPTCP_SUBFLOW_FACTOR - 1} subflows supported"
            )
        if chunk_bytes < MSS:
            raise ValueError("chunk must be at least one MSS")
        self.engine = engine
        self.flow_id = flow_id
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.completed = False
        self.completion_time: Optional[float] = None

        # Pin each subflow to one path: infinite flowlet gap means the
        # flowlet id never changes after the first packet, so the per-hop
        # hash is constant per subflow.
        pinned = TransportParams(
            init_cwnd_packets=max(1, params.init_cwnd_bytes // MSS),
            min_rto=params.min_rto,
            initial_rto=params.initial_rto,
            flowlet_gap=math.inf,
            dctcp_g=params.dctcp_g,
            use_ecn=params.use_ecn,
        )

        self._remaining_pool = size_bytes
        self._active = 0
        self._senders: List[DctcpSender] = []
        self._src_host = src_host
        self._dst_host = dst_host

        subflows = min(num_subflows, max(1, size_bytes // MSS))
        first_chunks = self._initial_chunks(size_bytes, subflows, chunk_bytes)
        self._chunk_bytes = chunk_bytes

        # Per-subflow path pinning: the first subflow rides shortest paths;
        # with diverse_paths, the rest each get a distinct intermediate.
        vias: List[Optional[int]] = [None]
        random_via = getattr(routing, "_random_via", None)
        if diverse_paths and random_via is not None:
            seen: set = set()
            for _ in range(8 * len(first_chunks)):
                if len(vias) >= len(first_chunks):
                    break
                via = random_via(src_host.tor, dst_host.tor)
                if via is None:
                    break
                if via not in seen:
                    seen.add(via)
                    vias.append(via)
        while len(vias) < len(first_chunks):
            vias.append(None)

        for idx, first in enumerate(first_chunks):
            sub_id = flow_id * MPTCP_SUBFLOW_FACTOR + idx
            receiver = DctcpReceiver(
                engine=engine,
                transmit=dst_host.uplink.send,
                flow_id=sub_id,
                src_server=src_host.server_id,
                dst_server=dst_host.server_id,
                src_tor=src_host.tor,
                total_bytes=_OPEN_ENDED,
            )
            dst_host._receivers[sub_id] = receiver
            sender = DctcpSender(
                engine=engine,
                params=pinned,
                routing=_PinnedViaPolicy(routing, vias[idx]),
                transmit=src_host.uplink.send,
                flow_id=sub_id,
                src_server=src_host.server_id,
                dst_server=dst_host.server_id,
                src_tor=src_host.tor,
                dst_tor=dst_host.tor,
                total_bytes=first,
                on_complete=self._subflow_drained(idx),
            )
            src_host._senders[sub_id] = sender
            self._senders.append(sender)
            self._remaining_pool -= first
            self._active += 1

    @staticmethod
    def _initial_chunks(size: int, subflows: int, chunk: int) -> List[int]:
        """First chunk per subflow; small flows use fewer subflows."""
        chunks = []
        remaining = size
        for i in range(subflows):
            if remaining <= 0:
                break
            share = min(chunk, remaining - (subflows - i - 1))
            share = max(1, min(share, remaining))
            chunks.append(share)
            remaining -= share
        return chunks

    def start(self) -> None:
        """Start every subflow."""
        for s in self._senders:
            s.start()

    def _subflow_drained(self, idx: int) -> Callable[[], None]:
        def drained() -> None:
            if self._remaining_pool > 0:
                take = min(self._chunk_bytes, self._remaining_pool)
                self._remaining_pool -= take
                self._senders[idx].extend(take)
                return
            self._active -= 1
            if self._active == 0 and not self.completed:
                self.completed = True
                self.completion_time = self.engine.now
                for i in range(len(self._senders)):
                    sub_id = self.flow_id * MPTCP_SUBFLOW_FACTOR + i
                    self._src_host.drop_flow(sub_id)
                    self._dst_host.drop_receiver(sub_id)
                if self.on_complete is not None:
                    self.on_complete(self.engine.now)

        return drained

    @property
    def bytes_unscheduled(self) -> int:
        """Bytes not yet handed to any subflow."""
        return self._remaining_pool
