"""Simulated unidirectional links with drop-tail queues and ECN marking.

Each physical cable becomes two :class:`Link` objects (one per direction).
A link serializes packets at ``rate_bps``, holds a FIFO drop-tail queue of
``queue_bytes`` capacity, and implements DCTCP's marking rule: a packet is
marked if the queue occupancy at its enqueue instant exceeds the marking
threshold K (paper §6.4: K = 20 full-sized packets).

A link is a closed-form FIFO server.  Its rate and order are fixed, so
the moment it accepts a packet it knows when serialization starts
(``max(now, previous finish)``) and ends, and it schedules exactly one
event: the far-end delivery at ``finish + prop_delay``.  No event marks
the end of serialization; the link keeps a backlog of the packets not
yet fully serialized and retires its head entries once their finish
time has passed, whenever it is offered a packet or read.

Tie rule: a serialization that completes at instant t takes effect
before any other event at t (a packet offered at t sees the queue with
that packet gone).  Events at one instant run in the order they were
scheduled, and a delivery counts as scheduled when its link accepted
the packet.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Optional, Tuple

from .engine import Engine
from .packet import MSS, HEADER_BYTES, Packet

__all__ = ["Link", "DEFAULT_ECN_THRESHOLD_BYTES", "DEFAULT_QUEUE_BYTES"]

#: The paper's DCTCP marking threshold: 20 full-sized packets.
DEFAULT_ECN_THRESHOLD_BYTES = 20 * (MSS + HEADER_BYTES)
#: Default queue capacity: 100 full-sized packets (netbench-like).
DEFAULT_QUEUE_BYTES = 100 * (MSS + HEADER_BYTES)


class Link:
    """One direction of a cable.

    Parameters
    ----------
    engine:
        Simulation engine.
    rate_bps:
        Serialization rate in bits per second.
    prop_delay:
        Propagation delay in seconds, applied after serialization.
    sink:
        Callable receiving each packet at the far end.
    queue_bytes:
        Drop-tail queue capacity (bytes); packets arriving to a full queue
        are dropped.
    ecn_threshold_bytes:
        Mark packets whose enqueue-time queue occupancy exceeds this.
        ``None`` disables marking.
    """

    __slots__ = (
        "engine",
        "rate_bps",
        "prop_delay",
        "sink",
        "queue_bytes",
        "ecn_threshold",
        "_backlog",
        "_backlog_bytes",
        "_accepted_packets",
        "_accepted_bytes",
        "dropped_packets",
        "marked_packets",
        "max_queue_bytes",
    )

    def __init__(
        self,
        engine: Engine,
        rate_bps: float,
        prop_delay: float,
        sink: Callable[[Packet], None],
        queue_bytes: int = DEFAULT_QUEUE_BYTES,
        ecn_threshold_bytes: Optional[int] = DEFAULT_ECN_THRESHOLD_BYTES,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if prop_delay < 0:
            raise ValueError(f"negative propagation delay {prop_delay}")
        self.engine = engine
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.sink = sink
        self.queue_bytes = queue_bytes
        self.ecn_threshold = ecn_threshold_bytes
        # (finish time, wire bytes) of every accepted packet whose
        # serialization had not finished at the last retirement; the head
        # is the packet in service, the rest are waiting.
        self._backlog: Deque[Tuple[float, int]] = deque()
        self._backlog_bytes = 0
        self._accepted_packets = 0
        self._accepted_bytes = 0
        self.dropped_packets = 0
        self.marked_packets = 0
        self.max_queue_bytes = 0

    def _retire(self) -> None:
        """Drop backlog entries whose serialization finished by now."""
        backlog = self._backlog
        now = self.engine.now
        while backlog and backlog[0][0] <= now:
            self._backlog_bytes -= backlog.popleft()[1]

    @property
    def queue_occupancy_bytes(self) -> int:
        """Bytes currently waiting (excludes the packet being serialized)."""
        self._retire()
        backlog = self._backlog
        return self._backlog_bytes - backlog[0][1] if backlog else 0

    @property
    def transmitted_packets(self) -> int:
        """Packets whose serialization has finished."""
        self._retire()
        return self._accepted_packets - len(self._backlog)

    @property
    def transmitted_bytes(self) -> int:
        """Wire bytes of the packets whose serialization has finished."""
        self._retire()
        return self._accepted_bytes - self._backlog_bytes

    def send(self, packet: Packet) -> None:
        """Offer a packet to this link; queues, marks, or drops it.

        An accepted packet's delivery is scheduled here, at the instant
        its serialization ends plus the propagation delay.
        """
        wire = packet.wire_bytes
        engine = self.engine
        now = engine.now
        backlog = self._backlog
        # _retire() inlined: this runs once per packet hop.
        while backlog and backlog[0][0] <= now:
            self._backlog_bytes -= backlog.popleft()[1]
        if backlog:
            waiting = self._backlog_bytes - backlog[0][1] + wire
            if waiting > self.queue_bytes:
                self.dropped_packets += 1
                return
            if waiting > self.max_queue_bytes:
                self.max_queue_bytes = waiting
            if self.ecn_threshold is not None and waiting > self.ecn_threshold:
                packet.ecn_marked = True
                self.marked_packets += 1
            start = backlog[-1][0]
        else:
            start = now
        finish = start + wire * 8.0 / self.rate_bps
        backlog.append((finish, wire))
        self._backlog_bytes += wire
        self._accepted_packets += 1
        self._accepted_bytes += wire
        # Engine.schedule_at inlined: this runs once per packet hop.  The
        # entry layout ``(when, seq, callback, arg, handle)`` belongs to
        # Engine.  ``finish >= now``, so the past-time check cannot fire.
        seq = engine._seq + 1
        engine._seq = seq
        heappush(
            engine._heap, (finish + self.prop_delay, seq, self.sink, packet, None)
        )

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent transmitting bytes."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.transmitted_bytes * 8.0 / (self.rate_bps * elapsed))
