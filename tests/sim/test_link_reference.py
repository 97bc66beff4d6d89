"""The closed-form FIFO link against a two-event reference model.

:class:`~repro.sim.Link` schedules one event per accepted packet (its
far-end delivery) and works out serialization in closed form.  The
reference below does it the long way: one event when a packet's
serialization completes (count it, schedule its delivery, start the next
packet) and one for the delivery.  It implements the link's tie rule
directly, not by the same arithmetic:

* completions run in their own lane, before every other event at the
  same instant;
* a delivery's sequence number is reserved when the link accepts the
  packet, so among the events at one instant it runs in acceptance order.

Both must agree byte for byte: every delivery instant, mark, drop and
counter, and every flow completion time of a packet simulation.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

import pytest

import repro.sim.network as network_module
import repro.sim.simulation as simulation_module
from repro.sim import (
    Engine, EventHandle, Link, NetworkParams, Packet, PacketSimulation,
)
from repro.sim.engine import _NO_ARG
from repro.sim.link import DEFAULT_ECN_THRESHOLD_BYTES, DEFAULT_QUEUE_BYTES
from repro.sim.packet import HEADER_BYTES
from repro.topologies import xpander
from repro.traffic import FlowSpec

from . import packet_fct

_COMPLETION_LANE = 0
_EVENT_LANE = 1


class LaneEngine(Engine):
    """An engine whose tie-break key is ``(lane, sequence)``."""

    __slots__ = ()

    def reserve(self):
        """A key in the ordinary lane, taken now and used later."""
        self._seq += 1
        return (_EVENT_LANE, self._seq)

    def _push(self, when, key, callback, arg, handle=None):
        if when < self.now:
            raise ValueError(f"cannot schedule in the past (when={when})")
        heapq.heappush(self._heap, (when, key, callback, arg, handle))

    def schedule(self, delay, callback, arg=_NO_ARG):
        self._push(self.now + delay, self.reserve(), callback, arg)

    def schedule_at(self, when, callback, arg=_NO_ARG):
        self._push(when, self.reserve(), callback, arg)

    def schedule_cancellable(self, delay, callback, arg=_NO_ARG):
        handle = EventHandle(self)
        self._push(self.now + delay, self.reserve(), callback, arg, handle)
        return handle

    def schedule_reserved(self, when, key, callback, arg):
        self._push(when, key, callback, arg)

    def schedule_completion(self, when, callback, arg):
        self._seq += 1
        self._push(when, (_COMPLETION_LANE, self._seq), callback, arg)


class TwoEventLink:
    """Reference link: a busy flag, a waiting queue and two events a hop."""

    def __init__(
        self,
        engine,
        rate_bps,
        prop_delay,
        sink,
        queue_bytes=DEFAULT_QUEUE_BYTES,
        ecn_threshold_bytes=DEFAULT_ECN_THRESHOLD_BYTES,
    ):
        self.engine = engine
        self.rate_bps = rate_bps
        self.prop_delay = prop_delay
        self.sink = sink
        self.queue_bytes = queue_bytes
        self.ecn_threshold = ecn_threshold_bytes
        self._waiting = deque()  # (packet, reserved delivery key)
        self._waiting_bytes = 0
        self._busy = False
        self.dropped_packets = 0
        self.marked_packets = 0
        self.transmitted_packets = 0
        self.transmitted_bytes = 0
        self.max_queue_bytes = 0

    @property
    def queue_occupancy_bytes(self):
        return self._waiting_bytes

    def send(self, packet):
        if not self._busy:
            self._busy = True
            self._start(packet, self.engine.reserve())
            return
        waiting = self._waiting_bytes + packet.wire_bytes
        if waiting > self.queue_bytes:
            self.dropped_packets += 1
            return
        self._waiting.append((packet, self.engine.reserve()))
        self._waiting_bytes = waiting
        self.max_queue_bytes = max(self.max_queue_bytes, waiting)
        if self.ecn_threshold is not None and waiting > self.ecn_threshold:
            packet.ecn_marked = True
            self.marked_packets += 1

    def _start(self, packet, key):
        finish = self.engine.now + packet.wire_bytes * 8.0 / self.rate_bps
        self.engine.schedule_completion(finish, self._complete, (packet, key))

    def _complete(self, item):
        packet, key = item
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.wire_bytes
        self.engine.schedule_reserved(
            self.engine.now + self.prop_delay, key, self.sink, packet
        )
        if self._waiting:
            nxt, nxt_key = self._waiting.popleft()
            self._waiting_bytes -= nxt.wire_bytes
            self._start(nxt, nxt_key)
        else:
            self._busy = False


@pytest.fixture
def reference_model(monkeypatch):
    """Make packet simulations built inside the test use the reference."""

    def use():
        monkeypatch.setattr(simulation_module, "Engine", LaneEngine)
        monkeypatch.setattr(network_module, "Link", TwoEventLink)

    return use


def _ksp_adjacent_racks():
    """KSP source routing: 24 flows between two adjacent racks, with drops."""
    xp = xpander(4, 6, 4)
    u, v = next(iter(xp.graph.edges()))
    su, sv = xp.tor_to_servers()[u], xp.tor_to_servers()[v]
    flows = [
        FlowSpec(i, su[i % 4], sv[(i + 1) % 4], 200_000, 0.0002 * i)
        for i in range(24)
    ]
    sim = PacketSimulation(
        xp, routing="ksp", network_params=NetworkParams(link_rate_bps=1e9)
    )
    sim.inject(flows)
    sim.run(0.0, 0.02)
    return sim


_RUNS = {
    "ksp": _ksp_adjacent_racks,
    "mptcp": lambda: packet_fct.run("fattree", "ecmp", 1, transport="mptcp"),
    "queue_4_packets": lambda: packet_fct.run(
        "fattree", "ecmp", 1, queue_bytes=4 * 1500
    ),
    "prop_delay_0": lambda: packet_fct.run("xpander", "hyb", 1, prop_delay=0.0),
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_simulation_matches_reference(name, reference_model):
    sim = _RUNS[name]()
    assert isinstance(sim.network.links[0], Link)
    reference_model()
    ref = _RUNS[name]()
    assert isinstance(ref.network.links[0], TwoEventLink)
    assert packet_fct.outcome(sim) == packet_fct.outcome(ref)
    # One event per hop against two (plus the same transport events).
    assert sim.engine.events_processed < ref.engine.events_processed


#: A rate whose serialization times are exact binary fractions, so send
#: instants on a binary grid tie exactly with serialization completions.
_RATE = float(2**33)
_SIZES = (64, 512, 1024, 1536)


def _single_link_schedule(seed, count=400):
    rng = random.Random(seed)
    # Send instants on a 2**-22 s grid; a 1024-byte packet serializes
    # in four grid steps.
    return sorted(
        (rng.randrange(600) * 2.0**-22, i, rng.choice(_SIZES)) for i in range(count)
    )


def _drive_single_link(engine, link_cls, sends, prop_delay):
    delivered = []
    link = link_cls(
        engine,
        rate_bps=_RATE,
        prop_delay=prop_delay,
        sink=lambda p: delivered.append((p.seq, engine.now, p.ecn_marked)),
        queue_bytes=4000,
        ecn_threshold_bytes=2000,
    )
    for when, index, wire in sends:
        packet = Packet(
            flow_id=0, src_server=0, dst_server=1, dst_tor=0, seq=index,
            payload=wire - HEADER_BYTES,
        )
        engine.schedule_at(when, link.send, packet)
    engine.run()
    return link, delivered


@pytest.mark.parametrize("prop_delay", [0.0, 2.0**-21, 0.75e-6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_single_link_randomized(seed, prop_delay):
    sends = _single_link_schedule(seed)
    instants = [when for when, _, _ in sends]
    assert len(set(instants)) < len(instants)  # equal-time sends occur

    engine = Engine()
    link, delivered = _drive_single_link(engine, Link, sends, prop_delay)
    ref_link, ref_delivered = _drive_single_link(
        LaneEngine(), TwoEventLink, sends, prop_delay
    )
    assert delivered == ref_delivered
    for counter in (
        "dropped_packets", "marked_packets", "transmitted_packets",
        "transmitted_bytes", "max_queue_bytes",
    ):
        assert getattr(link, counter) == getattr(ref_link, counter), counter

    # Conservation: each offered packet is dropped or delivered exactly
    # once, and deliveries keep the order the link accepted packets in.
    order = [index for _, index, _ in sends]
    got = [seq for seq, _, _ in delivered]
    assert len(got) == len(set(got))
    assert len(got) + link.dropped_packets == len(sends)
    accepted = set(got)
    assert got == [index for index in order if index in accepted]
    assert [t for _, t, _ in delivered] == sorted(t for _, t, _ in delivered)
    assert link.dropped_packets > 0
    assert 0 < link.marked_packets == sum(marked for _, _, marked in delivered)
    assert link.transmitted_packets == len(got)
    wire = {index: size for _, index, size in sends}
    assert link.transmitted_bytes == sum(wire[seq] for seq in got)
    assert link.queue_occupancy_bytes == 0
    # One event per send plus one per delivery; no completion events.
    assert engine.events_processed == len(sends) + len(got)
