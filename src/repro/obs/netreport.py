"""Network telemetry: link-level reports, emitted onto the obs sink.

Aggregates the per-link counters the :class:`~repro.sim.link.Link`
objects accumulate — utilization, peak queue, ECN marks, drops — into a
network-wide report.
Useful for diagnosing *where* a routing scheme bottlenecks (e.g.
confirming that ECMP's two-adjacent-rack pathology is a single saturated
direct link, §6.1).

The ``network`` argument is duck-typed (anything with ``engine``,
``switches``, and ``hosts``) so this module needs no import from
``repro.sim`` and sits below it in the dependency graph.
:func:`emit_network_report` additionally folds the report's totals into
the active observability run's metrics and trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from . import core

__all__ = ["LinkStats", "NetworkReport", "network_report", "emit_network_report"]


@dataclass
class LinkStats:
    """Counters for one directed link."""

    description: str
    utilization: float
    transmitted_bytes: int
    dropped_packets: int
    marked_packets: int
    max_queue_bytes: int


@dataclass
class NetworkReport:
    """Network-wide link telemetry."""

    elapsed: float
    links: List[LinkStats]

    @property
    def total_drops(self) -> int:
        return sum(l.dropped_packets for l in self.links)

    @property
    def total_marks(self) -> int:
        return sum(l.marked_packets for l in self.links)

    @property
    def max_utilization(self) -> float:
        return max((l.utilization for l in self.links), default=0.0)

    @property
    def mean_utilization(self) -> float:
        if not self.links:
            return 0.0
        return sum(l.utilization for l in self.links) / len(self.links)

    def hottest(self, count: int = 10) -> List[LinkStats]:
        """The ``count`` most utilized links."""
        return sorted(self.links, key=lambda l: -l.utilization)[:count]


def network_report(network: Any, elapsed: Optional[float] = None) -> NetworkReport:
    """Collect link telemetry from a simulated network.

    ``elapsed`` defaults to the engine's current clock; utilization is
    transmitted bits over capacity x elapsed.
    """
    if elapsed is None:
        elapsed = network.engine.now
    stats: List[LinkStats] = []

    def describe(owner: str, link) -> LinkStats:
        return LinkStats(
            description=owner,
            utilization=link.utilization(elapsed),
            transmitted_bytes=link.transmitted_bytes,
            dropped_packets=link.dropped_packets,
            marked_packets=link.marked_packets,
            max_queue_bytes=link.max_queue_bytes,
        )

    for sid, switch in network.switches.items():
        for neighbor, link in switch.switch_ports.items():
            stats.append(describe(f"switch {sid} -> switch {neighbor}", link))
        for server, link in switch.host_ports.items():
            stats.append(describe(f"switch {sid} -> server {server}", link))
    for hid, host in network.hosts.items():
        if host.uplink is not None:
            stats.append(describe(f"server {hid} -> switch {host.tor}", host.uplink))
    return NetworkReport(elapsed=elapsed, links=stats)


def emit_network_report(
    network: Any, elapsed: Optional[float] = None
) -> NetworkReport:
    """:func:`network_report` plus metrics/trace output when obs is on.

    Folds the report's totals into ``sim.*`` counters and gauges and
    appends a ``network_report`` event summarizing the run's hot links.
    """
    report = network_report(network, elapsed)
    run = core.current()
    if run is not None:
        metrics = run.metrics
        metrics.counter("sim.link_drops").add(report.total_drops)
        metrics.counter("sim.link_ecn_marks").add(report.total_marks)
        metrics.gauge("sim.max_link_utilization").set(report.max_utilization)
        metrics.gauge("sim.mean_link_utilization").set(report.mean_utilization)
        metrics.gauge("sim.max_queue_bytes").set(
            max((l.max_queue_bytes for l in report.links), default=0)
        )
        run.record_event(
            "network_report",
            {
                "elapsed": report.elapsed,
                "links": len(report.links),
                "total_drops": report.total_drops,
                "total_marks": report.total_marks,
                "max_utilization": report.max_utilization,
                "hottest": [
                    {
                        "link": l.description,
                        "utilization": l.utilization,
                        "drops": l.dropped_packets,
                    }
                    for l in report.hottest(3)
                ],
            },
        )
    return report
