"""The event loop's semantics, pinned as literals.

``Engine.run`` is the engine's one event loop (peek, then pop; the
horizon is re-checked per event).  The literals below were captured
when a second, batched loop still existed and both agreed on them:
callback order, clock values, per-call counts, cancellation accounting
and full packet-simulation metrics.  Any change to the loop must keep
them.

Also the `schedule_at` regressions: scheduling in the past must raise a
``ValueError`` that talks about the absolute ``when`` the caller passed,
not the internally derived ``delay``, and an event scheduled at ``when``
fires at exactly ``when``.
"""

import pytest

from repro.sim import Engine, FlowRecord, NetworkParams, run_packet_experiment
from repro.topologies import fattree
from repro.traffic import FlowSpec


class TestScheduleAtRegression:
    def test_past_when_rejected_with_when_in_message(self):
        e = Engine()
        e.schedule(1.0, lambda: None)
        e.run()
        assert e.now == 1.0
        with pytest.raises(ValueError) as exc_info:
            e.schedule_at(0.25, lambda: None)
        message = str(exc_info.value)
        assert "when=0.25" in message
        assert "now=1.0" in message
        assert "delay=" not in message

    def test_fires_exactly_at_when(self):
        # ``now + (when - now)`` rounds to 0.02053538413683772 here.
        now, when = 0.000359422031985154, 0.020535384136837715
        e = Engine()
        seen = []
        e.schedule_at(now, lambda: e.schedule_at(when, lambda: seen.append(e.now)))
        e.run()
        assert seen == [when]

    def test_exactly_now_is_allowed(self):
        e = Engine()
        e.schedule(1.0, lambda: None)
        e.run()
        seen = []
        e.schedule_at(1.0, lambda: seen.append(e.now))
        e.run()
        assert seen == [1.0]


def _scripted_run():
    """An adversarial scenario: ties, nested scheduling at the current
    timestamp, cancellations (some mid-run), horizons, max_events."""
    e = Engine()
    log = []

    def tick(tag):
        log.append((tag, e.now))
        if tag == "a":  # same-timestamp nested work: runs at the same time
            e.schedule(0.0, tick, "a-child")
        if tag == "b":
            handle_late.cancel()  # cancel an event already in the heap

    e.schedule(0.1, tick, "a")
    e.schedule(0.1, tick, "b")  # FIFO tie with "a"
    e.schedule(0.3, tick, "c")
    handle_early = e.schedule_cancellable(0.2, tick, "early")
    handle_late = e.schedule_cancellable(0.25, tick, "late")
    handle_early.cancel()

    processed = []
    processed.append(e.run(until=0.1))
    processed.append(e.run(until=0.2))
    e.schedule(0.05, tick, "d")
    processed.append(e.run(max_events=1))
    processed.append(e.run())
    log.append(("end", e.now))
    return log, processed, e.events_processed, e.pending


def test_scripted_scenario_identical():
    log, processed, events_processed, pending = _scripted_run()
    assert log == [
        ("a", 0.1), ("b", 0.1), ("a-child", 0.1), ("d", 0.25), ("c", 0.3),
        ("end", 0.3),
    ]
    assert processed == [3, 0, 1, 1]
    assert events_processed == 5
    assert pending == 0


def test_empty_and_horizon_only_runs_identical():
    e = Engine()
    assert e.run() == 0
    assert e.run(until=2.0) == 0
    assert e.now == 2.0  # clock advances to the horizon
    assert e.events_processed == 0
    assert e.pending == 0


def _packet_metrics():
    topo = fattree(4).topology
    flows = [
        FlowSpec(i, src, dst, 30_000 + 1000 * i, 0.0001 * i)
        for i, (src, dst) in enumerate(
            [(0, 15), (1, 14), (2, 13), (3, 12), (4, 11), (5, 10),
             (8, 7), (9, 6)]
        )
    ]
    stats = run_packet_experiment(
        topo, flows, routing="ecmp", measure_start=0.0, measure_end=0.02,
        network_params=NetworkParams(link_rate_bps=1e9),
    )
    return stats.records, stats.summary()


#: ``(flow_id, src, dst, size_bytes, start_time, completion_time)``.
_PACKET_RECORDS = [
    (0, 0, 15, 30000, 0.0, 0.000334824),
    (1, 1, 14, 31000, 0.0001, 0.00048469599999999985),
    (2, 2, 13, 32000, 0.0002, 0.0005933583999999998),
    (3, 3, 12, 33000, 0.00030000000000000003, 0.0006856303999999998),
    (4, 4, 11, 34000, 0.0004, 0.0007848463999999998),
    (5, 5, 10, 35000, 0.0005, 0.0009555663999999997),
    (6, 8, 7, 36000, 0.0006000000000000001, 0.0010163296),
    (7, 9, 6, 37000, 0.0007, 0.0012028415999999998),
]


def test_packet_simulation_metrics_byte_identical():
    """End-to-end determinism: full per-flow records and the summary
    equal the pinned values, float for float."""
    records, summary = _packet_metrics()
    assert records == [FlowRecord(*fields) for fields in _PACKET_RECORDS]
    # repr-compare: the NaN placeholder (nan != nan) must still appear
    # in exactly the same slot.
    assert repr(summary) == repr({
        "flows": 8,
        "unfinished": 0,
        "avg_fct_ms": 0.4072615999999998,
        "short_p99_fct_ms": 0.5028415999999999,
        "long_avg_throughput_gbps": float("nan"),
    })
