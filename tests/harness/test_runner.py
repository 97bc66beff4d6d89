"""Runner integration: parallel sweeps, caching, and graceful degradation.

This file carries the subsystem's acceptance checks: a multi-point
packet sweep through the worker pool matches the serial baseline
metric-for-metric (and beats it on wall clock when the host actually
has >= 2 cores), an immediate re-run is served >= 90% from cache, and an
injected worker exception becomes a failure record while every other
point completes.
"""

import os

from repro.harness import ExperimentSpec, ResultCache, ResultsStore, Runner

N_POINTS = 8


def packet_point(seed, **over):
    base = dict(
        name=f"ecmp seed={seed}",
        topology={"family": "fattree", "k": 4},
        workload={"pattern": "permute", "fraction": 1.0, "load": 0.2,
                  "sizes": "pfabric", "mean_flow_bytes": 200_000},
        routing="ecmp",
        engine="packet",
        seed=seed,
        measure_start=0.005,
        measure_end=0.02,
    )
    base.update(over)
    return ExperimentSpec(**base)


def bad_point():
    """A spec that validates but whose worker raises (odd fat-tree k)."""
    return packet_point(0, name="bad k=5",
                       topology={"family": "fattree", "k": 5})


class TestSweepAcceptance:
    def test_parallel_matches_serial_and_degrades_gracefully(self, tmp_path):
        good = [packet_point(seed) for seed in range(N_POINTS)]
        specs = good + [bad_point()]

        serial = Runner(jobs=1, retries=0).run(good)
        assert serial.ok

        cache = ResultCache(str(tmp_path / "cache"))
        parallel = Runner(jobs=2, cache=cache, retries=0).run(specs)

        # One record per spec, in submission order.
        assert [r.name for r in parallel.records] == [s.name for s in specs]

        # The injected worker exception is a failure record; every other
        # point still completed (graceful degradation, no crashed sweep).
        failed = parallel.records[-1]
        assert failed.status == "failed"
        assert "TopologyError" in failed.error
        assert all(r.ok for r in parallel.records[:-1])
        assert parallel.counts == {
            "total": N_POINTS + 1, "ok": N_POINTS, "cached": 0, "failed": 1,
        }

        # Parallel execution is a pure scheduling change: metrics are
        # identical to the serial baseline, point for point.
        assert [r.metrics for r in parallel.records[:N_POINTS]] == [
            r.metrics for r in serial.records
        ]

        # On a multi-core host the 2-wide pool overlaps its points: the
        # sweep's wall clock is below the sum of its points' own wall
        # clocks.  Both sides come from the same run, so a host slowed
        # by other load slows both.  (A 1-core container can't overlap
        # CPU-bound sims, so the claim is only checkable where
        # parallelism exists.)
        if (os.cpu_count() or 1) >= 2:
            assert parallel.wall_clock_s < sum(
                r.wall_clock_s for r in parallel.records
            )

        # An immediate re-run of the same specs is served from cache:
        # >= 90% of the successful points, with zero recomputation.
        rerun = Runner(jobs=2, cache=cache, retries=0).run(good)
        assert rerun.counts["cached"] == N_POINTS >= 0.9 * len(good)
        assert rerun.counts["ok"] == 0
        assert [r.metrics for r in rerun.records] == [
            r.metrics for r in serial.records
        ]


class TestFailureHandling:
    def test_retries_are_bounded_and_counted(self):
        result = Runner(jobs=1, retries=2, backoff_base_s=0.01).run(
            [bad_point()]
        )
        (rec,) = result.records
        assert rec.status == "failed"
        assert rec.attempts == 3  # 1 initial + 2 retries
        assert "TopologyError" in rec.error

    def test_timeout_terminates_and_records(self):
        slow = packet_point(0, name="slow", measure_start=0.02,
                            measure_end=3.0)
        result = Runner(jobs=1, timeout_s=0.3, retries=0).run([slow])
        (rec,) = result.records
        assert rec.status == "timeout"
        assert "timed out" in rec.error

    def test_invalid_spec_fails_without_spawning(self):
        invalid = ExperimentSpec(
            topology={"family": "torus"},
            workload={"pattern": "a2a", "load": 0.2},
        )
        result = Runner(jobs=1).run([invalid])
        (rec,) = result.records
        assert rec.status == "failed"
        assert "torus" in rec.error
        assert not result.ok


class TestStoreAndProgress:
    LP = dict(
        topology={"family": "jellyfish", "switches": 8, "degree": 3,
                  "servers": 1, "seed": 0},
        workload={"pattern": "longest_matching", "fraction": 0.5},
        engine="lp",
    )

    def test_store_receives_every_record_in_spec_order(self, tmp_path):
        store = ResultsStore(str(tmp_path / "out.jsonl"))
        specs = [ExperimentSpec(name="lp-point", **self.LP), bad_point()]
        Runner(jobs=1, retries=0, store=store).run(specs)
        loaded = store.load()
        assert [r.name for r in loaded] == ["lp-point", "bad k=5"]
        assert loaded[0].ok and not loaded[1].ok
        assert loaded[0].metrics["per_server_throughput"] > 0

    def test_progress_counts_reach_total(self):
        seen = []
        runner = Runner(jobs=1, retries=0, progress=seen.append)
        runner.run([ExperimentSpec(name="lp-point", **self.LP)])
        assert seen[-1]["done"] == seen[-1]["total"] == 1
        assert seen[-1]["running"] == 0
        assert seen[0]["total"] == 1
