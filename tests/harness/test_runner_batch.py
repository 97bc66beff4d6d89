"""Runner auto-batching of fixed-topology lp sweeps + fatal-error handling."""

import multiprocessing

from repro.harness import ExperimentSpec, ResultCache, Runner
from repro.harness.execute import execute_lp_batch, execute_spec
from repro.harness.runner import _task_main
from repro.throughput import InfeasibleError, SolverFailure

from ..lp_faults import fail_cold_solves

TOPOLOGY = {
    "family": "jellyfish", "switches": 10, "degree": 4,
    "servers": 2, "seed": 1,
}
FRACTIONS = [1.0, 0.75, 0.5]


def _specs(solver, prefix="p", mode=None, **extra):
    """One lp spec per fraction; ``mode`` sets the workload's
    ``solver_mode`` (``"fallback"``, also the default, pins the cold
    path, byte-identical to ``exact``)."""
    workload = {"solver": solver}
    if mode is not None:
        workload["solver_mode"] = mode
    return [
        ExperimentSpec(
            name=f"{prefix}{i}",
            engine="lp",
            topology=dict(TOPOLOGY),
            workload=dict(workload, fraction=f),
            **extra,
        )
        for i, f in enumerate(FRACTIONS)
    ]


class _FakeRes:
    def __init__(self, status, success=False, x=None, message="", nit=5):
        self.status = status
        self.success = success
        self.x = x
        self.message = message
        self.nit = nit


class TestAutoBatching:
    def test_batched_records_match_per_point_exact(self):
        batched = Runner(jobs=1, retries=0).run(
            _specs("highs-batched", mode="fallback")
        )
        exact = Runner(jobs=1, retries=0).run(_specs("exact", prefix="q"))
        assert batched.ok and exact.ok
        for a, b in zip(batched.records, exact.records):
            assert a.attempts == 1
            assert a.metrics == b.metrics
            assert a.telemetry == b.telemetry

    def test_solver_mode_reaches_the_warm_backend_under_both_names(self):
        from repro import registry

        for name in ("highs-batched", "highs-incremental"):
            spec = _specs(name, mode="fallback")[0]
            assert spec.solver_spec() == f'{name}:mode="fallback"'
            backend = registry.solver(spec.solver_spec())
            assert backend.mode == "fallback"
            assert backend.name == name

    def test_points_split_by_solver_knobs(self):
        # Same topology and solver name, different knobs: two groups, so
        # no point is solved with another point's knobs.
        specs = _specs("highs-colgen") + [
            ExperimentSpec(
                name="k4", engine="lp", topology=dict(TOPOLOGY),
                workload={"solver": "highs-colgen:k=4", "fraction": 1.0},
            ),
            ExperimentSpec(
                name="k4-legacy", engine="lp", topology=dict(TOPOLOGY),
                workload={"solver": "highs-colgen", "k_paths": 4,
                          "fraction": 0.5},
            ),
        ]
        keys = [Runner._batch_key(s) for s in specs]
        assert len(set(keys)) == 2
        assert keys[-1] == keys[-2]
        assert keys[-1][2] == "highs-colgen:k=4"

    def test_each_point_runs_with_its_own_knobs(self):
        # One pricing round cannot certify this optimum, 200 can: the
        # second point used to be batched with the first and fail too.
        specs = [
            ExperimentSpec(
                name=f"rounds{r}", engine="lp", topology=dict(TOPOLOGY),
                workload={"solver": "highs-colgen", "k_paths": 1,
                          "max_rounds": r, "fraction": 1.0},
            )
            for r in (1, 200)
        ]
        records = Runner(jobs=1, retries=0).run(specs).records
        assert [r.status for r in records] == ["failed", "ok"]

    def test_each_point_runs_with_its_own_warm_flag(self, monkeypatch):
        # Points differing only in ``warm`` used to share a group and run
        # with the first point's flag.
        import repro.harness.execute as execute

        seen = []
        real = execute.evaluate_lp

        def recording(topology, points, solver, **kwargs):
            seen.append((len(points), kwargs["warm"]))
            return real(topology, points, solver, **kwargs)

        monkeypatch.setattr(execute, "evaluate_lp", recording)
        specs = [
            ExperimentSpec(
                name=f"warm-{warm}", engine="lp", topology=dict(TOPOLOGY),
                workload={"solver": "highs-batched", "fraction": 1.0,
                          "warm": warm},
            )
            for warm in (True, False)
        ]
        records = Runner(jobs=1, retries=0).run(specs).records
        assert [r.status for r in records] == ["ok", "ok"]
        assert sorted(seen) == [(1, False), (1, True)]
        assert Runner._batch_key(specs[0]) != Runner._batch_key(specs[1])

    def test_batch_key_gates_on_backend_and_engine(self):
        assert Runner._batch_key(_specs("highs-batched")[0]) is not None
        assert Runner._batch_key(_specs("exact")[0]) is None
        assert Runner._batch_key(_specs("mcf-approx")[0]) is None
        flow = ExperimentSpec(
            name="f", engine="flow", topology=dict(TOPOLOGY),
            workload={"pattern": "permute", "load": 0.1},
        )
        assert Runner._batch_key(flow) is None

    def test_points_split_by_topology(self):
        specs = _specs("highs-batched")
        other = dict(TOPOLOGY, seed=2)
        specs.append(
            ExperimentSpec(
                name="other", engine="lp", topology=other,
                workload={"solver": "highs-batched", "fraction": 1.0},
            )
        )
        keys = {Runner._batch_key(s) for s in specs}
        assert len(keys) == 2  # two groups, both batchable

    def test_batched_records_are_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        specs = _specs("highs-batched")
        first = Runner(jobs=1, retries=0, cache=cache).run(specs)
        assert first.counts["ok"] == len(specs)
        second = Runner(jobs=1, retries=0, cache=cache).run(specs)
        assert second.counts["cached"] == len(specs)
        for a, b in zip(first.records, second.records):
            assert a.metrics == b.metrics

    def test_degraded_batch_matches_per_point(self):
        failures = {"mode": "links", "fraction": 0.1, "seed": 3}
        batched = Runner(jobs=1, retries=0).run(
            _specs("highs-batched", mode="fallback", failures=dict(failures))
        )
        exact = Runner(jobs=1, retries=0).run(
            _specs("exact", prefix="q", failures=dict(failures))
        )
        assert batched.ok and exact.ok
        for a, b in zip(batched.records, exact.records):
            assert a.metrics == b.metrics
            assert a.telemetry == b.telemetry
            assert "connectivity" in a.telemetry


class TestBatchFailureIsolation:
    def test_infeasible_point_becomes_failure_record(self, monkeypatch):
        fail_cold_solves(monkeypatch, _FakeRes(2, message="infeasible"))
        records = execute_lp_batch(_specs("highs-batched", mode="fallback"))
        assert all(r.status == "failed" for r in records)
        assert all(r.error.startswith("InfeasibleError:") for r in records)
        assert all(r.attempts == 1 for r in records)

    def test_batch_matches_execute_spec(self):
        specs = _specs("highs-batched", mode="fallback")
        records = execute_lp_batch(specs)
        for spec, record in zip(specs, records):
            assert record.ok
            assert record.metrics == execute_spec(spec).metrics


class TestFatalErrors:
    def test_solver_failure_not_retried_inline(self, monkeypatch):
        calls = []

        def boom(spec):
            calls.append(spec.name)
            raise InfeasibleError("no flow", formulation="exact")

        # Non-batchable solver keeps these points on the inline path,
        # whose executor is the late-bound repro.harness.execute entry.
        monkeypatch.setattr("repro.harness.execute.execute_spec", boom)
        result = Runner(inline=True, retries=2, backoff_base_s=0.0).run(
            _specs("exact")
        )
        assert all(not r.ok for r in result.records)
        assert all(r.attempts == 1 for r in result.records)
        assert all(r.error.startswith("InfeasibleError:") for r in result.records)
        assert len(calls) == len(FRACTIONS)  # one attempt per point, no retries

    def test_ordinary_errors_still_retry(self, monkeypatch):
        calls = []

        def flaky(spec):
            calls.append(spec.name)
            raise OSError("transient")

        monkeypatch.setattr("repro.harness.execute.execute_spec", flaky)
        result = Runner(inline=True, retries=1, backoff_base_s=0.0).run(
            _specs("exact")[:1]
        )
        assert not result.records[0].ok
        assert result.records[0].attempts == 2
        assert len(calls) == 2

    def test_task_main_wire_status_fatal(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        spec = ExperimentSpec(
            name="bad", engine="lp", topology={"family": "torus"},
            workload={},
        )
        _task_main(child, spec.to_dict())
        status, payload = parent.recv()
        assert status == "fatal"
        assert payload.startswith("SpecError:")

    def test_solver_failure_is_fatal_class(self):
        from repro.harness.runner import _FATAL_ERRORS

        assert issubclass(SolverFailure, _FATAL_ERRORS)
        assert issubclass(InfeasibleError, _FATAL_ERRORS)


class TestBatchFallbackObservability:
    def test_wholesale_batch_failure_is_counted_and_evented(self, monkeypatch):
        """A batch that dies wholesale silently re-runs per point — the
        fallback must leave a counter and a structured event behind so
        sweeps can see the batching speedup evaporated (and why)."""
        from repro import obs

        def boom(specs):
            raise RuntimeError("batch solver exploded")

        monkeypatch.setattr("repro.harness.execute.execute_lp_batch", boom)
        with obs.session() as run:
            result = Runner(inline=True, retries=0).run(_specs("highs-batched"))
            snap = obs.snapshot()
        # Every point still completed — on the per-point path.
        assert result.ok
        assert all(r.attempts == 1 for r in result.records)
        assert snap["harness.batch_fallback"]["value"] == 1
        assert "runner.batched_points" not in snap
        events = [e for e in run.events if e["kind"] == "harness.batch_fallback"]
        assert len(events) == 1
        assert events[0]["solver"] == "highs-batched"
        assert events[0]["points"] == len(FRACTIONS)
        assert events[0]["error"] == "RuntimeError: batch solver exploded"

    def test_healthy_batches_emit_no_fallback(self):
        from repro import obs

        with obs.session() as run:
            result = Runner(jobs=1, retries=0).run(_specs("highs-batched"))
            snap = obs.snapshot()
        assert result.ok
        assert "harness.batch_fallback" not in snap
        assert snap["runner.batched_points"]["value"] == len(FRACTIONS)
        assert not [e for e in run.events if e["kind"] == "harness.batch_fallback"]
