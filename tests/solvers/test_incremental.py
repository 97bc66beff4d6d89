"""Warm-started incremental solving: equivalence, refactorization, flags.

The property test: across ≥50 random jellyfish/xpander instances and
multi-point load grids, warm-started objective values must match
``highs-exact`` within 1e-9 on both engines — the default cold
``fallback`` (in fact byte-identical: it patches cached canonical
matrices into exactly what fresh assembly would build, and answers
unchanged coefficients from the stored optimum) and basis reuse on
scipy's bundled HiGHS core (``mode=core``), whose first solve per
structure is byte-identical too.  A warm start that fails is retried
cold, so callers only ever see ``highs-exact``'s failures.  Plus the
forced-refactorization contract: any topology change mid-batch —
including a capacity-only change the structural content hash ignores —
must rebuild the structure, never reuse a stale basis.
"""

import random

import pytest

from repro import registry
from repro.perf import topology_content_hash
from repro.solvers import (
    HighsColgenBackend,
    HighsExactBackend,
    HighsIncrementalBackend,
    have_highs_core,
    reset_warm_start_stats,
    warm_start_stats,
)
from repro.throughput import EdgeLpContext, max_concurrent_throughput, skew_sweep
from repro.throughput import highs
from repro.topologies import jellyfish, xpander
from repro.traffic import TrafficMatrix, longest_matching_tm

from ..lp_faults import fail_solves, fail_warm_solves

LOAD_GRID = (0.5, 0.8, 1.0, 1.4)


def _random_instances(count, seed=20260808):
    """≥``count`` seeded random small jellyfish/xpander instances."""
    rng = random.Random(seed)
    builders = []
    for i in range(count):
        if i % 2 == 0:
            switches = rng.randint(8, 14)
            degree = rng.randint(3, 4)
            if (switches * degree) % 2:  # r-regular needs n*r even
                switches += 1
            servers = rng.randint(1, 2)
            s = rng.randint(0, 10_000)
            builders.append(
                pytest.param(
                    lambda sw=switches, d=degree, sv=servers, s=s: jellyfish(
                        sw, d, sv, seed=s
                    ),
                    id=f"jellyfish-{i}",
                )
            )
        else:
            degree = rng.randint(3, 5)
            lift = rng.randint(2, 3)
            servers = rng.randint(1, 2)
            s = rng.randint(0, 10_000)
            builders.append(
                pytest.param(
                    lambda d=degree, lf=lift, sv=servers, s=s: xpander(
                        d, d + 1, sv, seed=s
                    ),
                    id=f"xpander-{i}",
                )
            )
    return builders


INSTANCES = _random_instances(50)

needs_core = pytest.mark.skipif(
    not have_highs_core(), reason="needs scipy's bundled HiGHS core"
)


def _by_mode(instances):
    """Every instance under both engines; the default ``fallback`` arm
    keeps the bare instance ids."""
    return [
        pytest.param(
            mode, *inst.values,
            id=inst.id if mode == "fallback" else f"{mode}-{inst.id}",
            marks=needs_core if mode == "core" else (),
        )
        for mode in ("fallback", "core")
        for inst in instances
    ]


@pytest.mark.parametrize("mode, build", _by_mode(INSTANCES))
def test_warm_objectives_match_exact_within_1e9(mode, build):
    """Property test: warm solves track highs-exact to 1e-9 everywhere."""
    topo = build()
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base.scaled(s) for s in LOAD_GRID]
    outcomes = HighsIncrementalBackend(mode=mode).solve_many(topo, tms)
    for tm, outcome in zip(tms, outcomes):
        assert outcome.ok
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
        assert abs(outcome.result.per_server - exact.per_server) <= 1e-9
    # The first point built the model; the rest warm-started off it,
    # and on the core re-solved from the previous basis.
    assert [o.warm_started for o in outcomes] == [False, True, True, True]
    assert [o.basis_reused for o in outcomes] == (
        [False, True, True, True] if mode == "core" else [False] * 4
    )


def test_fallback_is_byte_identical_to_exact():
    """Stronger than the 1e-9 envelope: the scipy fallback patches the
    cached matrices into exactly fresh assembly, so every field matches
    bit for bit."""
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base.scaled(s) for s in LOAD_GRID]
    backend = HighsIncrementalBackend(mode="fallback")
    for tm, outcome in zip(tms, backend.solve_many(topo, tms)):
        exact = max_concurrent_throughput(topo, tm)
        result = outcome.result
        assert result.throughput == exact.throughput
        assert result.per_server == exact.per_server
        assert result.iterations == exact.iterations
        assert result.link_utilization == exact.link_utilization
        assert result.disconnected_pairs == exact.disconnected_pairs


def test_varying_support_matches_exact():
    """Skew-style sweeps change the demand support (different dests per
    fraction): each support is its own structure, and repeats of a
    support warm-start while results stay exact."""
    topo = jellyfish(12, 4, 2, seed=3)
    fractions = [0.4, 0.7, 1.0, 0.4, 0.7, 1.0]
    tms = [longest_matching_tm(topo, f, seed=1) for f in fractions]
    outcomes = HighsIncrementalBackend(mode="fallback").solve_many(topo, tms)
    for tm, outcome in zip(tms, outcomes):
        exact = max_concurrent_throughput(topo, tm)
        assert outcome.result.throughput == exact.throughput
    assert [o.warm_started for o in outcomes] == [
        False, False, False, True, True, True,
    ]


def test_topology_change_mid_batch_forces_refactorization():
    """A different topology between calls must rebuild, not reuse."""
    backend = HighsIncrementalBackend(mode="fallback")
    topo_a = jellyfish(12, 4, 2, seed=3)
    topo_b = xpander(4, 6, 2, seed=0)
    tm_a = longest_matching_tm(topo_a, 1.0, seed=1)
    tm_b = longest_matching_tm(topo_b, 1.0, seed=1)

    first = backend.solve_many(topo_a, [tm_a, tm_a])
    assert [o.warm_started for o in first] == [False, True]
    switched = backend.solve_many(topo_b, [tm_b, tm_b])
    assert switched[0].warm_started is False  # rebuilt for topo_b
    assert switched[1].warm_started is True
    exact_b = max_concurrent_throughput(topo_b, tm_b)
    assert switched[0].result.throughput == exact_b.throughput


def test_capacity_change_forces_refactorization():
    """Same graph structure, different capacities → different fingerprint
    → rebuild.  (The perf path cache's content hash ignores capacities;
    the LP fingerprint must not.)"""
    import copy

    topo = jellyfish(10, 4, 2, seed=5)
    scaled = copy.deepcopy(topo)
    for _u, _v, data in scaled.graph.edges(data=True):
        data["capacity"] *= 2.0
    assert topology_content_hash(topo, capacities=True) != (
        topology_content_hash(scaled, capacities=True)
    )

    backend = HighsIncrementalBackend(mode="fallback")
    tm = longest_matching_tm(topo, 1.0, seed=1)
    cold = backend.solve_many(topo, [tm])
    recap = backend.solve_many(scaled, [tm])
    assert recap[0].warm_started is False
    exact = max_concurrent_throughput(scaled, tm)
    assert recap[0].result.throughput == exact.throughput
    assert cold[0].result.throughput != recap[0].result.throughput


def test_warm_false_forces_every_point_cold():
    topo = jellyfish(12, 4, 2, seed=3)
    tm = longest_matching_tm(topo, 1.0, seed=1)
    backend = HighsIncrementalBackend(mode="fallback")
    outcomes = backend.solve_many(topo, [tm, tm, tm], warm=False)
    assert [o.warm_started for o in outcomes] == [False, False, False]
    assert all(not o.basis_reused for o in outcomes)
    exact = max_concurrent_throughput(topo, tm)
    for o in outcomes:
        assert o.result.throughput == exact.throughput


def test_warm_start_counters_and_context_stats():
    reset_warm_start_stats()
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend = HighsIncrementalBackend()
    backend.solve_many(topo, [base.scaled(s) for s in (0.5, 1.0, 1.5)])
    stats = warm_start_stats()
    assert stats["miss"] == 1
    assert stats["hit"] == 2
    assert stats["context_miss"] == 1
    # No live model: every solve builds (and drops) one HiGHS model.
    assert stats["models_built"] == 3
    assert stats["basis_reused"] == 0
    assert stats["results_reused"] == 0
    ctx = backend.context_stats()
    assert ctx["cold_solves"] == 1
    assert ctx["warm_solves"] == 2
    assert ctx["models_built"] == 3
    assert ctx["basis_reused"] == 0
    assert ctx["structures"] == 1
    # A second solve_many on the same topology reuses the live context;
    # its unchanged coefficients are answered without a model.
    backend.solve_many(topo, [base.scaled(1.5)])
    assert warm_start_stats()["context_hit"] == 1
    assert warm_start_stats()["results_reused"] == 1
    assert backend.context_stats()["models_built"] == 3


def test_degenerate_conventions_match_backend_contract():
    """Empty and fully disconnected TMs follow the documented
    conventions (cf. tests/throughput/test_bounds.py)."""
    topo = jellyfish(10, 4, 2, seed=5)
    empty = longest_matching_tm(topo, 1.0, seed=1).restricted_to_pairs([])
    context = EdgeLpContext(topo)
    result = context.solve(empty)
    assert result.throughput == float("inf")
    assert result.per_server == 1.0


WARM_BACKENDS = (HighsIncrementalBackend, HighsColgenBackend)


def test_mode_validation(monkeypatch):
    """Both warm backends resolve ``mode`` through one table."""
    for cls in WARM_BACKENDS:
        for bad in ("bogus", ["core"], None):
            with pytest.raises(ValueError, match="auto/core/fallback"):
                cls(mode=bad)
        assert cls(mode="fallback").use_core is False
        for mode in ("auto", "core", "highspy"):
            if mode == "auto" or have_highs_core():
                assert cls(mode=mode).use_core is have_highs_core()
    # Defaults: the edge LP stays cold, colgen keeps a live core model.
    assert HighsIncrementalBackend().use_core is False
    assert HighsColgenBackend().use_core is have_highs_core()
    # ``highspy`` stays a synonym of ``core`` in spec strings.
    if have_highs_core():
        assert registry.solver("highs-incremental:mode=highspy").use_core
        assert registry.solver("highs-batched:mode=core").use_core

    # With the core away, ``auto`` degrades and ``core`` is refused.
    monkeypatch.setattr(highs, "_CORE", None)
    monkeypatch.setattr(highs, "_CORE_CHECKED", True)
    assert not have_highs_core()
    for cls in WARM_BACKENDS:
        assert cls(mode="auto").use_core is False
        for mode in ("core", "highspy"):
            with pytest.raises(ValueError, match="bundled HiGHS core"):
                cls(mode=mode)
    with pytest.raises(ValueError, match="bundled HiGHS core"):
        EdgeLpContext(jellyfish(8, 3, 1, seed=0), reuse_basis=True)


def test_context_kind_says_whether_bases_are_reused():
    """Callers that cache contexts by ``context_kind`` (the API) share a
    cold context between ``highs-exact`` and the default engine, and
    never hand a basis-reusing one to either."""
    topo = jellyfish(8, 3, 1, seed=0)
    cold = HighsIncrementalBackend()
    assert cold.context_kind == HighsExactBackend.context_kind == "edge-lp"
    assert cold.new_context(topo).stats()["kind"] == "edge-lp"
    if have_highs_core():
        core = HighsIncrementalBackend(mode="core")
        assert core.context_kind == "edge-lp-basis"
        assert core.new_context(topo).stats()["kind"] == "edge-lp-basis"


def test_registry_exposes_incremental():
    assert "highs-incremental" in registry.SOLVERS
    backend = registry.solver("highs-incremental")
    assert backend.name == "highs-incremental"
    assert backend.supports_batching is True
    backend = registry.solver("highs-incremental:mode=fallback")
    assert backend.mode == "fallback"


def test_skew_sweep_routes_through_incremental_backend():
    topo = jellyfish(12, 4, 2, seed=3)
    fractions = [0.4, 0.7, 1.0]
    warm = skew_sweep(
        topo, fractions, solver="highs-incremental:mode=fallback", seed=1
    )
    exact = skew_sweep(topo, fractions, solver="exact", seed=1)
    assert warm.ok and exact.ok
    assert warm.throughput == exact.throughput

    # warm=False is accepted and still exact.
    cold = skew_sweep(
        topo, fractions, solver="highs-incremental:mode=fallback", seed=1,
        warm=False,
    )
    assert cold.throughput == exact.throughput


def test_skew_sweep_warm_kwarg_tolerates_legacy_backends():
    """Backends without the ``warm`` kwarg still work (no TypeError)."""

    class LegacyBackend:
        def solve_many(self, topology, tms):
            return HighsIncrementalBackend().solve_many(topology, tms)

    topo = jellyfish(10, 4, 2, seed=5)
    result = skew_sweep(topo, [0.5, 1.0], solver=LegacyBackend(), seed=1)
    assert result.ok


@needs_core
def test_core_basis_reuse_flags_and_equivalence():
    """On the bundled HiGHS core the warm path really reuses the basis —
    fewer simplex iterations than a cold solve — and stays within 1e-9
    of highs-exact."""
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base.scaled(s) for s in LOAD_GRID]
    backend = HighsIncrementalBackend(mode="core")
    outcomes = backend.solve_many(topo, tms)
    assert [o.basis_reused for o in outcomes] == [False, True, True, True]
    for tm, outcome in zip(tms, outcomes):
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
        assert abs(outcome.result.per_server - exact.per_server) <= 1e-9
    assert sum(o.iterations for o in outcomes[1:]) < 3 * outcomes[0].iterations
    ctx = backend.context_stats()
    assert ctx["engine"] == "highs-core-basis"
    assert ctx["warm_solves"] == 3 and ctx["basis_reused"] == 3
    # One fresh model per solve, none kept alive between them.
    assert ctx["models_built"] == 4


# ----------------------------------------------------------------------
# Stored optima; mode=core: basis reuse, cold first solves, cold retries
# ----------------------------------------------------------------------
def _recording_x(monkeypatch):
    """Record ``x.tobytes()`` of every :func:`highs.solve`, and whether
    it started from a basis, as ``(warm, bytes)`` pairs."""
    real = highs.solve
    calls = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((out.warm, out.x.tobytes()))
        return out

    monkeypatch.setattr(highs, "solve", recording)
    return calls


def _uneven(tm, seed):
    """``tm`` with each demand scaled by its own factor in [0.5, 2):
    same support, different demand ratios."""
    rng = random.Random(seed)
    return TrafficMatrix(
        {pair: val * rng.uniform(0.5, 2.0) for pair, val in tm.demands.items()}
    )


@pytest.mark.parametrize("mode", ["fallback", "core"])
def test_unchanged_coefficients_return_the_stored_optimum(monkeypatch, mode):
    """A TM whose coefficients equal the structure's last solve is
    answered from the stored optimum: no model is built, and on the
    default engine the result (iterations included) is ``highs-exact``'s
    byte for byte, whatever the context solved in between."""
    if mode == "core" and not have_highs_core():
        pytest.skip("mode=core needs scipy's bundled HiGHS core")
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    other = longest_matching_tm(topo, 0.5, seed=2)
    backend = HighsIncrementalBackend(mode=mode)
    context = backend.new_context(topo)
    first = backend.solve_in(context, base)
    backend.solve_in(context, other)  # another structure in between
    calls = _recording_x(monkeypatch)
    again = backend.solve_in(context, base.scaled(1.0))
    assert calls == []
    assert again.warm_started and not again.basis_reused
    assert again.result == first.result
    assert again.iterations == first.iterations
    stats = context.stats()
    assert stats["results_reused"] == 1 and stats["models_built"] == 2
    # A changed coefficient drops the stored optimum and solves again.
    backend.solve_in(context, base.scaled(2.0))
    assert len(calls) == 1
    if mode == "fallback":
        monkeypatch.undo()
        assert again.result == max_concurrent_throughput(topo, base)
        assert again.iterations == max_concurrent_throughput(topo, base).iterations


@needs_core
@pytest.mark.parametrize("build", INSTANCES)
def test_core_reuses_basis_on_uneven_rescale(monkeypatch, build):
    """``mode=core``: a structure's first solve is ``highs-exact`` byte
    for byte, and a re-solve of unevenly rescaled demands starts from
    the stored basis and lands within 1e-9 of ``highs-exact``."""
    topo = build()
    base = longest_matching_tm(topo, 1.0, seed=1)
    tms = [base, _uneven(base, 1), _uneven(base, 2)]
    calls = _recording_x(monkeypatch)
    outcomes = HighsIncrementalBackend(mode="core").solve_many(topo, tms)
    solved = list(calls)
    exact_first = max_concurrent_throughput(topo, base)
    assert calls[-1] == solved[0]  # both cold, equal x bytes
    assert [warm for warm, _ in solved] == [False, True, True]
    assert [o.warm_started for o in outcomes] == [False, True, True]
    assert [o.basis_reused for o in outcomes] == [False, True, True]
    assert outcomes[0].result == exact_first
    for tm, outcome in zip(tms[1:], outcomes[1:]):
        exact = max_concurrent_throughput(topo, tm)
        assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
        assert abs(outcome.result.per_server - exact.per_server) <= 1e-9


class _FakeRes:
    def __init__(self, status, message="injected"):
        self.status = status
        self.success = False
        self.x = None
        self.message = message
        self.nit = 3


@needs_core
def test_failed_warm_start_is_retried_cold(monkeypatch):
    """``mode=core``: a warm solve that fails recomputes cold: the
    caller gets ``highs-exact``'s result, bit for bit, and no
    basis-reuse flag."""
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend = HighsIncrementalBackend(mode="core")
    backend.solve_many(topo, [base])
    calls = fail_warm_solves(monkeypatch, _FakeRes(4))
    tm = _uneven(base, 7)
    (outcome,) = backend.solve_many(topo, [tm])
    assert calls == [True, False]
    assert outcome.ok and outcome.warm_started and not outcome.basis_reused
    monkeypatch.undo()
    assert outcome.result == max_concurrent_throughput(topo, tm)
    assert backend.context_stats()["models_built"] == 3


@needs_core
@pytest.mark.parametrize("status", [1, 2, 3, 4])
def test_failed_cold_retry_raises_as_exact_and_keeps_no_basis(
    monkeypatch, status
):
    """``mode=core``: when the cold retry fails too, the caller sees
    ``highs-exact``'s
    failure class and ``status_code``; the failed solve stores no
    basis, so the next solve on the structure is cold again."""
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend = HighsIncrementalBackend(mode="core")
    backend.solve_many(topo, [base])
    with monkeypatch.context() as patch:
        fail_solves(patch, _FakeRes(status))
        (failed,) = backend.solve_many(topo, [base.scaled(0.5)])
        exact = registry.solver("highs-exact").solve(topo, base.scaled(0.5))
    assert not failed.ok and not exact.ok
    assert type(failed.error) is type(exact.error)
    assert failed.error.status_code == exact.error.status_code == status
    assert failed.status is exact.status
    assert failed.warm_started and not failed.basis_reused

    calls = _recording_x(monkeypatch)
    after = backend.solve_many(topo, [base, base.scaled(2.0)])
    assert [warm for warm, _ in calls] == [False, True]
    assert [o.basis_reused for o in after] == [False, True]
    assert after[0].result == max_concurrent_throughput(topo, base)


@needs_core
def test_rejected_basis_solves_cold(monkeypatch):
    """A stored basis HiGHS rejects (here: one of another structure's
    shape) is dropped: the solve runs cold, returns ``highs-exact``'s
    bytes and counts no basis reuse."""
    topo = jellyfish(12, 4, 2, seed=3)
    base = longest_matching_tm(topo, 1.0, seed=1)
    other = longest_matching_tm(topo, 0.5, seed=2)
    backend = HighsIncrementalBackend(mode="core")
    context = backend.new_context(topo)
    backend.solve_in(context, other)
    backend.solve_in(context, base)
    # Least recent first: the basis of ``other``'s structure.
    foreign = context._structures.values()[0].basis
    assert foreign is not None
    real = highs.solve
    seen = []

    def mismatched(*args, basis=None, **kwargs):
        out = real(*args, basis=foreign if basis is not None else None, **kwargs)
        seen.append((basis is not None, out.warm))
        return out

    monkeypatch.setattr(highs, "solve", mismatched)
    tm = _uneven(base, 3)
    outcome = backend.solve_in(context, tm)
    monkeypatch.undo()
    assert seen == [(True, False)]
    assert outcome.ok and outcome.warm_started and not outcome.basis_reused
    assert outcome.result == max_concurrent_throughput(topo, tm)
    assert context.stats()["basis_reused"] == 0
