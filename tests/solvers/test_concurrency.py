"""Concurrent solves on one warm edge-LP context.

HiGHS releases the GIL, so two requests solving on one context should
run in parallel: the context's lock covers only its structure LRU, and
a structure is checked out for the duration of its solve.  Per-solve
flags travel with each solve, never through shared context state.
"""

import threading

import pytest

from repro.solvers import HighsIncrementalBackend
from repro.throughput import EdgeLpContext, highs, max_concurrent_throughput
from repro.topologies import jellyfish
from repro.traffic import longest_matching_tm


@pytest.fixture
def topo():
    return jellyfish(12, 4, 2, seed=3)


def _run_threads(targets):
    errors = []

    def guarded(fn):
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(fn,), name=name)
        for name, fn in targets
    ]
    return threads, errors


def test_two_solves_on_one_context_run_concurrently(topo, monkeypatch):
    """Both solves must be inside HiGHS at once: a 2-party barrier in
    the patched call only releases when the second solve arrives."""
    backend = HighsIncrementalBackend(mode="fallback")
    context = backend.new_context(topo)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend.solve_in(context, base)  # cache the support's structure

    barrier = threading.Barrier(2, timeout=5)
    real = highs.solve_cold

    def meeting_solve(*args, **kwargs):
        barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(highs, "solve_cold", meeting_solve)
    tms = [base.scaled(0.5), base.scaled(2.0)]  # same demand support
    outcomes = [None, None]

    def solve(i):
        outcomes[i] = backend.solve_in(context, tms[i])

    threads, errors = _run_threads(
        [(f"solve-{i}", lambda i=i: solve(i)) for i in range(2)]
    )
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not errors, errors
    monkeypatch.setattr(highs, "solve_cold", real)
    for tm, outcome in zip(tms, outcomes):
        assert outcome.ok
        assert outcome.result == max_concurrent_throughput(topo, tm)
    # One solve patched the cached structure, the other assembled its own.
    assert sorted(o.warm_started for o in outcomes) == [False, True]


def test_flags_belong_to_their_own_solve(topo, monkeypatch):
    """A warm solve paused inside HiGHS while a cold one (new demand
    support) completes must still report its own flags."""
    backend = HighsIncrementalBackend(mode="fallback")
    context = backend.new_context(topo)
    base = longest_matching_tm(topo, 1.0, seed=1)
    backend.solve_in(context, base)

    entered, release = threading.Event(), threading.Event()
    real = highs.solve_cold

    def pausing_solve(*args, **kwargs):
        if threading.current_thread().name == "paused":
            entered.set()
            assert release.wait(timeout=5)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs, "solve_cold", pausing_solve)
    outcomes = {}
    other = longest_matching_tm(topo, 0.5, seed=2)
    threads, errors = _run_threads(
        [
            ("paused", lambda: outcomes.update(
                paused=backend.solve_in(context, base.scaled(0.5)))),
            ("other", lambda: outcomes.update(
                other=backend.solve_in(context, other))),
        ]
    )
    paused, runner = threads
    paused.start()
    assert entered.wait(timeout=5)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive(), "a paused solve blocked another solve"
    release.set()
    paused.join(timeout=10)
    assert not errors, errors
    assert outcomes["paused"].warm_started is True
    assert outcomes["other"].warm_started is False
    assert outcomes["paused"].basis_reused is False
    assert outcomes["other"].basis_reused is False
    assert context.stats()["warm_solves"] == 1


def test_context_is_the_one_shot_exact_path(topo):
    """``max_concurrent_throughput`` is a one-shot scipy context solve."""
    tm = longest_matching_tm(topo, 0.75, seed=4)
    one_shot = EdgeLpContext(topo, use_core=False).solve(tm, warm=False)
    assert one_shot == max_concurrent_throughput(topo, tm)
