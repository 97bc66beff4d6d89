"""Perf bench: warm-started incremental LP solving across a load sweep.

A load sweep fixes the topology *and* the demand support, scaling only
the demand values — the best case for ``highs-incremental``: the first
point builds the model, every later point patches coefficients and
re-solves.  The reference arm is what a sweep without any reuse pays:
one self-contained ``max_concurrent_throughput`` per point (fresh
ArcTable, fresh assembly, cold simplex).

Both engines are measured in one run, each into its own
``BENCH_perf.json`` entry (merged with the other suites' entries by
``bench_out.merge_bench_json``) together with an equivalence check
against ``highs-exact``:

* ``lp_warm_sweep`` — ``mode=fallback``: structure/assembly reuse only
  (every point still pays a cold simplex), so the gate is parity (1.0)
  and the teeth are in the byte-identity assertions;
* ``lp_warm_sweep_core`` — ``mode=core``: dual-simplex basis reuse on
  scipy's bundled HiGHS core, within 1e-9 of ``highs-exact`` and gated
  at >= 3x on the 14-point sweep.

The two arms alternate repeat by repeat (``bench_out.interleaved``), so
a slow stretch of a shared host lands on both, and the gated speedup is
the median of the per-repeat ratios: a single run's ±20% swing cannot
decide a parity gate.

Set ``REPRO_PERF_QUICK=1`` for a reduced grid (CI smoke); its output goes
to ``bench_out.bench_path``, outside the repository.
"""

from __future__ import annotations

import pytest

from bench_out import QUICK, interleaved, merge_bench_json
from repro.solvers import HighsIncrementalBackend, have_highs_core
from repro.throughput import max_concurrent_throughput
from repro.topologies import jellyfish
from repro.traffic import longest_matching_tm

SWITCHES = 12
NUM_POINTS = 6 if QUICK else 14

_RESULTS: dict = {}


def _workload():
    topo = jellyfish(SWITCHES, 4, 2, seed=1)
    base = longest_matching_tm(topo, 1.0, seed=1)
    scales = [
        round(0.3 + 1.2 * i / (NUM_POINTS - 1), 4) for i in range(NUM_POINTS)
    ]
    return topo, [base.scaled(s) for s in scales]


#: Interleaved (cold, warm) repeats per engine.
REPEATS = 3 if QUICK else 7


#: mode -> (BENCH_perf.json entry, speedup gate on the full grid)
ENGINES = {
    "fallback": ("lp_warm_sweep", 1.0),
    "core": ("lp_warm_sweep_core", 3.0),
}


@pytest.mark.parametrize("mode", list(ENGINES))
def test_warm_sweep_speedup_and_equivalence(mode):
    if mode == "core" and not have_highs_core():
        pytest.skip("needs scipy's bundled HiGHS core")
    entry, gate = ENGINES[mode]
    topo, tms = _workload()

    def cold():
        return [max_concurrent_throughput(topo, tm) for tm in tms]

    def warm():
        # Fresh backend per repeat: the measurement includes the one
        # cold model build (a sweep costs ~1 cold + N-1 warm solves).
        return HighsIncrementalBackend(mode=mode).solve_many(topo, tms)

    cold_s, warm_s, speedup, cold_results, warm_outcomes = interleaved(
        cold, warm, REPEATS
    )

    assert all(o.ok for o in warm_outcomes)
    assert [o.warm_started for o in warm_outcomes] == (
        [False] + [True] * (NUM_POINTS - 1)
    )
    for exact, outcome in zip(cold_results, warm_outcomes):
        # Equivalence gate vs highs-exact: byte-identical on the
        # cold fallback, 1e-9 with basis reuse on the core.
        if mode == "core":
            assert abs(outcome.result.throughput - exact.throughput) <= 1e-9
        else:
            assert outcome.result.throughput == exact.throughput
            assert outcome.result.link_utilization == exact.link_utilization

    _RESULTS[entry] = {
        "reference_s": cold_s,
        "accelerated_s": warm_s,
        "speedup": round(speedup, 2),
        "gate": gate,
        "params": {
            "switches": SWITCHES,
            "points": NUM_POINTS,
            "mode": mode,
            "repeats": REPEATS,
            "basis_reused": sum(o.basis_reused for o in warm_outcomes),
        },
    }
    if QUICK:
        assert speedup > 0.5
    elif mode == "core":
        assert speedup >= gate, _RESULTS[entry]
    else:
        # Fallback: structure reuse must not be slower than cold solves
        # (the simplex dominates; allow generous scheduler noise).
        assert speedup > 0.7, _RESULTS[entry]


def test_zzz_update_bench_json():
    """Merge this suite's result into BENCH_perf.json (runs last)."""
    assert _RESULTS, "warm-sweep bench did not run"
    payload = merge_bench_json("BENCH_perf.json", _RESULTS)
    if not QUICK:
        for name in _RESULTS:
            entry = payload["kernels"][name]
            assert entry["speedup"] >= entry["gate"], entry
