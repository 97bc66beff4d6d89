"""Hyperscale probe: how far does each layer actually stretch?

The sharded harness (PR 8) only matters if the layers under it keep up,
so this probe pushes four stages to their practical limits and records
the frontier in ``BENCH_scale.json`` at the repo root:

* **Generation** — jellyfish and xpander construction on a doubling
  switch-count ladder: largest size built within the per-trial budget,
  plus switches/second at the frontier.
* **Chunked all-pairs BFS** — unweighted ``csgraph.shortest_path``
  swept over *source chunks* (the ``indices=`` parameter) so the
  working set stays one chunk × N instead of N × N; records pair
  throughput, diameter, and mean path length at the largest rung.
* **TM generation** — ``longest_matching_tm`` on a doubling rack
  ladder (above 256 active ToRs it switches to the greedy pairing over
  chunked PathCache distances, so neither the dense distance matrix nor
  the O(n^3) blossom matching caps the climb).
* **Per-engine solves** — the largest jellyfish each evaluation engine
  (``flowsim``, ``highs-exact``, ``highs-incremental``,
  ``highs-colgen``, ``mcf-approx``) completes within the per-trial
  budget, with the headline metric and wall time at that frontier.

Every stage climbs a ×2 ladder.  Schema ``repro.scale/2`` records two
distinct frontiers per stage, which v1 conflated:

* ``max_ok`` — the largest rung that finished *within* the trial
  budget (the climb continues past it only while rungs stay on
  budget);
* ``max_completed`` — the largest rung that finished at all.  The
  first over-budget rung still completes and is recorded here, then
  stops the climb.

``stopped_by`` names the rung and reason (``over budget``, ``cap``, or
the exception) that ended the climb.  A regression (or improvement) in
any engine shows up as a trajectory diff in the committed JSON.

Set ``REPRO_PERF_QUICK=1`` for a reduced ladder (the CI ``scale-smoke``
job, which also asserts the quick-ladder floors below); the committed
``BENCH_scale.json`` comes from a full run (a quick run writes to
``bench_out.bench_path``, outside the repository).  The top-level
``library_versions`` map names the version that produced each stage.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
from scipy.sparse import csgraph

from bench_out import QUICK, bench_path
from repro.harness import ExperimentSpec
from repro.harness.execute import execute_spec
from repro.ioutils import atomic_write_json
from repro.perf import PathCache
from repro.topologies import jellyfish, xpander
from repro.traffic import longest_matching_tm
from repro.version import __version__

BENCH_PATH = bench_path("BENCH_scale.json")

#: Per-trial wall-clock budget (s): the first rung past this completes,
#: is recorded as ``max_completed``, and stops the climb.
TRIAL_BUDGET_S = 2.0 if QUICK else 20.0

#: Generation is cheap; give it a tighter budget and a taller ladder.
GEN_BUDGET_S = 1.0 if QUICK else 10.0
GEN_CAP = 2048 if QUICK else 65536
BFS_CAP = 1024 if QUICK else 16384
TM_CAP = 1024 if QUICK else 8192
ENGINE_CAP = 256 if QUICK else 8192
BASE_SWITCHES = 16
DEGREE = 10
SERVERS = 2
BFS_CHUNK = 256

#: Engine name -> ExperimentSpec fragment (topology filled per rung).
ENGINE_SPECS = {
    "flowsim": {
        "engine": "flow",
        "routing": "ecmp",
        "workload": {
            "pattern": "permute", "fraction": 0.5, "rate": 400.0,
            "sizes": "pfabric", "mean_flow_bytes": 200_000,
        },
        "measure_start": 0.0,
        "measure_end": 0.02,
    },
    "highs-exact": {
        "engine": "lp",
        "workload": {
            "pattern": "longest_matching", "solver": "highs-exact",
            "fraction": 1.0,
        },
    },
    "highs-incremental": {
        "engine": "lp",
        "workload": {
            "pattern": "longest_matching", "solver": "highs-incremental",
            "fraction": 1.0,
        },
    },
    "highs-colgen": {
        "engine": "lp",
        "workload": {
            "pattern": "longest_matching", "solver": "highs-colgen",
            "fraction": 1.0,
        },
    },
    "mcf-approx": {
        "engine": "lp",
        "workload": {
            "pattern": "longest_matching", "solver": "mcf-approx",
            "fraction": 1.0,
        },
    },
}

#: Headline metric per engine for the frontier entry.
ENGINE_METRIC = {
    "flowsim": "avg_fct_ms",
    "highs-exact": "per_server_throughput",
    "highs-incremental": "per_server_throughput",
    "highs-colgen": "per_server_throughput",
    "mcf-approx": "per_server_throughput",
}

#: Quick-ladder floors the CI scale-smoke job holds every engine to:
#: the largest *completed* rung must reach at least this many switches.
QUICK_ENGINE_FLOORS = {
    "flowsim": 64,
    "highs-exact": 32,
    "highs-incremental": 32,
    "highs-colgen": 64,
    "mcf-approx": 16,
}
QUICK_TM_FLOOR = 512

_RESULTS: dict = {}


def _ladder(cap: int):
    n = BASE_SWITCHES
    while n <= cap:
        yield n
        n *= 2


def _degree(switches: int) -> int:
    # jellyfish needs degree < switches and degree * switches even.
    return min(DEGREE, switches - 2)


def _climb(cap: int, budget_s: float, trial):
    """Run ``trial(switches)`` up the ×2 ladder; return the frontier.

    ``trial`` returns a JSON-ready dict on success (must include
    ``wall_s``) or raises.  Every rung that returns is recorded in
    ``max_completed``; only rungs whose wall time stays within
    ``budget_s`` advance ``max_ok``, and the first over-budget rung (or
    the first failure) stops the climb.  v1 of this schema recorded an
    over-budget rung as ``max_ok``, which both inflated the frontier
    and hid how far past the budget the layer could actually reach.
    """
    last_ok = None
    last_completed = None
    stopped_by = None
    for switches in _ladder(cap):
        try:
            entry = trial(switches)
        except Exception as exc:  # noqa: BLE001 - frontier, not failure
            stopped_by = {
                "switches": switches,
                "reason": f"{type(exc).__name__}: {exc}"[:200],
            }
            break
        last_completed = {"switches": switches, **entry}
        if entry["wall_s"] > budget_s:
            stopped_by = {"switches": switches, "reason": "over budget"}
            break
        last_ok = last_completed
    if stopped_by is None:
        stopped_by = {
            "switches": (
                last_completed["switches"] if last_completed else None
            ),
            "reason": "cap",
        }
    return {
        "max_ok": last_ok,
        "max_completed": last_completed,
        "stopped_by": stopped_by,
    }


def _write_results() -> None:
    """Merge this run's stages into the BENCH file and record, under
    ``library_versions``, the version that produced each stage it wrote;
    stages not run keep their values and their entry there."""
    path = BENCH_PATH
    payload = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["schema"] = "repro.scale/2"
    payload["quick"] = QUICK
    payload.update(_RESULTS)
    versions = payload.setdefault("library_versions", {})
    for stage in _RESULTS:
        versions[stage] = __version__
    atomic_write_json(path, payload, sort_keys=True)


# ----------------------------------------------------------------------
# Stage 1: topology generation
# ----------------------------------------------------------------------
def test_scale_generation():
    def gen_jellyfish(switches: int):
        t0 = time.perf_counter()
        topo = jellyfish(switches, _degree(switches), SERVERS, seed=1)
        wall = time.perf_counter() - t0
        assert topo.num_switches == switches
        return {
            "wall_s": round(wall, 4),
            "switches_per_s": round(switches / wall, 1),
            "links": topo.num_links,
        }

    def gen_xpander(switches: int):
        lift = max(switches // (DEGREE + 1), 1)
        t0 = time.perf_counter()
        topo = xpander(DEGREE, lift, SERVERS)
        wall = time.perf_counter() - t0
        return {
            "wall_s": round(wall, 4),
            "switches": topo.num_switches,
            "switches_per_s": round(topo.num_switches / wall, 1),
            "links": topo.num_links,
        }

    _RESULTS["generation"] = {
        "jellyfish": _climb(GEN_CAP, GEN_BUDGET_S, gen_jellyfish),
        "xpander": _climb(GEN_CAP, GEN_BUDGET_S, gen_xpander),
    }
    for family, frontier in _RESULTS["generation"].items():
        assert frontier["max_completed"] is not None, family
        assert frontier["max_completed"]["switches"] >= BASE_SWITCHES
    _write_results()


# ----------------------------------------------------------------------
# Stage 2: chunked all-pairs BFS
# ----------------------------------------------------------------------
def test_scale_chunked_bfs():
    def bfs(switches: int):
        topo = jellyfish(switches, _degree(switches), SERVERS, seed=1)
        adjacency = PathCache(topo.graph)._csr_adjacency()
        n = adjacency.shape[0]
        t0 = time.perf_counter()
        total = 0.0
        finite = 0
        diameter = 0.0
        # One chunk of sources at a time: peak memory is
        # BFS_CHUNK × n, never n × n.
        for start in range(0, n, BFS_CHUNK):
            sources = np.arange(start, min(start + BFS_CHUNK, n))
            dist = csgraph.shortest_path(
                adjacency, method="D", directed=False, unweighted=True,
                indices=sources,
            )
            mask = np.isfinite(dist) & (dist > 0)
            total += float(dist[mask].sum())
            finite += int(mask.sum())
            diameter = max(diameter, float(dist[mask].max()))
        wall = time.perf_counter() - t0
        assert finite == n * (n - 1), "jellyfish rung is disconnected"
        return {
            "wall_s": round(wall, 4),
            "pairs_per_s": round(finite / wall, 1),
            "chunk": BFS_CHUNK,
            "diameter": int(diameter),
            "avg_path_length": round(total / finite, 4),
        }

    _RESULTS["chunked_bfs"] = _climb(BFS_CAP, TRIAL_BUDGET_S, bfs)
    assert _RESULTS["chunked_bfs"]["max_completed"] is not None
    _write_results()


# ----------------------------------------------------------------------
# Stage 3: traffic-matrix generation
# ----------------------------------------------------------------------
def test_scale_tm_generation():
    def gen_tm(switches: int):
        topo = jellyfish(switches, _degree(switches), SERVERS, seed=1)
        t0 = time.perf_counter()
        tm = longest_matching_tm(topo, 1.0, seed=1)
        wall = time.perf_counter() - t0
        # Validation rides along (one-pass hose check) but is asserted,
        # not timed: the frontier measures generation.
        tm.validate_hose({t: SERVERS for t in topo.tors})
        assert tm.num_flows >= switches - 2, "matching left racks unpaired"
        return {
            "wall_s": round(wall, 4),
            "flows": tm.num_flows,
            "flows_per_s": round(tm.num_flows / wall, 1),
        }

    _RESULTS["tm_generation"] = {
        "longest_matching": _climb(TM_CAP, TRIAL_BUDGET_S, gen_tm),
    }
    frontier = _RESULTS["tm_generation"]["longest_matching"]
    assert frontier["max_completed"] is not None
    assert frontier["max_completed"]["switches"] >= BASE_SWITCHES
    if QUICK:
        assert frontier["max_completed"]["switches"] >= QUICK_TM_FLOOR
    _write_results()


# ----------------------------------------------------------------------
# Stage 4: per-engine solve frontier
# ----------------------------------------------------------------------
def test_scale_engines():
    frontiers = {}
    for engine, fragment in ENGINE_SPECS.items():
        def solve(switches: int, fragment=fragment, engine=engine):
            spec = ExperimentSpec.from_dict({
                "name": f"scale/{engine}/n={switches}",
                "topology": {
                    "family": "jellyfish", "switches": switches,
                    "degree": _degree(switches), "servers": SERVERS,
                    "seed": 1,
                },
                "seed": 1,
                **{k: (dict(v) if isinstance(v, dict) else v)
                   for k, v in fragment.items()},
            })
            record = execute_spec(spec)
            if not record.ok:
                raise RuntimeError(record.error or "engine failed")
            metric = ENGINE_METRIC[engine]
            return {
                "wall_s": round(record.wall_clock_s, 4),
                metric: record.metrics.get(metric),
            }

        frontiers[engine] = _climb(ENGINE_CAP, TRIAL_BUDGET_S, solve)
        assert frontiers[engine]["max_completed"] is not None, engine
        assert frontiers[engine]["max_completed"]["switches"] >= BASE_SWITCHES
        if QUICK:
            assert (
                frontiers[engine]["max_completed"]["switches"]
                >= QUICK_ENGINE_FLOORS[engine]
            ), engine
    _RESULTS["engines"] = frontiers
    _write_results()
