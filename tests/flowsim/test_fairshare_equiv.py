"""Property test: vectorized max-min allocation matches the reference.

Covers ~50 randomized instances, including VLB-style double-traversal
paths (an arc appearing twice in one flow's path) and empty paths
(same-switch endpoints, infinite rate).  Rates must be bit-identical
(``==``), not merely close, and a flow-engine run must produce the same
records when every recompute is answered by the reference instead.
"""

import random

import pytest

from repro import obs
from repro.flowsim import FairShareState, FlowLevelSimulation, max_min_allocation
from repro.harness.execute import execute_spec
from repro.harness.spec import ExperimentSpec

from .fairshare_reference import max_min_allocation_reference


def random_instance(rng):
    """A random capacitated arc set plus flows pinned to random paths."""
    n_nodes = rng.randint(3, 10)
    arcs = []
    capacities = {}
    for u in range(n_nodes):
        for v in range(n_nodes):
            if u != v and rng.random() < 0.5:
                arcs.append((u, v))
                capacities[(u, v)] = rng.choice([0.5, 1.0, 2.0, 5.0, 10.0])
    flow_paths = {}
    n_flows = rng.randint(1, 20)
    for fid in range(n_flows):
        style = rng.random()
        if style < 0.1 or not arcs:
            flow_paths[fid] = []  # same-switch flow: infinite rate
        elif style < 0.3:
            # VLB-style detour: an arc traversed twice in one path.
            arc = rng.choice(arcs)
            extra = [rng.choice(arcs) for _ in range(rng.randint(0, 2))]
            flow_paths[fid] = [arc] + extra + [arc]
        else:
            flow_paths[fid] = [
                rng.choice(arcs) for _ in range(rng.randint(1, 4))
            ]
    return flow_paths, capacities


@pytest.mark.parametrize("seed", range(50))
def test_vectorized_matches_reference(seed):
    rng = random.Random(seed)
    flow_paths, capacities = random_instance(rng)
    ref = max_min_allocation_reference(flow_paths, capacities)
    vec = max_min_allocation(flow_paths, capacities)
    assert vec == ref


@pytest.mark.parametrize("seed", range(10))
def test_incremental_state_matches_batch(seed):
    """FairShareState under churn equals batch allocation of the snapshot."""
    rng = random.Random(1000 + seed)
    flow_paths, capacities = random_instance(rng)
    state = FairShareState(capacities)
    live = {}
    for fid, path in flow_paths.items():
        state.add_flow(fid, path)
        live[fid] = path
    # Random departures interleaved with rate queries.
    for fid in sorted(live)[:: 2]:
        state.remove_flow(fid)
        del live[fid]
        assert state.rates() == max_min_allocation_reference(live, capacities)


def test_incremental_state_churn_many_flows():
    """A few hundred flows arriving and departing on a shared arc set.

    Many distinct saturation levels mean many filling rounds, each
    dropping the entries of the flows it froze.
    """
    rng = random.Random(77)
    arcs = [(u, v) for u in range(12) for v in range(12) if u != v]
    capacities = {arc: rng.choice([1.0, 2.0, 3.0, 5.0, 10.0]) for arc in arcs}
    state = FairShareState(capacities)
    live = {}
    next_fid = 0
    for step in range(60):
        for _ in range(rng.randint(5, 15)):
            style = rng.random()
            if style < 0.05:
                path = []
            elif style < 0.25:
                arc = rng.choice(arcs)
                path = [arc, rng.choice(arcs), arc]
            else:
                path = [rng.choice(arcs) for _ in range(rng.randint(1, 5))]
            state.add_flow(next_fid, path)
            live[next_fid] = path
            next_fid += 1
        if step >= 25:
            for fid in rng.sample(sorted(live), rng.randint(5, 15)):
                state.remove_flow(fid)
                del live[fid]
        assert state.rates() == max_min_allocation_reference(live, capacities)
    assert next_fid >= 200 and len(live) >= 200
    assert state.waterfill_rounds > 10 * state.recomputes


#: One flow-engine simulate in the shape the warm service benchmark
#: sends: jellyfish-16, HYB, pFabric sizes, permute 0.5 at 0.3 load.
SERVICE_SIMULATE = {
    "topology": {
        "family": "jellyfish", "switches": 16, "degree": 4, "servers": 3,
        "seed": 1,
    },
    "workload": {
        "pattern": "permute", "fraction": 0.5, "load": 0.3,
        "sizes": "pfabric", "mean_flow_bytes": 200_000,
    },
    "engine": "flow",
    "routing": "hyb",
    "seed": 10_001,
    "measure_start": 0.01,
    "measure_end": 0.02,
    "hyb_threshold_bytes": 8_333,
    "short_flow_bytes": 8_333,
}


def _reference_rates(self):
    """``FairShareState.rates`` answered by the reference on the snapshot."""
    self.recomputes += 1
    arc_of = {aid: arc for arc, aid in self._arc_ids.items()}
    snapshot = {fid: [] for fid in self._infinite}
    for fid, (aids, mults) in self._flows.items():
        snapshot[fid] = [
            arc_of[aid] for aid, m in zip(aids, mults) for _ in range(int(m))
        ]
    return max_min_allocation_reference(snapshot, self._capacities)


def _simulate_service_spec(run_dir):
    """Run :data:`SERVICE_SIMULATE`: its measured records, metrics and
    ``flowsim.*`` counters."""
    captured = []
    run = FlowLevelSimulation.run

    def capture(self, *args, **kwargs):
        captured.append(run(self, *args, **kwargs))
        return captured[-1]

    with pytest.MonkeyPatch.context() as patch, obs.session(str(run_dir)):
        patch.setattr(FlowLevelSimulation, "run", capture)
        record = execute_spec(ExperimentSpec.from_dict(SERVICE_SIMULATE))
        counters = {
            name: metric["value"]
            for name, metric in obs.snapshot().items()
            if name.startswith("flowsim.")
        }
    (stats,) = captured
    return stats.records, record.metrics, counters


def test_flow_engine_matches_reference_oracle(monkeypatch, tmp_path):
    records, metrics, counters = _simulate_service_spec(tmp_path / "fast")
    # Work counts of this spec, pinned: the water-fill must do the same
    # recomputes and filling rounds, not just land on the same rates.
    assert counters["flowsim.fairshare_recomputes"] == 310
    assert counters["flowsim.waterfill_rounds"] == 1244
    assert records and all(r.finished for r in records)

    monkeypatch.setattr(FairShareState, "rates", _reference_rates)
    oracle_records, oracle_metrics, _ = _simulate_service_spec(
        tmp_path / "oracle"
    )
    assert records == oracle_records  # completion times included
    assert metrics == oracle_metrics


def test_unknown_arc_raises():
    with pytest.raises(KeyError):
        max_min_allocation({0: [(0, 1)]}, {})
    state = FairShareState({})
    with pytest.raises(KeyError):
        state.add_flow(0, [(0, 1)])


def test_state_duplicate_and_missing_flow():
    state = FairShareState({(0, 1): 1.0})
    state.add_flow("a", [(0, 1)])
    with pytest.raises(ValueError):
        state.add_flow("a", [(0, 1)])
    with pytest.raises(KeyError):
        state.remove_flow("nope")
    assert len(state) == 1
