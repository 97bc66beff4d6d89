"""Staged inverse-design search: enumerate, prune, then (and only then) solve.

The expensive part of "cheapest network meeting this SLO" is the LP:
one max-concurrent-flow solve per candidate.  The search therefore
spends arithmetic before graphs and graphs before LPs:

* **feasibility** — switch cap, radix (network degree + server ports
  must fit), server count: pure arithmetic on the candidate's predicted
  sizing.
* **cheap bounds** — a cost lower bound
  (:func:`repro.cost.predicted_port_cost` against ``max_cost``) and a
  Moore-bound throughput ceiling.  For the longest-matching TM the
  max-weight matching's total distance is at least the active set's
  mean pairwise distance times the number of pairs (the maximum beats
  the random-matching average), and that mean is at least
  :func:`~repro.topologies.dynamic.moore_bound_mean_distance` by
  shell-filling, so ``per_server <= psd * 2*links / (s * active *
  moore_mean)`` — still no graph has been built.
* **structural bounds** — build the topology, score expandability
  (normalized spectral gap), and apply the exact
  :func:`~repro.throughput.bounds.tm_throughput_upper_bound` on the
  actual TM: a candidate whose capacity/distance ceiling already misses
  the SLO never reaches a solver.
* **evaluate** — survivors go through the configured
  :data:`repro.registry.SOLVERS` backend, by way of the library's one
  LP evaluator (:func:`repro.harness.execute.evaluate_lp`); optimal
  designs are checked against the optional resilience floor (retained
  throughput under the target's failure scenario).

Every stage is observed (``design.*`` spans and counters), every prune
is recorded with its reason, and all measurements are memoized by
content key inside a :class:`DesignEngine`, so the sensitivity sweep —
and repeated API calls against a warm service — re-solve only what a
perturbation actually changes.  All pruning is *sound*: a pruned
candidate provably cannot meet the target (the property test in
``tests/design`` checks this by exhaustive evaluation).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs, registry
from ..cost import PORT_COSTS, predicted_port_cost, topology_port_cost
from ..harness.execute import evaluate_lp
from ..perf import Lru
from ..throughput.bounds import tm_throughput_upper_bound
from ..topologies.dynamic import moore_bound_mean_distance
from ..topologies.properties import spectral_gap
from ..traffic.patterns import longest_matching_tm
from .report import DesignReport, EvaluatedDesign, PrunedCandidate
from .space import CandidateDesign, enumerate_candidates
from .target import DesignTarget

__all__ = ["DesignEngine", "design_search", "SENSITIVITY_PARAMETERS"]

#: Tolerance for SLO comparisons (LP optima are floating point).
SLO_EPS = 1e-9

#: Inputs the tornado table perturbs, one at a time.
SENSITIVITY_PARAMETERS = (
    "servers",
    "throughput_per_server",
    "fraction",
    "radix",
)


def _active_tors(num_tors: int, fraction: float) -> int:
    """Matched-ToR count of the longest-matching TM (even, >= 2)."""
    active = max(2, round(fraction * num_tors))
    active = min(active, num_tors)
    return active - (active % 2)


def _canonical(payload: Any) -> str:
    from ..api.state import canonical_key

    return canonical_key(payload)


class DesignEngine:
    """The staged search with warm, content-addressed measurement memos.

    Memos store threshold-free *measurements* (cost, expandability,
    throughput bound, LP per-server, retained fraction) — the target's
    thresholds are applied outside — so a sensitivity perturbation of
    the SLO reuses every structural measurement and every LP result
    computed for the base target.  Reports are byte-identical with a
    cold or warm memo by construction.
    """

    def __init__(self, memo_capacity: int = 512):
        # Shared by the service's HTTP handler threads and design-job
        # workers, hence the thread-safe LRU.
        self._struct = Lru(memo_capacity, "design.memo")
        self._lp = Lru(memo_capacity, "design.memo")
        self._resilience = Lru(memo_capacity, "design.memo")

    # -- measurement layers (memoized, threshold-free) -----------------
    def _struct_key(self, cand: CandidateDesign, target: DesignTarget) -> str:
        return _canonical(
            {
                "spec": cand.spec,
                "fraction": target.fraction,
                "seed": target.seed,
                "port_cost": target.port_cost,
            }
        )

    def _measure_structure(
        self, cand: CandidateDesign, target: DesignTarget
    ) -> Dict[str, Any]:
        """Build the candidate and measure its pre-LP structure.

        The memo stores the raw, demand-free ``t_bound``; the target's
        ``per_server_demand`` scaling is applied outside the memo, so
        two targets differing only in demand (the struct key does not —
        and must not need to — include it) never share a stale
        ``bound_per_server``.
        """
        key = self._struct_key(cand, target)
        raw = self._struct.get(key)
        if raw is None:
            with obs.span(
                "design.structural", family=cand.family, switches=cand.switches
            ):
                topology = registry.topology(cand.spec)
                tm = longest_matching_tm(
                    topology, target.fraction, seed=target.seed
                )
                cost = topology_port_cost(topology, PORT_COSTS[target.port_cost])
                g = topology.graph
                mean_degree = 2.0 * g.number_of_edges() / g.number_of_nodes()
                expand = 0.0
                if mean_degree > 0:
                    expand = max(0.0, min(1.0, spectral_gap(topology) / mean_degree))
                t_bound = tm_throughput_upper_bound(topology, tm)
            raw = {
                "cost": cost,
                "expandability": round(expand, 9),
                "t_bound": t_bound,
                "num_servers": topology.num_servers,
            }
            self._struct.put(key, raw)
        bound = min(1.0, raw["t_bound"] * target.per_server_demand)
        return {**raw, "bound_per_server": round(bound, 9)}

    def _measure_lp(
        self, cand: CandidateDesign, target: DesignTarget
    ) -> Dict[str, Any]:
        """Solve the candidate's longest-matching LP (the expensive step)."""
        key = _canonical(
            {
                "spec": cand.spec,
                "fraction": target.fraction,
                "seed": target.seed,
                "per_server_demand": target.per_server_demand,
                "solver": target.solver,
            }
        )
        hit = self._lp.get(key)
        if hit is not None:
            return hit
        with obs.span("design.evaluate", family=cand.family):
            (outcome,) = evaluate_lp(
                cand.spec, [(target.fraction, target.seed)], target.solver,
                per_server_demand=target.per_server_demand,
            ).outcomes
        obs.add("design.lp_solves")
        measured = {
            "status": outcome.status.value,
            "per_server": (
                round(outcome.result.per_server, 9) if outcome.ok else 0.0
            ),
            "iterations": outcome.iterations,
        }
        self._lp.put(key, measured)
        return measured

    def _measure_resilience(
        self, cand: CandidateDesign, target: DesignTarget
    ) -> Dict[str, Any]:
        """Per-server throughput of the degraded candidate (same TM)."""
        assert target.resilience is not None
        key = _canonical(
            {
                "spec": cand.spec,
                "fraction": target.fraction,
                "seed": target.seed,
                "per_server_demand": target.per_server_demand,
                "solver": target.solver,
                "failures": target.resilience.failures,
            }
        )
        hit = self._resilience.get(key)
        if hit is not None:
            return hit
        with obs.span("design.resilience", family=cand.family):
            topology = registry.topology(cand.spec)
            tm = longest_matching_tm(
                topology, target.fraction, seed=target.seed
            )
            degraded = topology.degrade(target.resilience.failures)
            backend = registry.solver(target.solver)
            outcome = backend.solve(
                degraded, tm, per_server_demand=target.per_server_demand
            )
        obs.add("design.lp_solves")
        measured = {
            "status": outcome.status.value,
            "per_server": (
                round(outcome.result.per_server, 9) if outcome.ok else 0.0
            ),
        }
        self._resilience.put(key, measured)
        return measured

    # -- pruning stages ------------------------------------------------
    def _prune_cheap(
        self, cand: CandidateDesign, target: DesignTarget
    ) -> Optional[Tuple[str, str]]:
        """Arithmetic-only rejection: ``(reason, detail)`` or ``None``."""
        if cand.switches > target.max_switches:
            return (
                "max_switches",
                f"{cand.switches} switches > cap {target.max_switches}",
            )
        ports = cand.network_degree + cand.servers_per_switch
        if ports > target.radix:
            return (
                "radix",
                f"needs {ports} ports/switch > radix {target.radix}",
            )
        if cand.servers < target.servers:
            return (
                "servers",
                f"hosts {cand.servers} servers < required {target.servers}",
            )
        cost = predicted_port_cost(
            cand.links, cand.servers, PORT_COSTS[target.port_cost]
        )
        if target.max_cost is not None and cost > target.max_cost:
            return (
                "cost",
                f"predicted ${cost:.0f} > budget ${target.max_cost:.0f}",
            )
        num_tors = cand.servers // cand.servers_per_switch
        active = _active_tors(num_tors, target.fraction)
        moore = moore_bound_mean_distance(active, cand.network_degree)
        consumed = cand.servers_per_switch * active * moore
        if consumed > 0:
            bound = min(
                1.0,
                target.per_server_demand * 2.0 * cand.links / consumed,
            )
            if bound < target.throughput_per_server - SLO_EPS:
                return (
                    "throughput_bound",
                    f"Moore-bound per-server ceiling {bound:.4f} < "
                    f"SLO {target.throughput_per_server}",
                )
        return None

    def _prune_structural(
        self,
        cand: CandidateDesign,
        target: DesignTarget,
        measured: Dict[str, Any],
    ) -> Optional[Tuple[str, str]]:
        """Built-topology rejection (still no LP): ``(reason, detail)``."""
        if measured["num_servers"] < target.servers:
            return (
                "servers",
                f"hosts {measured['num_servers']} servers < required "
                f"{target.servers}",
            )
        if (
            target.max_cost is not None
            and measured["cost"] > target.max_cost
        ):
            return (
                "cost",
                f"costs ${measured['cost']:.0f} > budget "
                f"${target.max_cost:.0f}",
            )
        if (
            target.min_expandability is not None
            and measured["expandability"] < target.min_expandability
        ):
            return (
                "expandability",
                f"score {measured['expandability']:.3f} < floor "
                f"{target.min_expandability}",
            )
        if measured["bound_per_server"] < target.throughput_per_server - SLO_EPS:
            return (
                "throughput_bound",
                f"capacity-bound ceiling {measured['bound_per_server']:.4f} "
                f"< SLO {target.throughput_per_server}",
            )
        return None

    # -- the staged search ---------------------------------------------
    def _search_core(
        self,
        target: DesignTarget,
        should_stop: Optional[Callable[[], bool]] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Tuple[List[EvaluatedDesign], List[PrunedCandidate], Dict[str, Any], bool]:
        """One full enumerate → prune → evaluate pass for one target."""
        with obs.span("design.enumerate"):
            candidates = enumerate_candidates(target)
        obs.add("design.candidates", len(candidates))

        pruned: List[PrunedCandidate] = []
        survivors: List[CandidateDesign] = []
        seen: set = set()
        with obs.span("design.prune", candidates=len(candidates)):
            for cand in candidates:
                if cand.spec_string in seen:
                    continue
                seen.add(cand.spec_string)
                verdict = self._prune_cheap(cand, target)
                if verdict is not None:
                    reason, detail = verdict
                    obs.add(f"design.pruned.{reason}")
                    pruned.append(
                        PrunedCandidate(
                            spec=cand.spec_string,
                            family=cand.family,
                            stage="cheap",
                            reason=reason,
                            detail=detail,
                        )
                    )
                else:
                    survivors.append(cand)

            # Cheapest-first: predicted cost, then spec for determinism.
            survivors.sort(
                key=lambda c: (
                    predicted_port_cost(
                        c.links, c.servers, PORT_COSTS[target.port_cost]
                    ),
                    c.spec_string,
                )
            )

            structural: List[Tuple[CandidateDesign, Dict[str, Any]]] = []
            for cand in survivors:
                measured = self._measure_structure(cand, target)
                verdict = self._prune_structural(cand, target, measured)
                if verdict is not None:
                    reason, detail = verdict
                    obs.add(f"design.pruned.{reason}")
                    pruned.append(
                        PrunedCandidate(
                            spec=cand.spec_string,
                            family=cand.family,
                            stage="structural",
                            reason=reason,
                            detail=detail,
                        )
                    )
                else:
                    structural.append((cand, measured))
        obs.add("design.pruned", len(pruned))

        evaluated: List[EvaluatedDesign] = []
        complete = True
        total = len(structural)
        for i, (cand, measured) in enumerate(structural):
            if should_stop is not None and should_stop():
                complete = False
                break
            if progress is not None:
                progress({"stage": "evaluate", "done": i, "total": total})
            lp = self._measure_lp(cand, target)
            meets_slo = (
                lp["status"] == "optimal"
                and lp["per_server"]
                >= target.throughput_per_server - SLO_EPS
            )
            retained: Optional[float] = None
            meets_resilience: Optional[bool] = None
            if target.resilience is not None and meets_slo:
                res = self._measure_resilience(cand, target)
                healthy = lp["per_server"]
                retained = (
                    round(res["per_server"] / healthy, 9) if healthy else 0.0
                )
                meets_resilience = (
                    res["status"] == "optimal"
                    and retained >= target.resilience.min_retained - SLO_EPS
                )
            meets = meets_slo and (meets_resilience is not False)
            evaluated.append(
                EvaluatedDesign(
                    spec=cand.spec_string,
                    family=cand.family,
                    switches=cand.switches,
                    links=cand.links,
                    servers=measured["num_servers"],
                    network_degree=cand.network_degree,
                    servers_per_switch=cand.servers_per_switch,
                    cost=measured["cost"],
                    expandability=measured["expandability"],
                    bound_per_server=measured["bound_per_server"],
                    per_server=lp["per_server"],
                    status=lp["status"],
                    iterations=lp["iterations"],
                    meets_slo=meets_slo,
                    retained=retained,
                    meets_resilience=meets_resilience,
                    meets=meets,
                )
            )
        if progress is not None and complete:
            progress({"stage": "evaluate", "done": total, "total": total})

        reasons: Dict[str, int] = {}
        for p in pruned:
            reasons[p.reason] = reasons.get(p.reason, 0) + 1
        counters = {
            "candidates": len(candidates),
            "pruned": len(pruned),
            "pruned_by_reason": {k: reasons[k] for k in sorted(reasons)},
            "lp_solves": len(evaluated)
            + sum(1 for e in evaluated if e.retained is not None),
            "evaluated": len(evaluated),
        }
        pruned.sort(key=lambda p: (p.family, p.spec))
        evaluated.sort(key=lambda e: (e.cost, e.spec))
        return evaluated, pruned, counters, complete

    def _best_cost(self, target: DesignTarget) -> Optional[float]:
        """Best feasible cost for a (perturbed) target; None if infeasible."""
        evaluated, _, _, _ = self._search_core(target)
        costs = [e.cost for e in evaluated if e.meets]
        return min(costs) if costs else None

    def _sensitivity(self, target: DesignTarget) -> List[Dict[str, Any]]:
        """One-parameter-at-a-time tornado rows, widest swing first."""
        rel = target.sensitivity_rel
        base = target.to_dict()
        rows: List[Dict[str, Any]] = []
        for param in SENSITIVITY_PARAMETERS:
            value = base[param]
            if isinstance(value, int):
                lo = max(1, round(value * (1 - rel)))
                hi = max(value + 1, round(value * (1 + rel)))
                if param == "radix":
                    lo = max(2, lo)
            else:
                lo = value * (1 - rel)
                hi = min(1.0, value * (1 + rel))
            with obs.span("design.sensitivity", parameter=param):
                low_cost = self._best_cost(
                    target.replace(sensitivity=False, **{param: lo})
                )
                high_cost = self._best_cost(
                    target.replace(sensitivity=False, **{param: hi})
                )
            swing = (
                round(abs(high_cost - low_cost), 6)
                if low_cost is not None and high_cost is not None
                else None
            )
            rows.append(
                {
                    "parameter": param,
                    "base": value,
                    "low": {"value": lo, "best_cost": low_cost},
                    "high": {"value": hi, "best_cost": high_cost},
                    "swing": swing,
                }
            )
        rows.sort(
            key=lambda r: (
                r["swing"] is None,
                -(r["swing"] or 0.0),
                r["parameter"],
            )
        )
        return rows

    def search(
        self,
        target: DesignTarget,
        should_stop: Optional[Callable[[], bool]] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> DesignReport:
        """The full inverse-design search for one target.

        ``should_stop`` is polled between LP evaluations (cooperative
        cancellation for async jobs; a stopped search returns a report
        with ``complete=False``).  ``progress`` receives
        ``{"stage", "done", "total"}`` dicts.
        """
        with obs.span("design.search", target=target.name or None):
            evaluated, pruned, counters, complete = self._search_core(
                target, should_stop=should_stop, progress=progress
            )
            sensitivity: List[Dict[str, Any]] = []
            if target.sensitivity and complete:
                sensitivity = self._sensitivity(target)
        return DesignReport.build(
            target=target,
            evaluated=evaluated,
            pruned=pruned,
            counters=counters,
            sensitivity=sensitivity,
            complete=complete,
        )


def design_search(target: DesignTarget, **kwargs: Any) -> DesignReport:
    """Run one search on a fresh :class:`DesignEngine` (CLI entry point)."""
    return DesignEngine().search(target, **kwargs)
