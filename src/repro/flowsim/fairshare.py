"""Max-min fair bandwidth allocation via progressive filling.

Given a set of flows, each pinned to a directed path over capacitated
arcs, compute the max-min fair rate vector: all flow rates rise together
until a link saturates, flows crossing saturated links freeze, and the
rest continue — the classic water-filling algorithm.  This is the rate
model underlying the flow-level simulator.

:func:`max_min_allocation` is vectorized: the flows' arc traversals
become ``(arc, flow, multiplicity)`` triplets in three numpy arrays (a
VLB detour crossing an arc twice consumes double there), and each
water-filling round is a handful of numpy operations: one
``np.bincount`` for the per-arc live multiplicities, a vectorized
headroom division, and a gather that freezes the flows on saturated
arcs and drops their entries.  Rates are bit-identical to the original
dict-of-dicts progressive filling, kept in
``tests/flowsim/fairshare_reference.py`` as the equivalence oracle for
the property tests and the baseline of the perf bench (multiplicities
are small exact integers, and a frozen flow's rate is the same running
sum of per-round increments).

:class:`FairShareState` is the incremental companion used by the
flow-level simulator: it interns each flow's arcs into integer ids once
at arrival instead of re-hashing every path dict on every
arrival/departure event, and re-runs only the vectorized water-fill.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "max_min_allocation",
    "FairShareState",
]

#: Numerical slack under which an arc counts as saturated.
_SATURATION_EPS = 1e-12


def _waterfill(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    caps: np.ndarray,
    num_flows: int,
) -> Tuple[np.ndarray, int]:
    """Progressive filling over ``(arc, flow, multiplicity)`` triplets.

    Entry ``i`` says flow ``cols[i]`` crosses arc ``rows[i]``
    ``vals[i]`` times.  Each round sums the live entries per arc with
    one ``bincount``, raises the water level to the tightest arc's
    headroom, freezes every flow on a saturated arc at that level and
    drops its entries, so later rounds touch only live flows.  Returns
    the max-min rate per flow and the number of filling rounds executed
    (one saturation level per round).
    """
    rates = np.zeros(num_flows)
    rounds = 0
    num_arcs = caps.size
    used = np.zeros(num_arcs)
    full = caps - _SATURATION_EPS
    frozen = np.zeros(num_flows, dtype=bool)
    # The level is the running sum of the round increments: the same
    # float additions as raising every live rate each round, so a flow
    # frozen at round k gets exactly the rate it would have accumulated.
    level = 0.0
    while rows.size:
        # Exact: multiplicities are small integers.
        mult = np.bincount(rows, weights=vals, minlength=num_arcs)
        contended = mult > 0
        rounds += 1
        inc = (caps - used)[contended] / mult[contended]
        best_inc = max(float(inc.min()), 0.0)
        level += best_inc
        used += best_inc * mult

        newly = cols[(used >= full)[rows]]
        if not newly.size:
            break  # all remaining arcs have infinite headroom (defensive)
        rates[newly] = level
        frozen[newly] = True
        live = ~frozen[cols]
        rows, cols, vals = rows[live], cols[live], vals[live]
    rates[cols] = level  # flows still live after a defensive break
    return rates, rounds


def max_min_allocation(
    flow_paths: Dict[Hashable, Sequence[Tuple[int, int]]],
    capacities: Dict[Tuple[int, int], float],
) -> Dict[Hashable, float]:
    """Max-min fair rates for flows pinned to arc paths (vectorized).

    Parameters
    ----------
    flow_paths:
        Mapping of flow id to its sequence of directed arcs ``(u, v)``.
        A flow traversing an arc twice (possible under VLB detours)
        consumes capacity twice there.
    capacities:
        Capacity of every directed arc the flows may use.

    Returns
    -------
    Mapping of flow id to its max-min fair rate (same units as capacity).
    Flows with empty paths (same-switch endpoints) get infinite rate.
    """
    rates: Dict[Hashable, float] = {}
    arc_ids: Dict[Tuple[int, int], int] = {}
    caps_list: List[float] = []
    rows: List[int] = []
    cols: List[int] = []
    flow_order: List[Hashable] = []
    for fid, path in flow_paths.items():
        if not path:
            rates[fid] = float("inf")
            continue
        col = len(flow_order)
        flow_order.append(fid)
        for arc in path:
            aid = arc_ids.get(arc)
            if aid is None:
                if arc not in capacities:
                    raise KeyError(f"flow {fid!r} uses unknown arc {arc}")
                aid = arc_ids[arc] = len(caps_list)
                caps_list.append(capacities[arc])
            rows.append(aid)
            cols.append(col)

    flow_rates, _ = _waterfill(
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.ones(len(rows)),
        np.asarray(caps_list, dtype=float),
        len(flow_order),
    )
    rates.update(zip(flow_order, flow_rates.tolist()))
    return rates


class FairShareState:
    """Incremental max-min fair allocation over a changing flow set.

    The flow-level simulator recomputes rates at every flow arrival and
    departure; rebuilding the ``{flow: path}`` dict and re-hashing every
    arc tuple per event dominates at high concurrency.  This state
    interns each flow's arcs into integer ids **once** (at
    :meth:`add_flow`) and keeps each flow's ``(arc id, multiplicity)``
    arrays; each :meth:`rates` call concatenates them into triplets and
    runs the vectorized water-fill.

    Rates are identical to calling :func:`max_min_allocation` on the
    current ``{flow: path}`` snapshot.

    The state also keeps two cheap work accumulators the flow simulator
    flushes onto the observability sink: :attr:`recomputes` (number of
    :meth:`rates` calls) and :attr:`waterfill_rounds` (total filling
    rounds across them).
    """

    def __init__(self, capacities: Mapping[Tuple[int, int], float]) -> None:
        self._capacities = capacities
        self._arc_ids: Dict[Tuple[int, int], int] = {}
        self._caps: List[float] = []
        # fid -> (arc-id array, multiplicity array); empty-path flows
        # are tracked separately with infinite rate.
        self._flows: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}
        self._infinite: Dict[Hashable, None] = {}
        self.recomputes = 0
        self.waterfill_rounds = 0

    def __len__(self) -> int:
        return len(self._flows) + len(self._infinite)

    def add_flow(
        self, fid: Hashable, path: Sequence[Tuple[int, int]]
    ) -> None:
        """Register a flow's path (interning its arcs to integer ids)."""
        if fid in self._flows or fid in self._infinite:
            raise ValueError(f"flow {fid!r} already active")
        if not path:
            self._infinite[fid] = None
            return
        counts: Dict[int, int] = {}
        for arc in path:
            aid = self._arc_ids.get(arc)
            if aid is None:
                if arc not in self._capacities:
                    raise KeyError(f"flow {fid!r} uses unknown arc {arc}")
                aid = self._arc_ids[arc] = len(self._caps)
                self._caps.append(self._capacities[arc])
            counts[aid] = counts.get(aid, 0) + 1
        self._flows[fid] = (
            np.fromiter(counts.keys(), dtype=np.intp, count=len(counts)),
            np.fromiter(counts.values(), dtype=float, count=len(counts)),
        )

    def remove_flow(self, fid: Hashable) -> None:
        """Drop a departed flow."""
        if fid in self._flows:
            del self._flows[fid]
        elif fid in self._infinite:
            del self._infinite[fid]
        else:
            raise KeyError(f"flow {fid!r} is not active")

    def rates(self) -> Dict[Hashable, float]:
        """Max-min fair rates of the currently active flows."""
        self.recomputes += 1
        rates: Dict[Hashable, float] = {
            fid: float("inf") for fid in self._infinite
        }
        num_flows = len(self._flows)
        if num_flows == 0:
            return rates
        arcs_per_flow = [a for a, _ in self._flows.values()]
        rows = np.concatenate(arcs_per_flow)
        vals = np.concatenate([v for _, v in self._flows.values()])
        cols = np.repeat(
            np.arange(num_flows, dtype=np.intp),
            [a.size for a in arcs_per_flow],
        )
        flow_rates, rounds = _waterfill(
            rows, cols, vals, np.asarray(self._caps, dtype=float), num_flows
        )
        self.waterfill_rounds += rounds
        rates.update(zip(self._flows, flow_rates.tolist()))
        return rates
