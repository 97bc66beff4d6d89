"""Test-only reference for max-min fair allocation.

:func:`repro.flowsim.max_min_allocation` water-fills over numpy
``(arc, flow, multiplicity)`` triplets.  This module keeps the original
dict-of-dicts progressive filling it replaced, so the property tests can
assert bit-identical rates and the kernel bench can time one against
the other.
"""

from __future__ import annotations

from typing import Dict, Hashable, Sequence, Tuple

from repro.flowsim.fairshare import _SATURATION_EPS


def max_min_allocation_reference(
    flow_paths: Dict[Hashable, Sequence[Tuple[int, int]]],
    capacities: Dict[Tuple[int, int], float],
) -> Dict[Hashable, float]:
    """Reference progressive-filling implementation (pure Python).

    Semantics are documented on
    :func:`repro.flowsim.max_min_allocation`, which must produce
    identical rates.
    """
    rates: Dict[Hashable, float] = {}
    # Count per-arc usage multiplicity per flow.
    arc_flows: Dict[Tuple[int, int], Dict[Hashable, int]] = {}
    active: Dict[Hashable, bool] = {}
    for fid, path in flow_paths.items():
        if not path:
            rates[fid] = float("inf")
            continue
        rates[fid] = 0.0
        active[fid] = True
        for arc in path:
            if arc not in capacities:
                raise KeyError(f"flow {fid!r} uses unknown arc {arc}")
            arc_flows.setdefault(arc, {})
            arc_flows[arc][fid] = arc_flows[arc].get(fid, 0) + 1

    used: Dict[Tuple[int, int], float] = {a: 0.0 for a in arc_flows}

    while active:
        # Tightest link: smallest (headroom / active multiplicity).
        best_inc = None
        for arc, members in arc_flows.items():
            mult = sum(m for f, m in members.items() if f in active)
            if mult == 0:
                continue
            headroom = capacities[arc] - used[arc]
            inc = headroom / mult
            if best_inc is None or inc < best_inc:
                best_inc = inc
        if best_inc is None:
            break
        best_inc = max(best_inc, 0.0)

        # Raise every active flow by the increment.
        for fid in active:
            rates[fid] += best_inc
        for arc, members in arc_flows.items():
            mult = sum(m for f, m in members.items() if f in active)
            used[arc] += best_inc * mult

        # Freeze flows on (numerically) saturated arcs.
        newly_frozen = set()
        for arc, members in arc_flows.items():
            if used[arc] >= capacities[arc] - _SATURATION_EPS:
                for f in members:
                    if f in active:
                        newly_frozen.add(f)
        if not newly_frozen:
            break  # all remaining arcs have infinite headroom (defensive)
        for f in newly_frozen:
            del active[f]

    return rates
