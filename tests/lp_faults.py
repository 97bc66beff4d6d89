"""Fault injection for cold LP solves.

Every cold LP solve in the library goes through
:func:`repro.throughput.highs.solve_cold`, so replacing that one
function injects a failure (or a pause) into ``highs-exact``,
``highs-paths``, the edge-LP contexts and colgen's cold masters alike.
"""

from repro.throughput import highs
from repro.throughput.errors import raise_for_linprog


def fail_cold_solves(monkeypatch, res):
    """Make every cold solve fail as ``linprog`` fails on result ``res``
    (an object with ``status``/``success``/``x``/``message``/``nit``)."""

    def failing(cost, matrix, caps, *, formulation, context=None):
        raise_for_linprog(res, formulation=formulation, context=context)
        raise AssertionError(f"not a failed linprog result: {res!r}")

    monkeypatch.setattr(highs, "solve_cold", failing)
