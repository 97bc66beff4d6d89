"""Fault injection for LP solves.

Every LP solve in the library apart from colgen's live model goes
through :func:`repro.throughput.highs.solve`, so replacing that one
function injects a failure (or a pause) into ``highs-exact``,
``highs-paths``, the edge-LP contexts (cold and warm) and colgen's cold
masters alike.
"""

from repro.throughput import highs
from repro.throughput.errors import raise_for_linprog


def _fail(res, formulation, context):
    raise_for_linprog(res, formulation=formulation, context=context)
    raise AssertionError(f"not a failed linprog result: {res!r}")


def fail_solves(monkeypatch, res):
    """Make every solve fail as ``linprog`` fails on result ``res`` (an
    object with ``status``/``success``/``x``/``message``/``nit``)."""

    def failing(cost, matrix, caps, *, formulation, context=None, basis=None):
        _fail(res, formulation, context)

    monkeypatch.setattr(highs, "solve", failing)


def fail_warm_solves(monkeypatch, res):
    """Make every solve started from a stored basis fail as ``linprog``
    fails on ``res``; cold solves run for real.  Returns the list of
    ``basis is not None`` flags, one per solve, in call order."""
    real = highs.solve
    calls = []

    def failing(cost, matrix, caps, *, formulation, context=None, basis=None):
        calls.append(basis is not None)
        if basis is not None:
            _fail(res, formulation, context)
        return real(
            cost, matrix, caps, formulation=formulation, context=context,
        )

    monkeypatch.setattr(highs, "solve", failing)
    return calls
