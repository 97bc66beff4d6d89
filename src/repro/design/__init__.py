"""Inverse topology design: the cheapest network meeting a declarative SLO.

The rest of the library answers "how good is this topology?"; this
subsystem inverts the question.  A :class:`DesignTarget` declares what
the network must do (host N servers at a per-server throughput SLO
under longest-matching load, optionally retaining capacity under a
failure scenario and clearing an expandability floor) and the staged
search (:mod:`repro.design.search`) finds the minimum-cost design:
candidates are enumerated from per-family design spaces
(:data:`repro.registry.DESIGNS`), pruned with arithmetic and structural
bounds *before* any LP is solved, and survivors are evaluated through
the :data:`repro.registry.SOLVERS` backends.  The answer is a
:class:`DesignReport`: best design, Pareto frontier (cost vs. achieved
throughput), pruning counters, and a tornado sensitivity table.

Front ends: ``python -m repro design <target.json>``, ``POST
/v1/design`` (sync), ``kind: "design"`` jobs under ``/v1/jobs``
(async), and :meth:`repro.api.ReproClient.design`.  See
``docs/design-search.md``.
"""

from .report import DesignReport, EvaluatedDesign, PrunedCandidate
from .search import DesignEngine, design_search
from .space import (
    CandidateDesign,
    DesignSpace,
    enumerate_candidates,
    register_builtin_design_spaces,
)
from .target import (
    DesignError,
    DesignTarget,
    ResilienceTarget,
    design_target_schema,
)

__all__ = [
    "DesignError",
    "DesignTarget",
    "ResilienceTarget",
    "design_target_schema",
    "CandidateDesign",
    "DesignSpace",
    "enumerate_candidates",
    "register_builtin_design_spaces",
    "DesignEngine",
    "design_search",
    "DesignReport",
    "EvaluatedDesign",
    "PrunedCandidate",
]
