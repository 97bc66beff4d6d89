"""The ``ExperimentSpec`` JSON schema served at ``GET /schema``.

Built *from* the dataclass and the registries rather than maintained by
hand: the property list is derived from
``ExperimentSpec.__dataclass_fields__`` (generation fails loudly if a
new spec field lacks a schema entry — see the guard in
:func:`experiment_spec_schema`), and every enumeration (topology
families, workload patterns, engines, routings, solver names) is read
from the live registries, so the schema can never drift from what the
validator actually accepts.  The lp ``solver`` is a solver spec string
(a registry name plus optional ``:knob=value`` knobs), so it is a
``pattern`` over the registry's names rather than an enum, and the
legacy knob fields (:data:`~repro.harness.spec.LEGACY_SOLVER_FIELDS`)
are listed as deprecated aliases.
"""

from __future__ import annotations

import re
from typing import Any, Dict

from ..harness.spec import ENGINES, LEGACY_SOLVER_FIELDS, ExperimentSpec

__all__ = ["experiment_spec_schema", "solver_pattern", "SCHEMA_ID"]

SCHEMA_ID = "repro/experiment-spec/2"

_KNOB = r"\s*[A-Za-z_][A-Za-z0-9_]*\s*=[^,]*"


def solver_pattern() -> str:
    """The ``pattern`` a workload ``solver`` spec string matches: a
    :data:`repro.registry.SOLVERS` name, then optional knobs
    (``"highs-paths:k=4"``, ``"mcf-approx:epsilon=0.1"``)."""
    from .. import registry

    names = "|".join(
        re.escape(name).replace("\\-", "-")
        for name in registry.SOLVERS.available()
    )
    return f"^(?:{names})(?::{_KNOB}(?:,{_KNOB})*)?$"


def _legacy_solver_fields() -> Dict[str, Dict[str, Any]]:
    """One deprecated entry per legacy workload knob field."""
    knobs: Dict[str, Dict[str, list]] = {}
    for solver, fields in LEGACY_SOLVER_FIELDS.items():
        for field, knob in fields.items():
            knobs.setdefault(field, {}).setdefault(knob, []).append(solver)
    return {
        field: {
            "deprecated": True,
            "description": "deprecated alias of the solver spec knob "
            + "; ".join(
                f"'{knob}' ({', '.join(solvers)})"
                for knob, solvers in by_knob.items()
            )
            + ": write it into 'solver' as '<name>:<knob>=<value>'",
        }
        for field, by_knob in knobs.items()
    }


def _number(description: str, **extra: Any) -> Dict[str, Any]:
    return {"type": "number", "description": description, **extra}


def _nullable(schema: Dict[str, Any]) -> Dict[str, Any]:
    out = dict(schema)
    out["type"] = [schema["type"], "null"]
    return out


def _field_schemas() -> Dict[str, Dict[str, Any]]:
    from .. import registry

    return {
        "topology": {
            "type": "object",
            "description": (
                "Topology spec: {'family': <name>, ...params}; parameter "
                "names mirror the CLI flags (see registry.TOPOLOGIES)."
            ),
            "required": ["family"],
            "properties": {
                "family": {
                    "type": "string",
                    "enum": list(registry.TOPOLOGIES.available()),
                }
            },
            "additionalProperties": True,
        },
        "workload": {
            "type": "object",
            "description": (
                "Pattern + sizing + load; see ExperimentSpec docs. "
                "Packet/flow engines need exactly one of 'load'/'rate'."
            ),
            "properties": {
                "pattern": {
                    "type": "string",
                    "enum": list(registry.TRAFFIC.available()),
                },
                "fraction": _number("server fraction in (0, 1]"),
                "theta": _number("skew pattern theta"),
                "phi": _number("skew pattern phi"),
                "take_first": {"type": "boolean"},
                "pattern_seed": {"type": "integer"},
                "sizes": {"type": "string", "enum": ["pfabric", "hull"]},
                "mean_flow_bytes": _number("mean flow size in bytes"),
                "cap_bytes": _number("hull size cap in bytes"),
                "load": _number("fraction of active-server capacity"),
                "rate": _number("aggregate flow arrivals per second"),
                "horizon": _number("workload generation horizon (s)"),
                "solver": {
                    "type": "string",
                    "description": (
                        "lp solver spec string: a registry.SOLVERS name "
                        "with optional knobs, e.g. 'highs-paths:k=4'"
                    ),
                    "pattern": solver_pattern(),
                },
                **_legacy_solver_fields(),
            },
            "additionalProperties": True,
        },
        "routing": {
            "type": "string",
            "description": "routing policy (packet: any; flow: ecmp/vlb/hyb)",
            "enum": list(registry.ROUTINGS.available()),
        },
        "engine": {"type": "string", "enum": list(ENGINES)},
        "seed": {"type": "integer", "description": "master seed"},
        "measure_start": _number("measurement window start (s)", minimum=0),
        "measure_end": _number("measurement window end (s)"),
        "link_rate_bps": _number("switch-switch link rate (bit/s)"),
        "server_link_rate_bps": _nullable(
            _number("server access link rate (bit/s); null = link_rate_bps")
        ),
        "hyb_threshold_bytes": {"type": "integer", "minimum": 0},
        "short_flow_bytes": _nullable(
            {"type": "integer", "description": "short-flow stats boundary"}
        ),
        "max_sim_time": _nullable(_number("hard simulated-time cap (s)")),
        "failures": {
            "type": ["string", "object", "null"],
            "description": (
                "failure scenario: compact string "
                "('links:fraction=0.08,seed=3') or mapping with a 'mode' "
                "key; null runs the healthy topology"
            ),
        },
        "name": {
            "type": "string",
            "description": "cosmetic label (excluded from the content hash)",
        },
    }


def experiment_spec_schema() -> Dict[str, Any]:
    """The JSON Schema for one :class:`ExperimentSpec` document."""
    properties = _field_schemas()
    fields = set(ExperimentSpec.__dataclass_fields__)
    missing = fields - set(properties)
    extra = set(properties) - fields
    if missing or extra:  # pragma: no cover - guards schema drift
        raise RuntimeError(
            f"schema out of sync with ExperimentSpec: missing={sorted(missing)} "
            f"extra={sorted(extra)}"
        )
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": SCHEMA_ID,
        "title": "ExperimentSpec",
        "description": (
            "One evaluation point: topology + workload + routing + engine. "
            "Content-hashed over every field except 'name'."
        ),
        "type": "object",
        "required": ["topology"],
        "properties": properties,
        "additionalProperties": False,
    }
