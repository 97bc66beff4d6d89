"""The /schema document must track the dataclass and the registries."""

import re

import pytest

from repro import registry
from repro.api import experiment_spec_schema
from repro.api.schema import SCHEMA_ID, solver_pattern
from repro.harness.spec import ENGINES, LEGACY_SOLVER_FIELDS, ExperimentSpec


def test_schema_properties_match_dataclass_fields():
    schema = experiment_spec_schema()
    assert set(schema["properties"]) == set(
        ExperimentSpec.__dataclass_fields__
    )
    assert schema["required"] == ["topology"]
    assert schema["additionalProperties"] is False
    assert schema["$id"] == SCHEMA_ID


def test_enums_are_read_from_live_registries():
    props = experiment_spec_schema()["properties"]
    assert props["topology"]["properties"]["family"]["enum"] == list(
        registry.TOPOLOGIES.available()
    )
    workload = props["workload"]["properties"]
    assert workload["pattern"]["enum"] == list(registry.TRAFFIC.available())
    assert workload["solver"]["pattern"] == solver_pattern()
    assert props["routing"]["enum"] == list(registry.ROUTINGS.available())
    assert props["engine"]["enum"] == list(ENGINES)


def test_nullable_fields_accept_null():
    props = experiment_spec_schema()["properties"]
    for name in ("server_link_rate_bps", "short_flow_bytes", "max_sim_time"):
        assert "null" in props[name]["type"], name
    assert "null" in props["failures"]["type"]


def test_schema_is_json_serializable():
    import json

    blob = json.dumps(experiment_spec_schema())
    assert "ExperimentSpec" in blob


@pytest.mark.parametrize("name", registry.SOLVERS.available())
def test_solver_pattern_takes_every_registry_name_with_or_without_knobs(name):
    """``solver`` is a spec string: every registry name matches, bare or
    with knobs, and the strings the front ends accept validate."""
    pattern = re.compile(
        experiment_spec_schema()["properties"]["workload"]["properties"]
        ["solver"]["pattern"]
    )
    assert pattern.match(name)
    assert pattern.match(f"{name}:k=4")
    assert pattern.match(f"{name}:mode=core,epsilon=0.1")


def test_solver_pattern_rejects_unknown_names():
    pattern = re.compile(solver_pattern())
    for spec in ("highs-bogus", "highs-paths-x:k=4", "paths:k", ":k=4",
                 "mcf", "exact:=1"):
        assert not pattern.match(spec), spec
    assert pattern.match("highs-paths:k=4")
    assert pattern.match("mcf-approx:epsilon=0.1")


def test_legacy_knob_fields_are_deprecated_aliases():
    workload = experiment_spec_schema()["properties"]["workload"]["properties"]
    legacy = {f for fields in LEGACY_SOLVER_FIELDS.values() for f in fields}
    assert {"k_paths", "epsilon"} <= legacy
    for field in legacy:
        assert workload[field]["deprecated"] is True, field
