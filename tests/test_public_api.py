"""The public API surface: explicit ``__all__`` everywhere, and retired
names stay gone.

Every module under :mod:`repro` (except the ``__main__`` entry script)
must declare ``__all__``; every listed name must exist; and no public
non-module attribute may leak outside ``__all__``.  The deprecation
shims retired in 3.0.0 must not come back.
"""

import importlib
import pkgutil
import types

import pytest

import repro

DOCUMENTED_SUBPACKAGES = {
    "topologies", "traffic", "throughput", "sim", "flowsim", "perf",
    "cost", "analysis", "harness", "obs", "registry", "resilience",
    "solvers", "design", "api",
}


def _all_modules():
    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        mods.append(importlib.import_module(info.name))
    return mods


class TestAllDeclarations:
    def test_every_module_declares_all(self):
        missing = [m.__name__ for m in _all_modules()
                   if not hasattr(m, "__all__")]
        assert missing == []

    def test_every_exported_name_exists(self):
        broken = [
            f"{m.__name__}.{name}"
            for m in _all_modules()
            for name in m.__all__
            if not hasattr(m, name)
        ]
        assert broken == []

    def test_no_public_locally_defined_attrs_outside_all(self):
        """Functions/classes a module defines are either private or exported.

        Imported names (typing helpers, sibling re-exports) are not this
        module's surface; only objects whose ``__module__`` is the module
        itself count.
        """
        leaks = []
        for mod in _all_modules():
            exported = set(mod.__all__)
            for name, value in vars(mod).items():
                if name.startswith("_") or name in exported:
                    continue
                if not isinstance(value, (type, types.FunctionType)):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                leaks.append(f"{mod.__name__}.{name}")
        assert leaks == []


class TestTopLevelSurface:
    def test_import_repro_exposes_documented_surface(self):
        assert (
            DOCUMENTED_SUBPACKAGES | {"__version__", "SPEC_HASH_VERSION"}
            == set(repro.__all__)
        )
        for name in DOCUMENTED_SUBPACKAGES:
            assert isinstance(getattr(repro, name), types.ModuleType)

    def test_version_string(self):
        assert isinstance(repro.__version__, str)


#: ``(module, name)`` pairs removed in 3.0.0; the comments name the
#: replacements.
RETIRED = [
    ("repro.cli", "build_topology"),  # repro.registry.build_topology
    ("repro.harness", "build_topology"),  # repro.registry.topology
    ("repro.harness.execute", "build_topology"),  # repro.registry.topology
    ("repro.sim", "make_routing"),  # repro.registry.routing
    ("repro.sim.simulation", "make_routing"),  # repro.registry.routing
    ("repro.topologies", "fail_links"),  # Topology.degrade(FailureScenario(...))
    ("repro.topologies", "fail_switches"),  # Topology.degrade(FailureScenario(...))
    ("repro.topologies", "random_link_failures"),  # Topology.degrade("links:...")
    ("repro.topologies", "random_switch_failures"),  # Topology.degrade("switches:...")
    ("repro.topologies.failures", "fail_links"),
    ("repro.topologies.failures", "fail_switches"),
    ("repro.topologies.failures", "random_link_failures"),
    ("repro.topologies.failures", "random_switch_failures"),
    ("repro.topologies.failures", "_deprecated"),
    ("repro.flowsim", "max_min_allocation_reference"),  # test-only oracle
]


class TestRetiredNames:
    @pytest.mark.parametrize("module, name", RETIRED)
    def test_retired_name_is_gone(self, module, name):
        mod = importlib.import_module(module)
        assert not hasattr(mod, name)
        assert name not in mod.__all__

    def test_sim_telemetry_module_is_gone(self):
        # repro.obs.network_report is the replacement.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.telemetry")

    def test_engine_has_one_event_loop(self):
        from repro.sim import Engine

        assert not hasattr(Engine, "run_reference")
