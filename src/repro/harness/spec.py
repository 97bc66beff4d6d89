"""Declarative experiment specifications for the sweep harness.

An :class:`ExperimentSpec` is a JSON-serializable description of one
evaluation point — topology family + parameters, workload, routing,
load, seed, and which engine evaluates it (``packet`` | ``flow`` |
``lp``).  Specs have a *stable content hash* over their semantic fields
(the cosmetic ``name`` label is excluded), which is what makes
content-addressed result caching sound: two specs that would run the
same experiment hash identically, and any parameter change produces a
new hash.

A *sweep file* is a JSON document describing many specs at once::

    {
      "defaults": {"topology": {"family": "fattree", "k": 4},
                   "engine": "packet",
                   "workload": {"pattern": "permute", "fraction": 0.5,
                                "sizes": "pfabric", "mean_flow_bytes": 200000,
                                "load": 0.3}},
      "grid": {"routing": ["ecmp", "hyb"],
               "workload.fraction": [0.2, 0.6, 1.0]},
      "points": [{"name": "extra", "routing": "vlb"}]
    }

``grid`` expands to the cartesian product of its (dotted-key) value
lists applied over ``defaults``; ``points`` are explicit per-point
overrides deep-merged over ``defaults``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SpecError",
    "ExperimentSpec",
    "ENGINES",
    "TOPOLOGY_FAMILIES",
    "WORKLOAD_PATTERNS",
    "expand_sweep",
    "load_sweep_file",
]


class SpecError(ValueError):
    """An experiment specification is malformed."""


ENGINES = ("packet", "flow", "lp")

from ..registry import TOPOLOGIES as _TOPOLOGIES  # noqa: E402
from ..registry import TRAFFIC as _TRAFFIC  # noqa: E402

#: Topology families the harness can build (parameter names mirror the
#: CLI); sourced from :data:`repro.registry.TOPOLOGIES`.
TOPOLOGY_FAMILIES = _TOPOLOGIES.available()

#: Pair-distribution / TM patterns understood by the workload builder;
#: sourced from :data:`repro.registry.TRAFFIC`.
WORKLOAD_PATTERNS = _TRAFFIC.available()


@dataclass
class ExperimentSpec:
    """One evaluation point of a sweep.

    Parameters
    ----------
    topology:
        ``{"family": <TOPOLOGY_FAMILIES>, ...params}``.  Parameter names
        mirror the CLI: ``k``/``core_fraction`` (fattree), ``switches``/
        ``degree``/``servers`` (jellyfish), ``degree``/``lift``/
        ``servers`` (xpander), ``q`` (slimfly), ``n`` (longhop), plus
        ``seed`` where the constructor takes one.
    workload:
        Pattern + sizing.  ``pattern`` is one of
        :data:`WORKLOAD_PATTERNS`; ``fraction``/``theta``/``phi``/
        ``take_first``/``pattern_seed`` parameterize the pair
        distribution; ``sizes`` (``pfabric`` | ``hull``) with
        ``mean_flow_bytes`` (and ``cap_bytes`` for hull) pick flow
        sizes.  Load is either ``rate`` (flow arrivals/s, aggregate) or
        ``load`` (fraction of the active servers' access capacity).
        For the ``lp`` engine only ``pattern`` (``longest_matching``),
        ``fraction``, and optionally ``solver``/``k_paths``/``epsilon``
        apply.  ``solver`` is any :data:`repro.registry.SOLVERS` name
        (``exact`` — the default — / ``highs-exact`` /
        ``highs-batched`` / ``paths`` / ``highs-paths`` /
        ``mcf-approx``); ``k_paths`` parameterizes the paths backends
        and ``epsilon`` the approximation.  Points selecting a
        batching-capable solver on a shared topology are solved through
        one ``solve_many`` batch by the Runner.
    routing:
        Routing policy name (packet engine: any ``registry.ROUTINGS`` name;
        flow engine: ``ecmp``/``vlb``/``hyb``).  Ignored by ``lp``.
    engine:
        ``packet`` (discrete-event), ``flow`` (fluid max-min), or
        ``lp`` (throughput LP).
    seed:
        Master seed: workload generation, routing, and TM construction.
    failures:
        Optional failure scenario applied to the topology before the
        engine runs: a :data:`repro.registry.FAILURES` spec — compact
        string (``"links:fraction=0.08,seed=3"``) or mapping with a
        ``mode`` key.  ``None`` (the default) runs the healthy topology
        and is excluded from the content hash, so healthy specs keep
        their historical hashes.
    """

    topology: Dict[str, Any]
    workload: Dict[str, Any] = field(default_factory=dict)
    routing: str = "ecmp"
    engine: str = "packet"
    seed: int = 0
    measure_start: float = 0.02
    measure_end: float = 0.06
    link_rate_bps: float = 1e9
    server_link_rate_bps: Optional[float] = 1e9
    hyb_threshold_bytes: int = 100_000
    short_flow_bytes: Optional[int] = None
    max_sim_time: Optional[float] = None
    failures: Any = None
    name: str = ""

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise SpecError(
                f"unknown spec fields {sorted(unknown)}; "
                f"valid fields: {sorted(known)}"
            )
        spec = cls(**dict(data))
        spec.validate()
        return spec

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, Any]:
        """The semantic payload hashed for caching (excludes ``name``)."""
        data = self.to_dict()
        data.pop("name", None)
        if data.get("failures") is None:
            data.pop("failures", None)
        return data

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON encoding.

        The algorithm is identified by
        :data:`repro.version.SPEC_HASH_VERSION`; bump that constant if
        the canonicalization or digest here ever changes.
        """
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SpecError` on any structurally invalid field."""
        if self.engine not in ENGINES:
            raise SpecError(
                f"unknown engine {self.engine!r}; valid engines: {ENGINES}"
            )
        if not isinstance(self.topology, Mapping) or "family" not in self.topology:
            raise SpecError("topology must be a mapping with a 'family' key")
        family = self.topology["family"]
        if family not in TOPOLOGY_FAMILIES:
            raise SpecError(
                f"unknown topology family {family!r}; "
                f"valid families: {TOPOLOGY_FAMILIES}"
            )
        if not isinstance(self.workload, Mapping):
            raise SpecError("workload must be a mapping")
        pattern = self.workload.get(
            "pattern", "longest_matching" if self.engine == "lp" else "permute"
        )
        if pattern not in WORKLOAD_PATTERNS:
            raise SpecError(
                f"unknown workload pattern {pattern!r}; "
                f"valid patterns: {WORKLOAD_PATTERNS}"
            )
        if self.engine == "lp":
            from ..registry import SOLVERS

            solver_name = self.workload.get("solver", "exact")
            if solver_name not in SOLVERS:
                raise SpecError(
                    f"unknown lp solver {solver_name!r}; "
                    f"valid solvers: {SOLVERS.available()}"
                )
        if self.engine != "lp":
            if pattern == "longest_matching":
                raise SpecError(
                    "pattern 'longest_matching' is a fluid TM; use it with "
                    "engine='lp'"
                )
            has_load = self.workload.get("load") is not None
            has_rate = self.workload.get("rate") is not None
            if has_load == has_rate:
                raise SpecError(
                    "workload needs exactly one of 'load' (fraction of "
                    "active-server capacity) or 'rate' (flow arrivals/s)"
                )
            if not self.measure_end > self.measure_start >= 0:
                raise SpecError(
                    "need measure_end > measure_start >= 0, got "
                    f"[{self.measure_start}, {self.measure_end})"
                )
        if not isinstance(self.seed, int):
            raise SpecError(f"seed must be an int, got {self.seed!r}")
        if self.failures is not None:
            from ..registry import failure

            try:
                scenario = failure(self.failures)
            except (ValueError, TypeError) as exc:
                raise SpecError(f"bad failures spec: {exc}") from exc
            # Normalize to the JSON spec form so string and mapping
            # inputs hash identically and records stay serializable.
            self.failures = scenario.to_spec()
        from ..sim.simulation import ROUTING_CHOICES

        if self.engine == "packet" and self.routing not in ROUTING_CHOICES:
            raise SpecError(
                f"unknown routing {self.routing!r}; "
                f"valid choices: {ROUTING_CHOICES}"
            )
        if self.engine == "flow" and self.routing not in ("ecmp", "vlb", "hyb"):
            raise SpecError(
                f"flow engine supports ecmp/vlb/hyb, got {self.routing!r}"
            )

    @property
    def label(self) -> str:
        """A human-readable identifier for progress and tables."""
        return self.name or self.content_hash()[:10]


# ----------------------------------------------------------------------
# Sweep files: defaults + grid expansion + explicit points
# ----------------------------------------------------------------------
def _deep_merge(base: Mapping[str, Any], override: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge ``override`` into ``base``; a JSON null removes the key."""
    out: Dict[str, Any] = {k: v for k, v in base.items()}
    for key, value in override.items():
        if value is None:
            out.pop(key, None)
        elif (
            key in out
            and isinstance(out[key], Mapping)
            and isinstance(value, Mapping)
        ):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _set_dotted(data: Dict[str, Any], dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def expand_sweep(doc: Mapping[str, Any]) -> List[ExperimentSpec]:
    """Expand a sweep document into a flat list of validated specs."""
    if not isinstance(doc, Mapping):
        raise SpecError("sweep document must be a JSON object")
    unknown = set(doc) - {"defaults", "grid", "points"}
    if unknown:
        raise SpecError(
            f"unknown sweep sections {sorted(unknown)}; "
            "valid sections: defaults, grid, points"
        )
    defaults = doc.get("defaults", {})
    grid = doc.get("grid", {})
    points: Sequence[Mapping[str, Any]] = doc.get("points", [])
    specs: List[ExperimentSpec] = []

    if grid:
        keys = list(grid.keys())
        for combo in itertools.product(*(grid[k] for k in keys)):
            data = json.loads(json.dumps(defaults))  # deep copy
            for key, value in zip(keys, combo):
                _set_dotted(data, key, value)
            if not data.get("name"):
                data["name"] = ",".join(
                    f"{k.split('.')[-1]}={v}" for k, v in zip(keys, combo)
                )
            specs.append(ExperimentSpec.from_dict(data))
    for i, point in enumerate(points):
        data = _deep_merge(defaults, point)
        if not data.get("name"):
            data["name"] = f"point-{i}"
        specs.append(ExperimentSpec.from_dict(data))
    if not grid and not points:
        specs.append(ExperimentSpec.from_dict(dict(defaults)))
    return specs


def load_sweep_file(path: str) -> List[ExperimentSpec]:
    """Load and expand a sweep JSON file.

    The file holds either a sweep document (``defaults``/``grid``/
    ``points``), a bare list of spec objects, or a single spec object.
    """
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, list):
        return [ExperimentSpec.from_dict(d) for d in doc]
    if isinstance(doc, Mapping) and (
        "defaults" in doc or "grid" in doc or "points" in doc
    ):
        return expand_sweep(doc)
    if isinstance(doc, Mapping):
        return [ExperimentSpec.from_dict(doc)]
    raise SpecError(f"cannot interpret sweep file {path!r}")
