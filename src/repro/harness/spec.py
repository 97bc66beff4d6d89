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
import inspect
import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SpecError",
    "ExperimentSpec",
    "ENGINES",
    "LEGACY_SOLVER_FIELDS",
    "TOPOLOGY_FAMILIES",
    "WORKLOAD_PATTERNS",
    "expand_sweep",
    "load_sweep_file",
]


class SpecError(ValueError):
    """An experiment specification is malformed."""


ENGINES = ("packet", "flow", "lp")

from ..registry import SOLVERS, RegistryError, parse_spec, solver  # noqa: E402
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
        ``fraction``, ``pattern_seed``, ``warm`` and ``solver`` apply.
        ``solver`` is a :data:`repro.registry.SOLVERS` spec string:
        a name (``exact``, the default) optionally with knobs, as in
        ``"highs-paths:k=4"``.  The legacy knob fields ``k_paths`` /
        ``epsilon`` / ``solver_mode`` / ``max_rounds`` are still
        accepted and fold into that string (see
        :data:`LEGACY_SOLVER_FIELDS` and :meth:`solver_spec`).  Points
        selecting a batching-capable solver on a shared topology are
        solved through one batch by the Runner.
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
            if pattern != "longest_matching":
                raise SpecError(
                    f"pattern {pattern!r} needs a packet or flow engine; "
                    "the lp engine solves longest_matching TMs only"
                )
            # Build the solver once, so bad knobs fail here, not in a run.
            text = self.solver_spec()
            try:
                solver(text)
            except ValueError as exc:
                raise SpecError(
                    f"bad lp solver {text!r}: {exc}; "
                    f"{_knob_help(text.partition(':')[0])}"
                ) from exc
        else:
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

    def solver_spec(self) -> str:
        """The lp solver spec string, legacy fields folded in, knobs sorted.

        ``{"solver": "paths", "k_paths": 4}`` gives ``"paths:k=4"``.
        Raises :class:`SpecError` on an unknown solver, a legacy field
        the solver does not take, or a knob set both ways.
        """
        raw = self.workload.get("solver", "exact")
        try:
            name, knobs = parse_spec(raw, key="name")
        except RegistryError as exc:
            raise SpecError(f"bad lp solver {raw!r}: {exc}") from exc
        if name not in SOLVERS:
            raise SpecError(
                f"unknown lp solver {name!r}; valid solvers: {SOLVERS.available()}"
            )
        for fld in ("k_paths", "epsilon", "solver_mode", "max_rounds"):
            if fld not in self.workload:
                continue
            knob = LEGACY_SOLVER_FIELDS.get(name, {}).get(fld)
            if knob is None:
                raise SpecError(
                    f"workload field {fld!r} does not apply to lp solver "
                    f"{name!r}; {_knob_help(name)}"
                )
            if knob in knobs:
                raise SpecError(
                    f"lp solver knob {knob!r} is set twice: in solver "
                    f"{raw!r} and as workload field {fld!r}"
                )
            knobs[knob] = self.workload[fld]
        if not knobs:
            return name
        return name + ":" + ",".join(f"{k}={json.dumps(v)}" for k, v in sorted(knobs.items()))

    @property
    def label(self) -> str:
        """A human-readable identifier for progress and tables."""
        return self.name or self.content_hash()[:10]


#: The legacy lp workload fields and the solver knob each folds into,
#: per solver: ``{"solver": "paths", "k_paths": 4}`` runs ``"paths:k=4"``.
#: A legacy field on a solver without an entry for it (``exact`` and
#: ``highs-exact`` take none) is a SpecError.
LEGACY_SOLVER_FIELDS: Dict[str, Dict[str, str]] = {
    "highs-incremental": {"solver_mode": "mode"},
    "highs-batched": {"solver_mode": "mode"},
    "highs-colgen": {"k_paths": "k", "max_rounds": "max_rounds", "solver_mode": "mode"},
    "highs-paths": {"k_paths": "k"},
    "paths": {"k_paths": "k"},
    "mcf-approx": {"epsilon": "epsilon"},
}


def _knob_help(name: str) -> str:
    """``"lp solver 'paths' knobs: k"``, read off the solver's factory."""
    params = inspect.signature(SOLVERS.get(name)).parameters.values()
    knobs = ", ".join(p.name for p in params if p.kind is not p.VAR_KEYWORD)
    return f"lp solver {name!r} " + (f"knobs: {knobs}" if knobs else "takes no knobs")


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
