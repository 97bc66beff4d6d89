"""Spec serialization, content hashing, validation, and sweep expansion."""

import json

import pytest

from repro.harness import ExperimentSpec, SpecError, expand_sweep, load_sweep_file


def packet_spec(**over):
    base = dict(
        topology={"family": "fattree", "k": 4},
        workload={"pattern": "permute", "fraction": 0.5, "load": 0.3},
        routing="ecmp",
        engine="packet",
        seed=0,
    )
    base.update(over)
    return ExperimentSpec(**base)


class TestContentHash:
    def test_stable_across_instances(self):
        assert packet_spec().content_hash() == packet_spec().content_hash()

    def test_name_is_cosmetic(self):
        assert (
            packet_spec(name="a").content_hash()
            == packet_spec(name="b").content_hash()
        )
        assert "name" not in packet_spec(name="a").canonical()

    def test_any_semantic_change_alters_hash(self):
        base = packet_spec().content_hash()
        assert packet_spec(seed=1).content_hash() != base
        assert packet_spec(routing="hyb").content_hash() != base
        assert (
            packet_spec(topology={"family": "fattree", "k": 6}).content_hash()
            != base
        )
        assert (
            packet_spec(
                workload={"pattern": "permute", "fraction": 0.6, "load": 0.3}
            ).content_hash()
            != base
        )

    def test_hash_ignores_dict_insertion_order(self):
        a = packet_spec(workload={"pattern": "a2a", "load": 0.3, "fraction": 1.0})
        b = packet_spec(workload={"fraction": 1.0, "load": 0.3, "pattern": "a2a"})
        assert a.content_hash() == b.content_hash()


class TestSerialization:
    def test_round_trip(self):
        spec = packet_spec(name="rt")
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_unknown_field_rejected(self):
        data = packet_spec().to_dict()
        data["typo_field"] = 1
        with pytest.raises(SpecError, match="typo_field"):
            ExperimentSpec.from_dict(data)

    def test_label_falls_back_to_hash_prefix(self):
        spec = packet_spec()
        assert spec.label == spec.content_hash()[:10]
        assert packet_spec(name="fig10").label == "fig10"


class TestValidation:
    def test_unknown_engine(self):
        with pytest.raises(SpecError, match="engine"):
            packet_spec(engine="quantum").validate()

    def test_topology_needs_family(self):
        with pytest.raises(SpecError, match="family"):
            packet_spec(topology={"k": 4}).validate()

    def test_unknown_family(self):
        with pytest.raises(SpecError, match="torus"):
            packet_spec(topology={"family": "torus"}).validate()

    def test_unknown_pattern(self):
        with pytest.raises(SpecError, match="pattern"):
            packet_spec(
                workload={"pattern": "bursty", "load": 0.3}
            ).validate()

    def test_longest_matching_requires_lp(self):
        with pytest.raises(SpecError, match="lp"):
            packet_spec(
                workload={"pattern": "longest_matching", "load": 0.3}
            ).validate()

    def test_load_and_rate_mutually_exclusive(self):
        with pytest.raises(SpecError, match="exactly one"):
            packet_spec(
                workload={"pattern": "a2a", "load": 0.3, "rate": 100.0}
            ).validate()
        with pytest.raises(SpecError, match="exactly one"):
            packet_spec(workload={"pattern": "a2a"}).validate()

    def test_measure_window_ordering(self):
        with pytest.raises(SpecError, match="measure_end"):
            packet_spec(measure_start=0.06, measure_end=0.02).validate()

    def test_unknown_routing(self):
        with pytest.raises(SpecError, match="warp"):
            packet_spec(routing="warp").validate()

    def test_flow_engine_routing_subset(self):
        with pytest.raises(SpecError, match="flow engine"):
            packet_spec(engine="flow", routing="ksp").validate()

    def test_lp_spec_needs_no_load(self):
        spec = ExperimentSpec(
            topology={"family": "jellyfish", "switches": 8, "degree": 3,
                      "servers": 1},
            workload={"pattern": "longest_matching", "fraction": 0.5},
            engine="lp",
        )
        spec.validate()  # must not raise

    @pytest.mark.parametrize("pattern", ["permute", "a2a", "bogus"])
    def test_lp_spec_accepts_only_longest_matching(self, pattern):
        # The lp engine always builds a longest-matching TM, so any other
        # pattern would be silently ignored (and hash differently).
        spec = ExperimentSpec(
            topology={"family": "jellyfish", "switches": 8, "degree": 3,
                      "servers": 1},
            workload={"pattern": pattern, "fraction": 0.5},
            engine="lp",
        )
        with pytest.raises(SpecError, match="pattern"):
            spec.validate()
        spec.workload.pop("pattern")
        spec.validate()  # the default is longest_matching


def lp_spec(**workload):
    return ExperimentSpec(
        topology={"family": "jellyfish", "switches": 8, "degree": 3,
                  "servers": 1},
        workload={"pattern": "longest_matching", **workload},
        engine="lp",
    )


class TestSolverSpec:
    """Solver knobs live in the solver spec string; the legacy workload
    fields fold into it, and bad knobs fail at validate()."""

    @pytest.mark.parametrize(
        "workload, expected",
        [
            ({}, "exact"),
            ({"solver": "highs-paths:k=4"}, "highs-paths:k=4"),
            ({"solver": "paths", "k_paths": 4}, "paths:k=4"),
            ({"solver": "mcf-approx", "epsilon": 0.1}, "mcf-approx:epsilon=0.1"),
            ({"solver": "highs-batched", "solver_mode": "core"},
             'highs-batched:mode="core"'),
            ({"solver": "highs-colgen:passes=2", "k_paths": 3,
              "max_rounds": 50},
             "highs-colgen:k=3,max_rounds=50,passes=2"),
        ],
    )
    def test_legacy_fields_fold_into_the_string(self, workload, expected):
        spec = lp_spec(**workload)
        spec.validate()
        assert spec.solver_spec() == expected

    def test_folding_keeps_the_spec_as_written(self):
        spec = lp_spec(solver="paths", k_paths=4)
        before = spec.content_hash()
        spec.validate()
        assert spec.workload == {"pattern": "longest_matching",
                                 "solver": "paths", "k_paths": 4}
        assert spec.content_hash() == before

    @pytest.mark.parametrize(
        "workload, match",
        [
            # A bad knob value used to validate, then fail (and be
            # retried) as a plain ValueError inside the run.
            ({"solver": "highs-paths", "k_paths": 2.5},
             r"k must be an integer.*'highs-paths' knobs: k"),
            ({"solver": "highs-paths:k=0"}, r"'highs-paths' knobs: k"),
            ({"solver": "mcf-approx:epsilon=0.9"},
             r"epsilon must be in.*'mcf-approx' knobs: epsilon"),
            ({"solver": "highs-colgen:depth=3"},
             r"depth.*'highs-colgen' knobs: k, phases, passes, "
             r"max_rounds, mode"),
            # A legacy field the solver does not take used to be ignored.
            ({"solver": "highs-exact", "epsilon": 0.1},
             r"'epsilon' does not apply.*'highs-exact' takes no knobs"),
            ({"solver": "mcf-approx", "k_paths": 3},
             r"'k_paths' does not apply.*'mcf-approx' knobs: epsilon"),
            ({"solver": "paths", "solver_mode": "core"},
             r"'solver_mode' does not apply.*'paths' knobs: k"),
            # One knob, two places.
            ({"solver": "highs-paths:k=4", "k_paths": 4},
             r"'k' is set twice"),
            ({"solver": "bogus"}, r"unknown lp solver 'bogus'"),
            ({"solver": "highs-paths:k"}, r"malformed parameter"),
        ],
    )
    def test_bad_solver_knobs_fail_at_validate(self, workload, match):
        with pytest.raises(SpecError, match=match):
            lp_spec(**workload).validate()

    def test_bad_knob_is_a_fatal_failure_record(self):
        from repro.harness import Runner

        spec = lp_spec(solver="highs-paths", k_paths=2.5)
        record = Runner(jobs=1, retries=2).run([spec]).records[0]
        assert record.status == "failed"
        assert record.attempts == 1
        assert "knobs: k" in record.error


#: The content hashes of every spec in the committed sweep files, in
#: file order.  Folding the legacy solver fields must not move them;
#: ``profile_quick.json`` names its solver as ``"paths:k=4"`` (one
#: solver string, no legacy ``k_paths``), so its hashes are those of
#: that spelling.
COMMITTED_SWEEP_HASHES = {
    "fig2_solver_matrix.json": [
        "eccaa8f263175943", "b14a13464cabb4ab", "d210db22e2289894",
        "3230375e743f1fcc", "a9472fb805959e4c", "cada958872e782f0",
        "7073be01dd3ee4cf", "7c7a869f09886418", "3702e38a3a157479",
        "864d429d430a84ea", "d9c8a2288c593a70", "49df0a85feb914c5",
        "3f85ad277e813e1d", "64a0ec2a8eefb9f4", "6da594df81eca765",
        "2ad44cbab62c7e53", "5dfce030ca59f2d7", "d7e49ccbadd2d662",
    ],
    "profile_quick.json": [
        "44db4f80a7b286a4", "a66194cb84728124", "40538bca7ac97d1b",
        "4ab01a28b148cbf8",
    ],
}

#: sha256 over the 22 full hashes above, concatenated in file order.
COMMITTED_SWEEP_DIGEST = (
    "4efd49b38582787f39108e6a949ba373a177cd9e546ca85aaf9620b3601b0642"
)


def test_committed_sweep_hashes_are_pinned():
    import hashlib
    import os

    from repro import SPEC_HASH_VERSION

    sweeps = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "sweeps"
    )
    full = []
    for name, expected in COMMITTED_SWEEP_HASHES.items():
        hashes = [
            spec.content_hash()
            for spec in load_sweep_file(os.path.join(sweeps, name))
        ]
        assert [h[:16] for h in hashes] == expected, name
        full += hashes
    digest = hashlib.sha256("".join(full).encode()).hexdigest()
    assert digest == COMMITTED_SWEEP_DIGEST
    assert SPEC_HASH_VERSION == "spec-hash/1-sha256"


class TestSweepExpansion:
    DOC = {
        "defaults": {
            "topology": {"family": "fattree", "k": 4},
            "engine": "packet",
            "workload": {"pattern": "permute", "fraction": 0.5, "load": 0.3},
        },
        "grid": {
            "routing": ["ecmp", "hyb"],
            "workload.fraction": [0.2, 1.0],
        },
    }

    def test_grid_is_cartesian_product(self):
        specs = expand_sweep(self.DOC)
        assert len(specs) == 4
        combos = {(s.routing, s.workload["fraction"]) for s in specs}
        assert combos == {("ecmp", 0.2), ("ecmp", 1.0),
                          ("hyb", 0.2), ("hyb", 1.0)}

    def test_grid_points_are_auto_named(self):
        names = {s.name for s in expand_sweep(self.DOC)}
        assert "routing=ecmp,fraction=0.2" in names

    def test_points_deep_merge_over_defaults(self):
        doc = {
            "defaults": self.DOC["defaults"],
            "points": [{"workload": {"fraction": 0.9}}],
        }
        (spec,) = expand_sweep(doc)
        assert spec.workload["fraction"] == 0.9
        assert spec.workload["load"] == 0.3  # inherited
        assert spec.name == "point-0"

    def test_null_override_removes_inherited_key(self):
        doc = {
            "defaults": self.DOC["defaults"],
            "points": [{"workload": {"load": None, "rate": 500.0}}],
        }
        (spec,) = expand_sweep(doc)
        assert "load" not in spec.workload
        assert spec.workload["rate"] == 500.0

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecError, match="matrix"):
            expand_sweep({"defaults": {}, "matrix": {}})

    def test_defaults_only_yields_one_spec(self):
        (spec,) = expand_sweep({"defaults": self.DOC["defaults"]})
        assert spec.routing == "ecmp"

    def test_invalid_grid_point_raises(self):
        doc = {
            "defaults": self.DOC["defaults"],
            "grid": {"routing": ["ecmp", "warp"]},
        }
        with pytest.raises(SpecError, match="warp"):
            expand_sweep(doc)


class TestLoadSweepFile:
    def test_sweep_document(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(TestSweepExpansion.DOC))
        assert len(load_sweep_file(str(path))) == 4

    def test_bare_list(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([packet_spec(name="a").to_dict(),
                                    packet_spec(name="b", seed=1).to_dict()]))
        specs = load_sweep_file(str(path))
        assert [s.name for s in specs] == ["a", "b"]

    def test_single_spec_object(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(packet_spec(name="solo").to_dict()))
        (spec,) = load_sweep_file(str(path))
        assert spec.name == "solo"

    def test_uninterpretable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(SpecError):
            load_sweep_file(str(path))
