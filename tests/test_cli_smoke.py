"""Smoke tests: every documented CLI command exits 0 on a tiny input.

Cheaper and broader than the per-command behavioural tests in
``test_cli.py`` — the point is that no subcommand's wiring (argument
plumbing, registry construction, output formatting) is broken.
"""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs import load_manifest

from .lp_faults import fail_cold_solves


@pytest.fixture(autouse=True)
def _obs_disabled():
    obs.disable()
    yield
    obs.disable()


@pytest.mark.parametrize(
    "argv",
    [
        ["topology", "jellyfish", "--switches", "8", "--degree", "4",
         "--servers", "2"],
        ["topology", "fattree", "--k", "4"],
        ["throughput", "jellyfish", "--switches", "8", "--degree", "4",
         "--servers", "2", "--fractions", "1.0", "--solver", "paths:k=4"],
        ["throughput", "jellyfish", "--switches", "8", "--degree", "4",
         "--servers", "2", "--fractions", "1.0", "--solver",
         "highs-batched"],
        ["throughput", "jellyfish", "--switches", "8", "--degree", "4",
         "--servers", "2", "--fractions", "1.0", "--solver",
         "mcf-approx:epsilon=0.1"],
        ["cost"],
        ["cost", "--kind", "jellyfish", "--switches", "8", "--degree", "4",
         "--servers", "2"],
        ["cabling", "jellyfish", "--switches", "8", "--degree", "4",
         "--servers", "2"],
        ["cabling", "fattree", "--k", "4"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_command_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.strip()


class TestExitCodes:
    """Satellite regression: handlers report failure instead of exit 0.

    ``cost``/``cabling``/``topology`` used to either return 0
    unconditionally or leak a ValueError traceback on a bad ``--kind``;
    they now exit 2 (usage error) with the message on stderr, and
    ``throughput`` exits 1 when the solver reports non-optimal solves.
    """

    def test_cost_bad_kind_exits_two(self, capsys):
        assert main(["cost", "--kind", "bogus"]) == 2
        assert "unknown topology kind" in capsys.readouterr().err

    def test_cabling_bad_failure_spec_exits_two(self, capsys):
        rc = main(["cabling", "jellyfish", "--switches", "8", "--degree",
                   "4", "--servers", "2", "--failure", "nonsense-mode"])
        assert rc == 2
        assert capsys.readouterr().err

    def test_topology_bad_failure_spec_exits_two(self, capsys):
        rc = main(["topology", "fattree", "--k", "4",
                   "--failure", "nonsense-mode"])
        assert rc == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize(
        "solver", ["paths:k=0", "mcf-approx:epsilon=0.9", "bogus", "paths:q=2"]
    )
    def test_throughput_bad_solver_spec_exits_two(self, solver, capsys):
        rc = main(["throughput", "jellyfish", "--switches", "8", "--degree",
                   "4", "--servers", "2", "--fractions", "1.0",
                   "--solver", solver])
        assert rc == 2
        assert capsys.readouterr().err.startswith("throughput: ")

    def test_throughput_solver_knobs_ride_in_the_spec_string(self, capsys):
        argv = ["throughput", "jellyfish", "--switches", "8", "--degree",
                "4", "--servers", "2", "--fractions", "0.5,1.0", "--solver"]
        assert main(argv + ["paths:k=2"]) == 0
        k2 = capsys.readouterr().out
        assert main(argv + ["highs-paths:k=2"]) == 0
        assert capsys.readouterr().out == k2
        assert main(argv + ["paths:k=8"]) == 0
        assert capsys.readouterr().out != k2

    def test_throughput_solver_failure_exits_one(self, capsys, monkeypatch):
        class _Fake:
            status, success, x, message, nit = 2, False, None, "infeasible", 3

        fail_cold_solves(monkeypatch, _Fake())
        rc = main(["throughput", "jellyfish", "--switches", "8", "--degree",
                   "4", "--servers", "2", "--fractions", "1.0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "non-optimal" in captured.err

    def test_sweep_with_failing_point_exits_one(self, tmp_path, capsys):
        spec = {
            "defaults": {
                "topology": {"family": "jellyfish", "switches": 8,
                             "degree": 4, "servers": 2, "seed": 1},
                "workload": {"solver": "exact", "fraction": 1.0},
                "engine": "lp",
            },
            "points": [
                {"name": "good"},
                {"name": "bad", "topology": {"family": "jellyfish",
                                             "switches": 0}},
            ],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        rc = main(["sweep", str(path), "--no-cache", "--quiet",
                   "--retries", "0", "--jobs", "1"])
        assert rc == 1
        assert "failed" in capsys.readouterr().out


class TestProfileSmoke:
    def _sweep_file(self, tmp_path):
        spec = {
            "defaults": {
                "topology": {"family": "jellyfish", "switches": 8,
                             "degree": 4, "servers": 2, "seed": 1},
                "workload": {"pattern": "longest_matching",
                             "solver": "paths", "k_paths": 4},
                "engine": "lp",
                "seed": 1,
            },
            "points": [{"name": "smoke"}],
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_profile_exits_zero_and_writes_valid_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        rc = main(["profile", self._sweep_file(tmp_path),
                   "--run-dir", str(run_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "spans (by total time):" in out
        manifest = load_manifest(str(run_dir / "manifest.json"))
        assert "runner.sweep" in manifest["spans"]["by_name"]
        assert (run_dir / "trace.jsonl").exists()

    def test_profile_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["profile", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err


class TestDesignSmoke:
    def _target_file(self, tmp_path, **overrides):
        target = {
            "servers": 16,
            "throughput_per_server": 0.5,
            "families": ["jellyfish", "xpander"],
            "max_switches": 12,
            "radix": 8,
            "sensitivity": False,
        }
        target.update(overrides)
        path = tmp_path / "target.json"
        path.write_text(json.dumps(target))
        return str(path)

    def test_design_exits_zero_and_reports_pruning(self, tmp_path, capsys):
        rc = main(["design", self._target_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pruned before LP:" in out
        assert "best:" in out
        assert "evaluated designs" in out

    def test_design_writes_report_json(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(["design", self._target_file(tmp_path),
                   "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["feasible"] is True
        assert report["best"]["spec"] in report["pareto"]
        assert capsys.readouterr().out

    def test_design_infeasible_exits_one(self, tmp_path, capsys):
        rc = main(["design", self._target_file(tmp_path, servers=100000)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no enumerated candidate" in captured.err

    def test_design_bad_target_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"servers": -1}))
        assert main(["design", str(path)]) == 2
        assert capsys.readouterr().err

    def test_design_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["design", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err

    def test_no_sensitivity_flag_skips_tornado(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(["design", self._target_file(tmp_path, sensitivity=True),
                   "--no-sensitivity", "--out", str(out_path)])
        assert rc == 0
        assert json.loads(out_path.read_text())["sensitivity"] == []
        assert capsys.readouterr().out
