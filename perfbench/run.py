"""The repository benchmark: one workload per run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload fluid_curve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

A run sets up the workload, times closed-loop ops for ``--seconds``,
checks every op's output outside the timed interval, and prints as its
last stdout line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (``END_TO_END``);
with ``--trace 1`` every other op runs under spans and the metrics are
the per-layer ones (``PER_LAYER``), each the median over traced ops.
Diagnostics (host calibration, raw and adjusted set-up samples, op
counts, the exact counts) go to stderr; the spans and the exact counts
are written under ``.perfbench-out/``.  The exit code is 0 only when
every check passed.

Host speed: on a shared machine the same pure-Python loop runs up to
1.5x slower for stretches of ~10 s, and op times follow it (r = 0.88).
So a short calibration loop is timed around every op and every
set-up, and each time is reported *host-adjusted*: its on-CPU part
(process CPU time) is rescaled to a host where the loop takes
``CALIB_REF_MS``, and its off-CPU part (socket and timer waits) is kept
as measured.  Raw times are in the stderr diagnostics.

``--self-test`` runs one short traced and one untraced op of each
workload, prints every metric with its unit and the end-to-end metric
each per-layer metric should move, and checks that ``BENCHMARK.json``
lists the same metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Hash seed and BLAS/OpenMP threads fixed for every benchmark process.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOAD_NAMES = ("fluid_curve", "packet_fct", "service_warm")
DEFAULT_SEED = 1
#: Set-ups per run: this process's own plus fresh-interpreter repeats.
SETUP_SAMPLES = 3
#: The tail percentile: a 30 s run does 50-70 ops of each workload, and
#: about 40 when the host runs slow, so at least 10 ops lie beyond it.
TAIL_PERCENTILE = 75
#: Iterations of the calibration loop, and its time on the reference host.
CALIB_LOOPS = 200_000
CALIB_REF_MS = 20.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    (f"op_p{TAIL_PERCENTILE}_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

_FLUID = "fluid_curve op_p50_ms; no change on packet_fct"
_SOLVER = ("fluid_curve op_p50_ms and ops_per_s; service_warm through "
           "api.throughput_miss_ms; no change on packet_fct")
_PACKET = "packet_fct op_p50_ms and ops_per_s; no change on the other two"
_SERVICE = "service_warm op_p50_ms"

#: (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("topologies.build_ms", "ms", "lower", _FLUID),
    ("traffic.tm_ms", "ms", "lower", _FLUID),
    ("perf.ksp_pairs", "count", "lower", "fluid_curve op_p50_ms and peak_rss_mb"),
    ("perf.cache_entries", "count", "lower", "fluid_curve op_p50_ms and peak_rss_mb"),
    ("solvers.solve_ms", "ms", "lower", _SOLVER),
    ("solvers.solves", "count", "lower", _SOLVER),
    ("solvers.iterations", "count", "lower", _SOLVER),
    ("solvers.optimal_ratio", "ratio", "higher", _SOLVER),
    ("traffic.workload_ms", "ms", "lower", _PACKET),
    ("traffic.flows", "count", "lower", _PACKET),
    ("sim.routing_ms", "ms", "lower", _PACKET),
    ("sim.inject_ms", "ms", "lower", _PACKET),
    ("sim.run_ms", "ms", "lower", _PACKET),
    ("sim.events", "count", "lower", _PACKET),
    ("sim.heap_compactions", "count", "lower", _PACKET),
    ("sim.events_per_s", "1/s", "higher", _PACKET),
    ("sim.completed_ratio", "ratio", "higher", _PACKET),
    ("api.throughput_miss_ms", "ms", "lower", _SERVICE),
    ("api.throughput_hit_ms", "ms", "lower", _SERVICE),
    ("api.colgen_ms", "ms", "lower", _SERVICE),
    ("api.simulate_ms", "ms", "lower", _SERVICE),
    ("api.design_ms", "ms", "lower", _SERVICE),
    ("api.context_ms", "ms", "lower", _SERVICE),
    ("api.result_hit_ratio", "ratio", "higher", _SERVICE),
    ("flowsim.run_ms", "ms", "lower", _SERVICE),
    ("api.simulate_overhead_ms", "ms", "lower", _SERVICE),
    ("design.lp_solves", "count", "lower", _SERVICE),
    ("design.pruned_pre_lp", "count", "higher", _SERVICE),
    ("bench.unattributed_ms", "ms", "lower", "op_p50_ms of every workload"),
    ("bench.trace_overhead", "ratio", "lower", "none: traced over untraced op_p50_ms, minus 1"),
    ("host.calib_ms", "ms", "lower", "none: host speed, to tell a slow host from a slow change"),
)


def calibrate_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def host_adjusted(wall: float, cpu: float, calib_ms: float) -> float:
    """``wall`` with its on-CPU part rescaled to the reference host."""
    on_cpu = min(cpu, wall)
    return wall - on_cpu + on_cpu * CALIB_REF_MS / calib_ms


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def code_digest() -> str:
    """Hash of the library and benchmark sources: the exact counts are
    only expected to repeat between runs of the same code."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for filename in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cold_setup(name: str, seed: int):
    """(raw, adjusted) set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up repeat failed: {proc.stderr.strip()[-500:]}")
    raw, adjusted = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(adjusted)


class Run:
    """One workload run: set-up, the timed closed loop, metrics."""

    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.findings = []
        self.calib = []

    def setup(self):
        """Import, set up and run the warm-up op: (raw, adjusted) seconds."""
        self.calib.append(calibrate_ms())
        t0, c0 = time.perf_counter(), time.process_time()
        from workloads import WORKLOADS

        wl = self.workload = WORKLOADS[self.name](self.seed)
        wl.setup()
        wl.prepare()
        reference = wl.op(0)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.calib.append(calibrate_ms())
        problems = wl.check(reference)
        if problems:
            raise RuntimeError("warm-up op failed: " + "; ".join(problems))
        self.reference_values = wl.layer_values(reference)
        wl.reference = reference
        return wall, host_adjusted(wall, cpu, statistics.mean(self.calib[-2:]))

    def guard(self, values, op_id):
        """Exact counts must repeat on every op; a mismatch is a finding."""
        return [
            f"nondeterminism: {key} = {values[key]} on op {op_id}, "
            f"{self.reference_values[key]} on the warm-up op"
            for key in self.workload.flagged
            if values[key] != self.reference_values[key]
        ]

    def guard_across_runs(self):
        """Compare the exact counts with an earlier run of this code and seed."""
        flagged = {k: self.reference_values[k] for k in self.workload.flagged}
        path = os.path.join(
            OUT_DIR, f"counts-{self.name}-seed{self.seed}-{code_digest()}.json"
        )
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                earlier = json.load(fh)
            if earlier != flagged:
                self.findings.append(
                    f"nondeterminism: counts {flagged} differ from an earlier "
                    f"run's {earlier} at seed {self.seed}"
                )
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(flagged, fh, sort_keys=True)

    def measure(self):
        from spans import NULL_TRACER, Tracer

        wl = self.workload
        tracer = Tracer()
        m = {"attempted": 0, "failed": 0, "raw_ms": [], "untraced_ms": [],
             "traced_ms": [], "cpu_ms": [], "layer_rows": []}
        calib_before = calibrate_ms()
        deadline = time.perf_counter() + self.seconds
        while True:
            m["attempted"] += 1
            op_id = m["attempted"]
            traced = self.trace and op_id % 2 == 0
            wl.prepare()
            tracer.begin_op(op_id)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if traced:
                    with tracer.span("bench.op"):
                        result = wl.op(op_id, tracer)
                else:
                    result = wl.op(op_id, NULL_TRACER)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"op {op_id} raised {exc!r}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            calib_after = calibrate_ms()
            calib = (calib_before + calib_after) / 2
            calib_before = calib_after
            self.calib.append(calib_after)
            if error is None:
                problems = wl.check(result)
                values = wl.layer_values(result)
                problems += self.guard(values, op_id)
            else:
                problems = [error]
            if problems:
                m["failed"] += 1
                self.findings.extend(problems)
            else:
                m["cpu_ms"].append(cpu * 1e3 * CALIB_REF_MS / calib)
                adjusted_ms = host_adjusted(wall, cpu, calib) * 1e3
                if traced:
                    m["traced_ms"].append(adjusted_ms)
                    row = dict(values)
                    for span, ms in tracer.self_times_ms(op_id).items():
                        key = "bench.unattributed_ms" if span == "bench.op" else f"{span}_ms"
                        row[key] = ms
                    m["layer_rows"].append(row)
                else:
                    m["untraced_ms"].append(adjusted_ms)
                    m["raw_ms"].append(wall * 1e3)
            enough = op_id >= (2 if self.trace else 1)
            if enough and time.perf_counter() >= deadline:
                break
        if self.trace:
            tracer.write(os.path.join(OUT_DIR, f"spans-{self.name}-seed{self.seed}.jsonl"))
        return m

    def execute(self, setup_samples):
        setups = [self.setup()]
        self.guard_across_runs()
        for _ in range(setup_samples - 1):
            setups.append(cold_setup(self.name, self.seed))
        try:
            m = self.measure()
        finally:
            self.workload.close()

        ops = m["untraced_ms"]
        end_to_end = {}
        if ops:
            end_to_end = {
                "setup_s": statistics.median(adjusted for _, adjusted in setups),
                "op_p50_ms": statistics.median(ops),
                f"op_p{TAIL_PERCENTILE}_ms": percentile(ops, TAIL_PERCENTILE),
                "ops_per_s": len(ops) / (sum(ops) / 1e3),
                "cpu_ms_per_op": statistics.mean(m["cpu_ms"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_ratio": 1.0 - m["failed"] / m["attempted"],
            }
        per_layer = {}
        if m["layer_rows"]:
            per_layer = {
                name: statistics.median(row.get(name, 0.0) for row in m["layer_rows"])
                for name, _, _, _ in PER_LAYER
            }
            per_layer["bench.trace_overhead"] = (
                statistics.median(m["traced_ms"]) / statistics.median(ops) - 1.0
                if ops else 0.0
            )
            per_layer["host.calib_ms"] = statistics.median(self.calib)
        log(json.dumps({
            "workload": self.name,
            "seed": self.seed,
            "host.calib_ms": {"start": self.calib[0], "end": self.calib[-1],
                              "median": statistics.median(self.calib)},
            "setup_s_samples": setups,
            "raw_op_p50_ms": statistics.median(m["raw_ms"]) if m["raw_ms"] else None,
            "untraced_ops": len(ops),
            "traced_ops": len(m["traced_ms"]),
            "tail_ops_beyond": sum(
                1 for x in ops if x > end_to_end.get(f"op_p{TAIL_PERCENTILE}_ms", 0)
            ),
            "exact_counts": {k: self.reference_values[k] for k in self.workload.flagged},
        }))
        for finding in self.findings:
            log(finding)
        return m, end_to_end, per_layer


def result_line(m, values, metrics, findings):
    units = {name: unit for name, unit, *_ in metrics}
    correct = not findings and m["failed"] == 0 and len(values) == len(units)
    return correct, {
        "correct": correct,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
            if name in values
        },
    }


def self_test() -> int:
    """One short untraced and one traced op per workload, all checks on."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {
        (m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]
    }
    declared = {(n, u) for n, u, *_ in END_TO_END + PER_LAYER}
    ok = listed == declared and tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES
    if not ok:
        print("BENCHMARK.json does not list the metrics and workloads run.py reports")
    moves = {name: text for name, _, _, text in PER_LAYER}
    for name in WORKLOAD_NAMES:
        run = Run(name, DEFAULT_SEED, 0.0, True)
        m, end_to_end, per_layer = run.execute(setup_samples=1)
        passed = not run.findings and m["failed"] == 0
        ok = ok and passed
        print(f"{name}: {'ok' if passed else 'FAILED'} ({m['attempted']} ops)")
        for metric, unit in END_TO_END:
            print(f"  {metric:28s} {end_to_end.get(metric, float('nan')):14.4f} {unit}")
        for metric, unit, _, _ in PER_LAYER:
            print(f"  {metric:28s} {per_layer.get(metric, float('nan')):14.4f} "
                  f"{unit:6s} moves {moves[metric]}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"perfbench: no library sources at {SRC}; run from a repository checkout")
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  {**os.environ, **PINNED_ENV})
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.self_test:
        return self_test()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.setup_only:
        raw, adjusted = run.setup()
        run.workload.close()
        print(raw, adjusted)
        return 0
    m, end_to_end, per_layer = run.execute(SETUP_SAMPLES)
    metrics = PER_LAYER if args.trace else END_TO_END
    correct, line = result_line(
        m, per_layer if args.trace else end_to_end, metrics, run.findings
    )
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
