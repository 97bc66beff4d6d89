"""Where the ``BENCH_*.json`` writers put their output, and how they time.

A full run regenerates the committed ``BENCH_<suite>.json`` at the
repository root.  A quick run (``REPRO_PERF_QUICK=1``, the reduced CI
grids) writes to ``$REPRO_BENCH_QUICK_DIR`` instead (default:
``<system temp dir>/repro-bench-quick``), so reduced-grid numbers never
replace the committed full-grid ones.

Several suites share ``BENCH_perf.json`` (the kernel microbenches and
the LP sweep benches): each merges its entries with
:func:`merge_bench_json`, so running one suite alone keeps the others'
entries.  Benches whose gate is close to their speedup time their two
arms with :func:`interleaved`.
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time

QUICK = os.environ.get("REPRO_PERF_QUICK") == "1"

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def bench_path(name: str) -> str:
    """The file a bench writing ``name`` (``"BENCH_perf.json"``) uses."""
    if not QUICK:
        return os.path.join(REPO_ROOT, name)
    out = os.environ.get("REPRO_BENCH_QUICK_DIR") or os.path.join(
        tempfile.gettempdir(), "repro-bench-quick"
    )
    os.makedirs(out, exist_ok=True)
    return os.path.join(os.path.abspath(out), name)


def merge_bench_json(name: str, results: dict, suite: str = "perf-kernels") -> dict:
    """Merge ``results`` (entry name -> record) into the ``kernels`` of
    the BENCH file ``name`` and return the written payload.

    Entries other suites wrote are kept.  Every entry written here and
    the file's header carry the running ``library_version``, so each
    number says which release produced it.
    """
    from repro.ioutils import atomic_write_json
    from repro.version import SPEC_HASH_VERSION, __version__

    path = bench_path(name)
    try:
        with open(path) as f:
            payload = json.load(f)
    except (OSError, ValueError):
        payload = {}
    kernels = payload.get("kernels", {})
    for entry, record in results.items():
        kernels[entry] = {**record, "library_version": __version__}
    payload.update(
        suite=suite,
        quick=QUICK,
        library_version=__version__,
        spec_hash_version=SPEC_HASH_VERSION,
        kernels=kernels,
        speedups_ge_3x=sorted(
            k for k, v in kernels.items() if v["speedup"] >= 3.0
        ),
    )
    atomic_write_json(path, payload, sort_keys=True)
    return payload


def interleaved(reference, accelerated, repeats: int):
    """Time the two arms alternately, ``repeats`` times each.

    Returns ``(reference_s, accelerated_s, speedup, reference_result,
    accelerated_result)``: the median time of each arm, the median of
    the per-repeat ``reference / accelerated`` ratios, and each arm's
    last result.  A slow stretch of a shared host lands on both arms of
    a repeat, so the median ratio holds still where best-of-N times
    taken back to back swing by 20%.
    """
    ref_times, acc_times, ratios = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref_result = reference()
        t1 = time.perf_counter()
        acc_result = accelerated()
        t2 = time.perf_counter()
        ref_times.append(t1 - t0)
        acc_times.append(t2 - t1)
        ratios.append((t1 - t0) / (t2 - t1) if t2 > t1 else float("inf"))
    return (
        statistics.median(ref_times), statistics.median(acc_times),
        statistics.median(ratios), ref_result, acc_result,
    )
