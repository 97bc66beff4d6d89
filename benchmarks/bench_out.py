"""Where the ``BENCH_*.json`` writers put their output.

A full run regenerates the committed ``BENCH_<suite>.json`` at the
repository root.  A quick run (``REPRO_PERF_QUICK=1``, the reduced CI
grids) writes to ``$REPRO_BENCH_QUICK_DIR`` instead (default:
``<system temp dir>/repro-bench-quick``), so reduced-grid numbers never
replace the committed full-grid ones.
"""

from __future__ import annotations

import os
import tempfile

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
