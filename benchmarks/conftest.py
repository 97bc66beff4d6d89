"""Benchmark-suite configuration.

Each benchmark regenerates a paper table/figure; runs are expensive
simulations, so every bench executes exactly once per session
(``benchmark.pedantic`` with one round) — pytest-benchmark records the
wall time, and the rendered result lands in ``benchmarks/results/``.
"""

import sys
import os

sys.path.insert(0, os.path.dirname(__file__))
# The repository root, for the test-only references under ``tests/``.
sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
