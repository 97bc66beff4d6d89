"""Tests for the throughput-proportionality metric and skew sweeps."""

import pytest

from repro.topologies import jellyfish
from repro.throughput import fattree_flexibility_curve, skew_sweep, tp_curve
from repro.traffic import all_to_all_tm


class TestTpCurve:
    def test_shape(self):
        curve = tp_curve(0.5, [0.25, 0.5, 0.75, 1.0])
        assert curve == pytest.approx([1.0, 1.0, 2 / 3, 0.5])

    def test_clamped_at_line_rate(self):
        assert max(tp_curve(0.9, [0.1, 1.0])) <= 1.0

    def test_monotone_decreasing(self):
        curve = tp_curve(0.4, [i / 10 for i in range(1, 11)])
        assert curve == sorted(curve, reverse=True)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            tp_curve(0.0, [0.5])
        with pytest.raises(ValueError):
            tp_curve(1.5, [0.5])

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            tp_curve(0.5, [0.0])


class TestFatTreeCurve:
    def test_flat_above_beta(self):
        k = 8  # beta = 0.25
        curve = fattree_flexibility_curve(0.5, k, [0.3, 0.6, 1.0])
        assert curve == pytest.approx([0.5, 0.5, 0.5])

    def test_proportional_below_beta(self):
        k = 8
        # Below beta = 0.25, throughput rises as alpha*beta/x.
        got = fattree_flexibility_curve(0.5, k, [0.25, 0.2])
        assert got[0] == pytest.approx(0.5)
        assert got[1] == pytest.approx(0.5 * 0.25 / 0.2)

    def test_hits_line_rate_at_alpha_beta(self):
        k, alpha = 8, 0.5
        x = alpha * 2 / k
        got = fattree_flexibility_curve(alpha, k, [x, x / 2])
        assert got == pytest.approx([1.0, 1.0])

    def test_always_below_tp(self):
        # A fat-tree is never above the TP ideal (Fig 2).
        k, alpha = 8, 0.5
        xs = [i / 20 for i in range(1, 21)]
        ft = fattree_flexibility_curve(alpha, k, xs)
        tp = tp_curve(alpha, xs)
        assert all(f <= t + 1e-12 for f, t in zip(ft, tp))


class TestSkewSweep:
    def test_monotone_trend_on_jellyfish(self):
        jf = jellyfish(16, 5, 4, seed=0)
        result = skew_sweep(jf, [0.25, 0.5, 1.0], seed=0)
        # Throughput should not increase as more servers participate.
        assert result.throughput[0] >= result.throughput[-1] - 0.05

    def test_custom_tm_builder(self):
        jf = jellyfish(12, 4, 3, seed=0)
        result = skew_sweep(
            jf,
            [0.5, 1.0],
            tm_builder=lambda t, f, s: all_to_all_tm(t.tors, 3, fraction=f, seed=s),
        )
        assert len(result.throughput) == 2
        assert all(0 <= v <= 1 for v in result.throughput)

    def test_paths_solver(self):
        jf = jellyfish(12, 4, 3, seed=0)
        result = skew_sweep(jf, [0.5], solver="paths:k=6")
        assert 0 <= result.throughput[0] <= 1

    def test_rows_rendering(self):
        jf = jellyfish(12, 4, 3, seed=0)
        result = skew_sweep(jf, [0.5], solver="paths")
        rows = result.as_rows()
        assert rows[0]["fraction"] == 0.5

    def test_invalid_solver(self):
        jf = jellyfish(12, 4, 3, seed=0)
        with pytest.raises(ValueError):
            skew_sweep(jf, [0.5], solver="bogus")
