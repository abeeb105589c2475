"""Replicated-metric statistics: the :mod:`repro.analysis.stats` roll-ups
applied to one scalar metric over independent seeds."""

import math

import numpy as np
import pytest

from repro.analysis.stats import paired_stats, summarize_values, t975

#: Seed spacing of the replicated end-to-end claims.
_SEED_STRIDE = 1000


def _seeds(replicas, base_seed=1):
    return [base_seed + _SEED_STRIDE * r for r in range(replicas)]


class TestSummarize:
    def test_basic(self):
        summary = summarize_values([10.0, 12.0, 8.0, 11.0, 9.0])
        assert summary.mean == pytest.approx(10.0)
        assert summary.n == 5
        assert summary.t_ci.low < 10.0 < summary.t_ci.high

    def test_single_value_infinite_ci(self):
        summary = summarize_values([5.0])
        assert summary.mean == 5.0
        assert math.isinf(summary.t_ci.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_values([])

    def test_none_and_nan_gaps_dropped(self):
        # Quarantined sweep cells leave None/NaN holes in value lists;
        # the summary covers the replicas that reported.
        summary = summarize_values([10.0, None, 12.0, float("nan"), 8.0])
        assert summary.n == 3
        assert summary.missing == 2
        assert summary.mean == pytest.approx(10.0)

    def test_all_gaps_rejected(self):
        with pytest.raises(ValueError):
            summarize_values([None, float("nan")])

    def test_t_quantiles(self):
        assert t975(1) == pytest.approx(12.706)
        assert t975(10) == pytest.approx(2.228)
        assert t975(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t975(0)

    def test_ci_shrinks_with_replicas(self):
        rng = np.random.default_rng(0)
        small = summarize_values(rng.normal(0, 1, 5))
        large = summarize_values(rng.normal(0, 1, 30))
        assert large.t_ci.half_width < small.t_ci.half_width

    def test_str(self):
        assert "n=3" in str(summarize_values([1.0, 2.0, 3.0]))


class TestReplicate:
    def test_end_to_end_sync_metric(self):
        from repro.experiments.scenarios import quick_spec
        from repro.fastlane import run_sstsp_vectorized

        summary = summarize_values(
            run_sstsp_vectorized(
                quick_spec(15, seed=seed, duration_s=8.0)
            ).trace.steady_state_error_us()
            for seed in _seeds(3)
        )
        assert 3.0 < summary.mean < 15.0
        assert summary.t_ci.half_width < summary.mean


class TestCompare:
    def test_paired_and_significant(self):
        seeds = _seeds(5)
        comparison = paired_stats(
            [1.0 + 0.01 * seed % 1 for seed in seeds],
            [5.0 + 0.01 * seed % 1 for seed in seeds],
        )
        assert comparison.a_smaller_significant
        assert comparison.mean_b / comparison.mean_a == pytest.approx(5.0, rel=0.1)

    def test_sstsp_beats_tsf_significantly(self):
        from repro.experiments.scenarios import quick_spec
        from repro.fastlane import run_sstsp_vectorized, run_tsf_vectorized

        specs = [quick_spec(20, seed=seed, duration_s=8.0) for seed in _seeds(4)]
        comparison = paired_stats(
            [run_sstsp_vectorized(s).trace.steady_state_error_us() for s in specs],
            [run_tsf_vectorized(s).trace.steady_state_error_us() for s in specs],
        )
        assert comparison.a_smaller_significant
        assert comparison.mean_b / comparison.mean_a > 2.0
