"""Tests of the experiment harness: every paper table/figure regenerates
with the right shape at quick scale, and the reporting helpers behave."""

import os
from pathlib import Path

import pytest

from repro.analysis.metrics import TraceRecorder
from repro.experiments import fig1, fig2, fig3, fig4, lemmas, overhead, table1
from repro.experiments.cli import main as cli_main
from repro.experiments.report import (
    ascii_chart,
    downsample_rows,
    format_table,
    trace_chart,
)


def make_trace(values):
    recorder = TraceRecorder()
    for i, v in enumerate(values):
        recorder.record((i + 1) * 100_000.0, [0.0, v])
    return recorder.finalize()


class TestReportHelpers:
    def test_ascii_chart_renders(self):
        chart = ascii_chart([0, 1, 2, 3], [1.0, 10.0, 100.0, 5.0], "t", width=20, height=4)
        assert "t" in chart and "#" in chart

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart([], [], "t")

    def test_trace_chart(self):
        chart = trace_chart(make_trace([1, 5, 2]), "demo", width=10, height=3)
        assert "demo" in chart

    def test_format_table(self):
        table = format_table(["a", "bb"], [(1, "x"), (22, "yy")], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_downsample(self):
        rows = downsample_rows(make_trace(range(100)), points=5)
        assert len(rows) == 5
        assert rows[0][1] == 0.0 and rows[-1][1] == 99.0


class TestExperimentRuns:
    def test_fig1_shape(self):
        result = fig1.run(n_values=(20, 80), quick=True, seed=2)
        rows = list(result.summary_rows())
        assert len(rows) == 2
        errs = {n: t.steady_state_error_us() for n, t in result.traces.items()}
        assert errs[80] > errs[20] * 0.8  # monotone-ish growth at quick scale

    def test_fig2_shape(self):
        result = fig2.run(n=80, m=4, quick=True, seed=2)
        assert result.trace.steady_state_error_us() < 12.0

    def test_table1_shape(self):
        rows = table1.run(m_values=(1, 3), n=30, duration_s=20.0, replicas=1)
        assert rows[1].latency_s < rows[3].latency_s
        assert rows[3].error_us < rows[1].error_us

    def test_fig3_shape(self):
        result = fig3.run(n=30, quick=True, seed=2)
        maxima = result.phase_maxima()
        assert maxima["during"] > maxima["before"]

    def test_fig4_shape(self):
        result = fig4.run(n=60, m=4, quick=True, seed=2)
        maxima = result.phase_maxima()
        assert maxima["during"] < 150.0
        assert result.drag_us() < 0.0

    def test_overhead_run(self):
        data = overhead.run(chain_length=256, samples=64)
        assert data["tsf"].beacon_bytes == 56
        assert len(data["chain"]) == 3

    def test_lemmas_measures(self):
        ratio = lemmas.measure_contraction(m=3, n=20, seed=2)
        assert 0.0 <= ratio < 1.05
        change = lemmas.measure_reference_change(m=4, n=10, seed=2)
        assert change["settled"] < 25.0


class TestCli:
    def test_single_experiment(self, capsys):
        assert cli_main(["overhead", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "92" in out and "56" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    def test_fig2_quick_writes_csv(self, capsys):
        assert cli_main(["fig2", "--quick", "--nodes", "40"]) == 0
        out = capsys.readouterr().out
        assert "steady-state error" in out
        results = Path(os.environ["SSTSP_RESULTS_DIR"])
        assert (results / "fig2_sstsp_n40_m4.csv").exists()
