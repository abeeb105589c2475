"""Tests for the related-work and ablation experiment harnesses."""

import pytest

from repro.experiments import ablations, related
from repro.experiments.cli import main


class TestRelated:
    def test_all_protocols_present(self):
        rows = related.run(n_values=(10,), duration_s=5.0, seed=2)
        assert set(rows) == set(related.PROTOCOLS)
        for name in related.PROTOCOLS:
            assert 10 in rows[name]
            assert rows[name][10].steady_us > 0

    def test_sstsp_wins(self):
        rows = related.run(n_values=(20,), duration_s=15.0, seed=2)
        steadies = {name: rows[name][20].steady_us for name in related.PROTOCOLS}
        assert steadies["sstsp"] == min(steadies.values())
        assert steadies["sstsp"] < steadies["tsf"] / 2

    def test_main_prints(self, capsys):
        assert main(["related", "--quick", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "sstsp" in out and "tsf" in out


class TestAblations:
    def test_guard_sweep_drag_scales(self):
        rows = ablations.sweep_guard(guards_us=(300.0, 600.0), n=20, seed=3)
        assert abs(rows[600.0]["drag"]) > abs(rows[300.0]["drag"])
        assert all(r["during_max"] < 100.0 for r in rows.values())

    def test_l_sweep_departure_transient_grows(self):
        rows = ablations.sweep_l(l_values=(1, 4), n=20, seed=2)
        assert (
            rows[4]["departure_transient"] >= rows[1]["departure_transient"] * 0.8
        )
        assert all(r["steady"] < 15.0 for r in rows.values())

    def test_m_sweep_shapes(self):
        rows = ablations.sweep_m(m_values=(1, 4), n=20, seed=1)
        assert rows[1]["latency_s"] < rows[4]["latency_s"]
        assert rows[4]["steady"] < rows[1]["steady"]
        assert rows[4]["lemma2_ratio"] == pytest.approx(0.0)

    def test_main_prints(self, capsys):
        assert main(["ablations", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "guard" in out and "Ablation" in out
