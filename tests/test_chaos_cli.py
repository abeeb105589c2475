"""Failure path of the chaos soak CLI.

A fault plan that violates the configured Lemma-2 bound must make the
CLI exit non-zero *and* name the violated invariant — a soak harness
that fails silently (or green) under a broken bound is worse than none.
The bound is driven to an unachievable 0.5 us so any real network
violates it deterministically.
"""

from __future__ import annotations

import pytest

from repro.experiments.cli import main


@pytest.fixture
def isolated_results(monkeypatch, tmp_path):
    # keep run logs out of the repo's results/ directory
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
    return tmp_path


ARGS = [
    "--plans", "1",
    "--seed", "7",
    "--nodes", "8",
    "--periods", "160",
    "--no-cache",
]


def test_violated_bound_exits_nonzero_and_names_invariant(
    isolated_results, capsys
):
    assert main(["chaos", *ARGS, "--bound-us", "0.5", "--converged-us", "0.4"]) == 1

    out = capsys.readouterr().out
    assert "violated invariants:" in out
    assert "plan 0:" in out
    # the specific invariant is spelled out with the configured bound
    assert "tail error" in out and "0.5us" in out
    assert "not re-converged" in out


def test_default_bounds_pass_and_exit_zero(isolated_results, capsys):
    # same plan under the real Lemma-2 bound: green, exit 0
    assert main(["chaos", *ARGS]) == 0
    out = capsys.readouterr().out
    assert "1/1 plans green" in out
    assert "violated invariants:" not in out
