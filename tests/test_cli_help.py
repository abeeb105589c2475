"""Every CLI subcommand answers ``--help`` with its own usage."""

from __future__ import annotations

import pytest

from repro.experiments.cli import EXPERIMENTS, main

OWN_USAGE = {name: f"repro {name}" for name in EXPERIMENTS}
OWN_USAGE.update(
    {
        "all": "repro all",
        "analyze": "repro analyze",
        "bench-gate": "repro bench-gate",
        "lint": "python -m repro.lint",
        "profile": "repro profile",
        "profile run": "repro profile run",
        "trace": "repro trace",
    }
)


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("command", sorted(OWN_USAGE))
def test_subcommand_help_prints_its_own_usage(command, flag, capsys):
    out = _help(command.split() + [flag], capsys)
    assert out.startswith(f"usage: {OWN_USAGE[command]} ")


def test_top_level_help_lists_every_subcommand(capsys):
    out = _help(["--help"], capsys)
    assert out.startswith("usage: sstsp-experiment ")
    for command in OWN_USAGE:
        assert command.split()[0] in out


def test_missing_experiment_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("command", ["overhead", "lemmas", "related"])
def test_sweepless_experiments_accept_the_shared_sweep_flags(command, capsys):
    # `repro all` passes every argument to every experiment, so the
    # experiments that run no sweep must take the shared flags too.
    assert main([command, "--quick", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"repro {command}: runs no job sweep; ignoring --no-cache\n"
    )
    assert captured.out
