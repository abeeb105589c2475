"""Every CLI subcommand answers ``--help`` with its own usage."""

from __future__ import annotations

import pytest

from repro.experiments.cli import ALL, EXPERIMENTS, build_parser, main

OWN_USAGE = {name: f"repro {name}" for name in EXPERIMENTS}
OWN_USAGE.update(
    {
        "all": "repro all",
        "analyze": "repro analyze",
        "bench-gate": "repro bench-gate",
        "lint": "repro lint",
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
    # `repro all` hands its flags to every experiment, so the
    # experiments that run no sweep must take the shared flags too.
    assert main([command, "--quick", "--no-cache"]) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        f"repro {command}: runs no job sweep; ignoring --no-cache\n"
    )
    assert captured.out


def test_all_rejects_a_flag_outside_the_shared_set_before_running(
    monkeypatch, capsys
):
    def boom(args):
        raise AssertionError("an experiment ran")

    for name in ALL:
        monkeypatch.setattr(EXPERIMENTS[name], "_cli", boom)
    with pytest.raises(SystemExit) as exit_info:
        main(["all", "--seed", "5"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 5" in captured.err


def test_all_help_lists_the_shared_flags(capsys):
    out = _help(["all", "--help"], capsys)
    assert "--quick" in out and "--workers" in out


def test_all_runs_each_experiment_through_the_tree(monkeypatch, capsys):
    seen = []
    for name in ALL:
        monkeypatch.setattr(
            EXPERIMENTS[name], "_cli",
            lambda args, name=name: seen.append((name, args.quick)) or 0,
        )
    assert main(["all", "--quick", "--no-cache"]) == 0
    assert seen == [(name, True) for name in ALL]
    assert capsys.readouterr().out.count("\n# ") == len(ALL)


@pytest.mark.parametrize(
    "argv",
    [
        ["fig1", "--workers", "0"],
        ["table1", "--retries", "-1"],
        ["multihop", "--job-timeout", "-1"],
        ["fig1", "--nodes", "0"],
        ["fig2", "--nodes", "0"],
        ["fig3", "--nodes", "0"],
        ["fig4", "--nodes", "0"],
        ["table1", "--nodes", "0"],
        ["chaos", "--nodes", "0"],
        ["analyze", "table1", "--nodes", "0"],
        ["shootout", "--replicas", "0"],
        ["table1", "--replicas", "0"],
        ["analyze", "table1", "--replicas", "0"],
        ["analyze", "shootout", "--replicas", "0"],
        ["table1", "-m", "0,2"],
        ["analyze", "table1", "-m", "0,2"],
        ["shootout", "--protocols", "nope"],
        ["analyze", "shootout", "--protocols", "nope"],
    ],
)
def test_bad_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.strip().splitlines()[-1]
    assert last.startswith(f"repro {' '.join(argv[:-2])}: error: argument ")


def test_zero_retries_stays_valid():
    assert build_parser().parse_args(["table1", "--retries", "0"]).retries == 0
