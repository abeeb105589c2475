"""``sstsp-experiment`` (also ``repro``): the one command tree.

One argparse root, one subparser per command. Each command module's
``configure_parser(parser)`` installs its flags on the subparser it is
handed and sets ``func`` to a handler taking the parsed namespace and
returning an exit code; :func:`main` is the only place that parses.
Options follow the command: ``repro fig1 --quick``.

Every experiment CLI shares the sweep-execution flags installed by
:func:`repro.sweep.add_sweep_arguments` — ``--workers``, caching,
tracing/profiling, and the resilience set (``--retries``,
``--job-timeout``, ``--on-error``, ``--resume``); see
``docs/simulation.md`` ("Sweep resilience").

Examples
--------
::

    sstsp-experiment fig1 --quick
    sstsp-experiment table1
    sstsp-experiment table1 --workers 4 --on-error quarantine --retries 2
    sstsp-experiment table1 --resume
    sstsp-experiment all --quick
"""

from __future__ import annotations

import argparse
import sys
from types import ModuleType
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis import benchgate
from repro.analysis import cli as analyze_cli
from repro.experiments import (
    ablations,
    chaos,
    fig1,
    fig2,
    fig3,
    fig4,
    lemmas,
    multihop,
    overhead,
    related,
    shootout,
    table1,
)
from repro.lint import cli as lint_cli
from repro.obs import cli as trace_cli
from repro.obs import profilecli
from repro.sweep import add_sweep_arguments

EXPERIMENTS: Dict[str, ModuleType] = {
    module.__name__.rpartition(".")[2]: module
    for module in (
        fig1, fig2, fig3, fig4, table1, multihop, shootout,
        overhead, lemmas, related, ablations, chaos,
    )
}

#: What ``repro all`` runs, in order. Each takes ``--quick`` and the
#: shared sweep flags, which are exactly the flags ``all`` accepts.
ALL = (
    "fig1", "fig2", "table1", "fig3", "fig4",
    "overhead", "lemmas", "related", "ablations",
)

#: The other commands: name -> (module, description).
TOOLS: Dict[str, Tuple[ModuleType, str]] = {
    "analyze": (analyze_cli, "Roll sweep output into summary tables with CIs."),
    "bench-gate": (benchgate, "Fail when benchmark medians regressed past the noise band."),
    "lint": (lint_cli, "Determinism & unit-safety lint for the simulation kernel."),
    "profile": (profilecli, "Profile one registered job with spans and work counters."),
    "trace": (trace_cli, "Inspect structured event-trace JSONL files."),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole command tree."""
    parser = argparse.ArgumentParser(
        prog="sstsp-experiment",
        description="Reproduce the SSTSP paper's tables and figures.",
        epilog="Options follow the command, e.g. 'repro fig1 --quick'.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, module in EXPERIMENTS.items():
        doc = module.__doc__ or ""
        module.configure_parser(commands.add_parser(
            name, prog=f"repro {name}", description=doc, help=doc.partition("\n")[0]
        ))
    run_all = f"Run {', '.join(ALL)} in turn with the same arguments."
    all_parser = commands.add_parser(
        "all", prog="repro all", description=run_all, help=run_all
    )
    all_parser.add_argument(
        "--quick", action="store_true", help="smoke-sized run of each experiment"
    )
    add_sweep_arguments(all_parser)
    all_parser.set_defaults(func=_run_all)
    for name, (module, text) in TOOLS.items():
        module.configure_parser(commands.add_parser(
            name, prog=f"repro {name}", description=text, help=text
        ))
    return parser


def _run_all(args: argparse.Namespace) -> int:
    """Replay the arguments after ``all`` through the tree, per experiment."""
    rest = args.argv[args.argv.index("all") + 1:]
    for name in ALL:
        print(f"\n{'#' * 70}\n# {name}\n{'#' * 70}")
        code = main([name, *rest])
        if code:
            return code
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse ``argv`` with the command tree; run the chosen handler.

    The raw argv rides along on the namespace so ``all`` can replay it.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv, argparse.Namespace(argv=argv))
    return int(args.func(args))
