"""``sstsp-experiment``: run any (or all) paper experiments.

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
from typing import Callable, Dict, List

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

EXPERIMENTS: Dict[str, Callable[[List[str]], None]] = {
    "fig1": fig1.main,
    "fig2": fig2.main,
    "fig3": fig3.main,
    "fig4": fig4.main,
    "table1": table1.main,
    "multihop": multihop.main,
    "shootout": shootout.main,
    "overhead": overhead.main,
    "lemmas": lemmas.main,
    "related": related.main,
    "ablations": ablations.main,
    "chaos": chaos.main,
}


def main(argv=None) -> int:
    """Dispatch one (or all) experiment reproductions."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="sstsp-experiment",
        description="Reproduce the SSTSP paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "analyze", "bench-gate", "lint", "profile", "trace"],
        help="which table/figure to regenerate ('analyze' rolls sweep "
        "output into summary tables with CIs; 'bench-gate' compares a "
        "BENCH_*.json against a baseline; 'lint' runs reprolint, "
        "the determinism/unit-safety static analysis; 'profile' runs a "
        "job under spans + deterministic work counters; 'trace' inspects "
        "event-trace JSONL files)",
    )
    # Everything after the experiment name, ``-h`` included, belongs to
    # the experiment's own parser.
    split = next(
        (i + 1 for i, arg in enumerate(argv) if not arg.startswith("-")), len(argv)
    )
    args, passthrough = parser.parse_known_args(argv[:split])
    passthrough += argv[split:]
    if args.experiment == "profile":
        from repro.obs.profilecli import main as profile_main

        return profile_main(passthrough)
    if args.experiment == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(passthrough)
    if args.experiment == "trace":
        from repro.obs.cli import main as trace_main

        return trace_main(passthrough)
    if args.experiment == "analyze":
        from repro.analysis.cli import main as analyze_main

        return analyze_main(passthrough)
    if args.experiment == "bench-gate":
        from repro.analysis.benchgate import main as benchgate_main

        return benchgate_main(passthrough)
    if args.experiment == "all":
        names = (
            "fig1", "fig2", "table1", "fig3", "fig4",
            "overhead", "lemmas", "related", "ablations",
        )
        argparse.ArgumentParser(
            prog="repro all",
            description=f"Run {', '.join(names)} in turn; every other "
            "argument is passed to each of them.",
        ).parse_known_args(passthrough)
        for name in names:
            print(f"\n{'#' * 70}\n# {name}\n{'#' * 70}")
            EXPERIMENTS[name](passthrough)
        return 0
    EXPERIMENTS[args.experiment](passthrough)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
