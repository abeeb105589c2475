"""Related-work comparison: every protocol of the paper's section 2.

The paper surveys TSF's scalability fixes (ATSP, TATSP [4], SATSF [10])
and the equal-participation controlled-clock scheme of Rentel-Kunz [1],
arguing that prioritising fast stations narrows but does not close TSF's
gap, while SSTSP removes the steady-state contention entirely. This
experiment runs all six protocols on identical networks (same clock
populations, same channel draws per protocol family) across sizes and
prints the accuracy/traffic comparison behind that argument.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.experiments.report import format_table
from repro.experiments.scenarios import quick_spec
from repro.network.ibss import build_network
from repro.sweep import parse_ignoring_sweep_arguments

PROTOCOLS = ("tsf", "atsp", "tatsp", "satsf", "rentel", "sstsp")


@dataclass
class RelatedRow:
    protocol: str
    n: int
    steady_us: float
    peak_us: float
    beacons: int
    collisions: int


def run(
    n_values: Sequence[int] = (30, 100),
    duration_s: float = 40.0,
    seed: int = 11,
) -> Dict[str, Dict[int, RelatedRow]]:
    """Run every protocol at every size; returns rows[protocol][n]."""
    rows: Dict[str, Dict[int, RelatedRow]] = {name: {} for name in PROTOCOLS}
    for n in n_values:
        spec = quick_spec(n, seed=seed, duration_s=duration_s)
        for name in PROTOCOLS:
            result = build_network(name, spec).run()
            trace = result.trace
            rows[name][n] = RelatedRow(
                protocol=name,
                n=n,
                steady_us=trace.steady_state_error_us(),
                peak_us=trace.peak_error_us(),
                beacons=result.successful_beacons,
                collisions=result.channel.stats.collisions,
            )
    return rows


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = argparse.ArgumentParser(prog="repro related", description=__doc__)
    parser.add_argument("--quick", action="store_true", help="single size")
    parser.add_argument("--seed", type=int, default=11)
    args = parse_ignoring_sweep_arguments(parser, argv)
    n_values = (30,) if args.quick else (30, 100)

    rows = run(n_values=n_values, seed=args.seed)
    print("=== Related work (paper section 2), head to head ===")
    for n in n_values:
        table = []
        ordered = sorted(PROTOCOLS, key=lambda p, n=n: rows[p][n].steady_us)
        for name in ordered:
            row = rows[name][n]
            table.append(
                (
                    name,
                    f"{row.steady_us:.2f}",
                    f"{row.peak_us:.1f}",
                    row.beacons,
                    row.collisions,
                )
            )
        print()
        print(
            format_table(
                ["protocol", "steady (us)", "peak (us)", "beacons", "collisions"],
                table,
                title=f"N = {n}",
            )
        )
    print()
    print("reading: the fast-station-priority schemes (ATSP/TATSP/SATSF) "
          "improve on TSF but keep its contention; SSTSP's single steady-"
          "state transmitter wins at every size (section 3.1's argument)")


if __name__ == "__main__":
    main()
