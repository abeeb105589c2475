"""Lemmas 1 and 2: measured convergence versus the analytic bounds.

Lemma 1 predicts per-BP geometric contraction of the synchronization
error with ratio ``(m-1)*BP / (m*BP - d)`` (m > 1); Lemma 2 predicts the
error amplification across a reference change, ``D+/D- = (m-l-3)/m``,
optimal (zero) at ``m = l + 3``. This experiment measures both on live
networks and prints them next to the formulas' values.
"""

from __future__ import annotations

import argparse
from typing import Dict

import numpy as np

from repro.core.adjustment import (
    optimal_m,
    predicted_error_ratio,
    reference_change_ratio,
)
from repro.core.config import SstspConfig
from repro.experiments.report import format_table
from repro.experiments.scenarios import TABLE1_INITIAL_OFFSET_US, quick_spec
from repro.fastlane import run_sstsp_vectorized
from repro.network.churn import REFERENCE_MARKER, ChurnEvent
from repro.network.ibss import build_network
from repro.sim.units import S
from repro.sweep import parse_ignoring_sweep_arguments


def measure_contraction(m: int, n: int = 30, seed: int = 3) -> float:
    """Fit the observed per-BP error contraction during initial convergence.

    Measured in the regime Lemma 1 models: a clean reference (the
    estimate-noise floor turned off), so the geometric decay is visible
    instead of being swamped by the jitter floor after a few BPs.
    """
    from dataclasses import replace

    spec = quick_spec(
        n, seed=seed, duration_s=20.0, initial_offset_us=TABLE1_INITIAL_OFFSET_US
    )
    spec = replace(
        spec,
        phy=replace(spec.phy, timestamp_jitter_us=0.0, packet_error_rate=0.0),
    )
    config = SstspConfig(m=m)
    trace = run_sstsp_vectorized(spec, config=config).trace
    # initial decay: fit log(error) over the convergent stretch, stopping
    # at the (numerical) floor
    series = trace.max_diff_us[3:60]
    series = series[series > 0.05]
    if series.size < 4:
        return 0.0
    logs = np.log(series)
    slope = np.polyfit(np.arange(logs.size), logs, 1)[0]
    return float(np.exp(slope))


def measure_reference_change(m: int, l: int = 1, n: int = 15, seed: int = 4) -> Dict:
    """Max error around a forced reference change, reference lane."""
    spec = quick_spec(n, seed=seed, duration_s=25.0)
    config = SstspConfig(m=m, l=l)
    runner = build_network("sstsp", spec, sstsp_config=config)
    runner.churn.add(ChurnEvent(120, "leave", (REFERENCE_MARKER,)))
    trace = runner.run().trace
    before = float(trace.window(10.0 * S, 12.0 * S).max_diff_us.max())
    transition = float(trace.window(12.0 * S, 14.0 * S).max_diff_us.max())
    settled = float(trace.window(20.0 * S, 25.0 * S).max_diff_us.max())
    return {"before": before, "transition": transition, "settled": settled}


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = argparse.ArgumentParser(prog="repro lemmas", description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer m values")
    args = parse_ignoring_sweep_arguments(parser, argv)
    m_values = (2, 4) if args.quick else (1, 2, 3, 4, 5)

    print("=== Lemma 1: per-BP error contraction ===")
    rows = []
    for m in m_values:
        predicted = predicted_error_ratio(m, 100_000.0, d_us=100.0)
        measured = measure_contraction(m)
        rows.append((m, f"{predicted:.3f}", f"{measured:.3f}"))
    print(format_table(["m", "predicted ratio (<1)", "measured ratio"], rows))
    print()

    print("=== Lemma 2: error across a reference change ===")
    rows = []
    for m in m_values:
        ratio = reference_change_ratio(m, l=1)
        measured = measure_reference_change(m)
        rows.append(
            (
                m,
                f"{ratio:+.2f}",
                f"{measured['before']:.1f}",
                f"{measured['transition']:.1f}",
                f"{measured['settled']:.1f}",
            )
        )
    print(
        format_table(
            ["m", "(m-l-3)/m", "before (us)", "transition (us)", "settled (us)"],
            rows,
            title=f"l = 1; optimal m per Lemma 2: {optimal_m(1)}",
        )
    )


if __name__ == "__main__":
    main()
