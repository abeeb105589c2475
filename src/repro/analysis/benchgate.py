"""The benchmark-trajectory gate: ``BENCH_*.json`` emit + compare.

``pytest benchmarks/ --benchmark-only --bench-json BENCH_8.json``
(see ``benchmarks/conftest.py``) serializes every benchmark's wall-time
statistics and numeric ``extra_info`` accuracy metrics into one
schema-versioned JSON file; ``repro bench-gate`` compares such a file
against a committed baseline and exits non-zero when a hot path
regressed beyond the noise band.

The gate compares *medians* (pytest-benchmark's median-of-k rounds),
with a **relative** threshold: a benchmark regresses when

    current_median > baseline_median * (1 + tolerance)

Benchmarks whose baseline median sits under ``min_wall_s`` are skipped —
sub-millisecond timings are scheduler noise, not trajectory. Accuracy
metrics (numeric ``extra_info`` entries) are reported when they drift
and can be gated with ``--extra-tolerance``; by default they inform, the
wall clock gates. See ``docs/analysis.md`` for noise-band tuning
(same-machine trajectories tolerate ~50%; cross-machine CI comparisons
need 2-3x).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Bump on breaking changes to the BENCH_*.json layout. Loaders reject a
#: newer schema rather than misreading it.
BENCH_SCHEMA_VERSION = 1

#: Default relative noise band: fail above ``baseline * (1 + 0.5)``.
DEFAULT_TOLERANCE = 0.5

#: Baseline medians under this many seconds are too noisy to gate.
DEFAULT_MIN_WALL_S = 1e-3


def _numeric_extra(extra_info: Dict[str, Any]) -> Dict[str, float]:
    """The numeric subset of a benchmark's ``extra_info`` (sorted keys).

    Strings (the printed paper rows) and containers are dropped — only
    scalar accuracy metrics belong in the trajectory file.
    """
    numeric: Dict[str, float] = {}
    for key in sorted(extra_info):
        value = extra_info[key]
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            numeric[key] = float(value)
    return numeric


def bench_record(
    fullname: str,
    median_s: float,
    mean_s: float,
    stddev_s: float,
    min_s: float,
    rounds: int,
    iterations: int,
    group: Optional[str] = None,
    extra_info: Optional[Dict[str, Any]] = None,
    work: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """One benchmark's entry in a ``BENCH_*.json`` file.

    ``work`` carries the benchmark's deterministic work counters
    (:mod:`repro.obs.counters`) — a pure function of the workload, so
    the gate compares them **exactly** (zero tolerance), independent of
    the wall-time noise band. An additive field: baselines written
    before it simply skip the work comparison.
    """
    return {
        "fullname": fullname,
        "group": group,
        "median_s": median_s,
        "mean_s": mean_s,
        "stddev_s": stddev_s,
        "min_s": min_s,
        "rounds": rounds,
        "iterations": iterations,
        "extra": _numeric_extra(extra_info or {}),
        "work": {key: int((work or {})[key]) for key in sorted(work or {})},
    }


def write_bench_json(
    path: str, label: str, records: Sequence[Dict[str, Any]]
) -> str:
    """Write the schema-versioned trajectory file (sorted keys, stable
    bytes for identical inputs); returns ``path``."""
    payload = {
        "schema": BENCH_SCHEMA_VERSION,
        "label": label,
        "benchmarks": {record["fullname"]: record for record in records},
    }
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def load_bench_json(path: str) -> Dict[str, Any]:
    """Read a trajectory file; rejects a newer schema than this reader."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    schema = payload.get("schema")
    if schema is None or schema > BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"bench json schema {schema!r} is not supported "
            f"(this reader handles <= {BENCH_SCHEMA_VERSION}): {path}"
        )
    if not isinstance(payload.get("benchmarks"), dict):
        raise ValueError(f"bench json has no benchmarks table: {path}")
    return payload


@dataclass
class GateReport:
    """Outcome of one baseline-vs-current comparison."""

    compared: int = 0
    skipped_fast: int = 0
    regressions: List[str] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    new: List[str] = field(default_factory=list)
    extra_drift: List[str] = field(default_factory=list)
    work_drift: List[str] = field(default_factory=list)
    work_compared: int = 0
    lines: List[str] = field(default_factory=list)

    def failed(
        self,
        strict: bool,
        extra_tolerance: Optional[float],
        gate_work: bool = True,
    ) -> bool:
        """Whether the gate should exit non-zero.

        Work-counter drift fails by default (``gate_work``): the
        counters are machine-independent, so *any* drift is a real
        workload change, not noise.
        """
        if self.regressions:
            return True
        if strict and self.missing:
            return True
        if extra_tolerance is not None and self.extra_drift:
            return True
        if gate_work and self.work_drift:
            return True
        return False


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    min_wall_s: float = DEFAULT_MIN_WALL_S,
    extra_tolerance: Optional[float] = None,
) -> GateReport:
    """Compare two trajectory payloads benchmark by benchmark."""
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    report = GateReport()
    base_table = baseline["benchmarks"]
    cur_table = current["benchmarks"]
    for name in sorted(base_table):
        if name not in cur_table:
            report.missing.append(name)
            report.lines.append(f"MISSING   {name}: in baseline, not in current")
            continue
        base = base_table[name]
        cur = cur_table[name]
        base_median = float(base["median_s"])
        cur_median = float(cur["median_s"])
        if base_median < min_wall_s:
            report.skipped_fast += 1
            report.lines.append(
                f"SKIP      {name}: baseline median {base_median:.6f}s "
                f"under the {min_wall_s:.6f}s noise floor"
            )
            continue
        report.compared += 1
        ratio = cur_median / base_median if base_median > 0 else float("inf")
        line = (
            f"{name}: {base_median:.6f}s -> {cur_median:.6f}s "
            f"({ratio:.2f}x, band <= {1 + tolerance:.2f}x)"
        )
        if ratio > 1.0 + tolerance:
            report.regressions.append(name)
            report.lines.append(f"REGRESSED {line}")
        elif ratio < 1.0 / (1.0 + tolerance):
            report.improvements.append(name)
            report.lines.append(f"IMPROVED  {line}")
        else:
            report.lines.append(f"OK        {line}")
        drift_band = extra_tolerance if extra_tolerance is not None else 0.0
        base_extra = base.get("extra", {})
        cur_extra = cur.get("extra", {})
        for key in sorted(base_extra):
            if key not in cur_extra:
                continue
            base_value = float(base_extra[key])
            cur_value = float(cur_extra[key])
            scale = max(abs(base_value), abs(cur_value))
            if scale == 0.0:
                continue
            rel = abs(cur_value - base_value) / scale
            if rel > drift_band:
                report.extra_drift.append(f"{name}:{key}")
                report.lines.append(
                    f"DRIFT     {name} extra[{key}]: "
                    f"{base_value!r} -> {cur_value!r} (rel {rel:.3g})"
                )
        # Deterministic work counters compare exactly: they are a pure
        # function of the workload, so zero tolerance — separate from the
        # wall-time noise band. Baselines/currents without work metrics
        # (pre-PR-10 files, or benches that don't measure work) skip.
        base_work = base.get("work") or {}
        cur_work = cur.get("work") or {}
        if base_work and cur_work:
            report.work_compared += 1
            for key in sorted(set(base_work) | set(cur_work)):
                base_count = int(base_work.get(key, 0))
                cur_count = int(cur_work.get(key, 0))
                if base_count != cur_count:
                    report.work_drift.append(f"{name}:{key}")
                    report.lines.append(
                        f"WORK      {name} work[{key}]: "
                        f"{base_count} -> {cur_count} "
                        f"({cur_count - base_count:+d})"
                    )
    for name in sorted(cur_table):
        if name not in base_table:
            report.new.append(name)
            report.lines.append(f"NEW       {name}: not in baseline")
    return report


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro bench-gate`` flags and handler."""
    parser.add_argument("current", help="freshly emitted BENCH_*.json")
    parser.add_argument(
        "--baseline", required=True,
        help="committed baseline BENCH_*.json to compare against",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, metavar="REL",
        help="relative noise band: fail above baseline*(1+REL) "
        f"(default {DEFAULT_TOLERANCE}; use 2-3 across machines)",
    )
    parser.add_argument(
        "--min-wall-s", type=float, default=DEFAULT_MIN_WALL_S, metavar="S",
        help="skip benchmarks whose baseline median is under S seconds "
        f"(default {DEFAULT_MIN_WALL_S})",
    )
    parser.add_argument(
        "--extra-tolerance", type=float, default=None, metavar="REL",
        help="also fail when a numeric extra_info metric drifts more "
        "than REL relative (default: drift is reported, not gated)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail when a baseline benchmark is missing from current",
    )
    parser.add_argument(
        "--no-work-gate", action="store_true",
        help="report deterministic work-counter drift without failing on "
        "it (default: any work drift fails — the counters are "
        "machine-independent, so drift is a real workload change)",
    )
    parser.set_defaults(func=_cli)


def _cli(args: argparse.Namespace) -> int:
    current = load_bench_json(args.current)
    baseline = load_bench_json(args.baseline)
    report = compare_bench(
        current,
        baseline,
        tolerance=args.tolerance,
        min_wall_s=args.min_wall_s,
        extra_tolerance=args.extra_tolerance,
    )
    print(
        f"bench-gate: {args.current} (label {current.get('label')!r}) vs "
        f"baseline {args.baseline} (label {baseline.get('label')!r})"
    )
    for line in report.lines:
        print(f"  {line}")
    print(
        f"bench-gate: {report.compared} compared, "
        f"{report.skipped_fast} under the noise floor, "
        f"{len(report.regressions)} regressed, "
        f"{len(report.improvements)} improved, "
        f"{len(report.missing)} missing, {len(report.new)} new, "
        f"{report.work_compared} work-checked, "
        f"{len(report.work_drift)} work drift(s)"
    )
    if report.failed(
        args.strict, args.extra_tolerance, gate_work=not args.no_work_gate
    ):
        print("bench-gate: FAIL", file=sys.stderr)
        return 1
    print("bench-gate: OK")
    return 0
