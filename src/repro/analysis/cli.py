"""``repro analyze`` — statistical roll-ups of sweep output.

Subcommands
-----------

``table1``
    Re-resolve the Table 1 ``m x replica`` grid through the sweep
    orchestrator (a warm cache serves every cell without executing
    anything) and emit the **Table-1-with-CIs** view: per-``m`` mean /
    median / Student-t and seeded-bootstrap 95% intervals over the
    replicas, side by side with the paper's numbers, plus a
    failure/quarantine digest from the PR 6 failure records. Writes
    ``results/analysis/<name>_summary.csv`` / ``.md`` and
    ``<name>_failures.csv``.
``shootout``
    Re-resolve the multi-hop shootout grid (protocol x scenario x
    replica; see :mod:`repro.experiments.shootout`) and roll each
    (protocol, scenario) group's replicas into accuracy / convergence /
    beacon-traffic / bytes-on-air means with the same CI machinery.
    Writes ``results/analysis/<name>_summary.csv`` / ``.md`` and
    ``<name>_failures.csv``.
``log``
    Roll one sweep run log (the JSONL written under
    ``results/sweep_logs/``) into per-kind job/wall-time tables, a
    resilience digest (retries, quarantines, worker crashes), and the
    merged metrics-registry roll-up (``merge_snapshots`` over every
    ``job_obs`` record). Writes ``<name>_log_summary.csv`` / ``.md`` and
    ``<name>_log_metrics.csv``.
``bench``
    Roll the committed ``BENCH_*.json`` trajectory files (see
    :mod:`repro.analysis.benchgate`) into a cross-label trend view:
    per-benchmark wall-time medians and deterministic work totals,
    columns ordered by label (numeric labels numerically). Writes
    ``results/analysis/<name>_trend.csv`` / ``.md``.

Every emitted file is **byte-stable**: floats are serialized with
``repr`` in CSVs and fixed formats in markdown, rows are sorted, and the
bootstrap is seeded — so the same sweep analyzed at any worker count, or
after a ``--resume``, produces identical bytes (pinned in
``tests/test_analyze_cli.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import SummaryStats, summarize_values
from repro.obs.registry import merge_snapshots, snapshot_rows
from repro.sim.units import S
from repro.sweep import run_sweep, sweep_options_from_args
from repro.sweep.failpolicy import JobFailure

#: Subdirectory of the results dir receiving analysis tables.
ANALYSIS_SUBDIR = "analysis"


def ensure_analysis_dir() -> str:
    """Create (if needed) and return ``results/analysis``."""
    from repro.experiments.report import ensure_results_dir

    path = os.path.join(ensure_results_dir(), ANALYSIS_SUBDIR)
    os.makedirs(path, exist_ok=True)
    return path


def _write_text(path: str, text: str) -> str:
    """Write ``text`` exactly (byte-stable: LF newlines, utf-8)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _fmt(value: Optional[float], digits: int = 4) -> str:
    """Markdown cell format: fixed significant digits, 'n/a' for None."""
    if value is None:
        return "n/a"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{digits}g}"


def _ci_cell(stats_obj: SummaryStats, scale: float = 1.0) -> str:
    """``[low, high]`` markdown cell of a summary's t interval."""
    low, high = stats_obj.t_ci.low, stats_obj.t_ci.high
    return f"[{_fmt(low / scale if math.isfinite(low) else low)}, " \
           f"{_fmt(high / scale if math.isfinite(high) else high)}]"


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A GitHub-style markdown table (deterministic bytes).

    Cell text is pipe-escaped — metric keys like ``name|node=2`` must
    not open a new column.
    """
    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    lines = [
        "| " + " | ".join(cell(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return "\n".join(lines)


def _stat_csv_fields(stats_obj: Optional[SummaryStats], scale: float = 1.0) -> List[str]:
    """CSV cells (repr floats) for one metric summary; blank when absent."""
    if stats_obj is None:
        return [""] * 8
    def scaled(value: float) -> str:
        return repr(value / scale if math.isfinite(value) else value)
    return [
        str(stats_obj.n),
        scaled(stats_obj.mean),
        scaled(stats_obj.median),
        scaled(stats_obj.std),
        scaled(stats_obj.t_ci.low),
        scaled(stats_obj.t_ci.high),
        scaled(stats_obj.bootstrap_ci.low),
        scaled(stats_obj.bootstrap_ci.high),
    ]


# ----------------------------------------------------------------------
# analyze table1
# ----------------------------------------------------------------------


def failures_csv_text(failures: Sequence[JobFailure]) -> str:
    """The quarantine digest as CSV (header always present)."""
    lines = ["seq,kind,hash,reason,attempts,message"]
    for failure in sorted(failures, key=lambda f: f.seq):
        message = failure.message.replace("\n", " ").replace(",", ";")
        lines.append(
            f"{failure.seq},{failure.kind},{failure.hash},"
            f"{failure.reason},{failure.attempts},{message}"
        )
    return "\n".join(lines) + "\n"


def table1_summaries(
    m_values: Sequence[int],
    cells: Sequence[Optional[Dict[str, Any]]],
    replicas: int,
) -> "List[Tuple[int, int, int, Optional[SummaryStats], Optional[SummaryStats]]]":
    """Per-``m`` roll-up of raw Table 1 cells.

    Returns ``(m, quarantined, unsynced, latency_stats, error_stats)``
    tuples; a fully-quarantined ``m`` keeps its row with ``None`` stats
    (downstream tables must tolerate missing cells, not raise — the
    PR 6 contract).
    """
    rows = []
    for i, m in enumerate(m_values):
        latencies: List[Optional[float]] = []
        errors: List[Optional[float]] = []
        quarantined = 0
        unsynced = 0
        for replica in range(replicas):
            cell = cells[i * replicas + replica]
            if cell is None:  # quarantined cell: a None gap, not an error
                quarantined += 1
                continue
            if cell["latency_us"] is None:
                unsynced += 1
            else:
                latencies.append(cell["latency_us"])
            errors.append(cell["error_us"])
        latency_stats = summarize_values(latencies) if latencies else None
        error_stats = summarize_values(errors) if errors else None
        rows.append((m, quarantined, unsynced, latency_stats, error_stats))
    return rows


def table1_summary_csv_text(
    rows: Sequence[Tuple[int, int, int, Optional[SummaryStats], Optional[SummaryStats]]],
    replicas: int,
) -> str:
    """The Table-1-with-CIs summary as CSV (repr floats; latency in s)."""
    header = (
        "m,cells,quarantined,unsynced,"
        "latency_n,latency_mean_s,latency_median_s,latency_std_s,"
        "latency_t_lo_s,latency_t_hi_s,latency_boot_lo_s,latency_boot_hi_s,"
        "error_n,error_mean_us,error_median_us,error_std_us,"
        "error_t_lo_us,error_t_hi_us,error_boot_lo_us,error_boot_hi_us"
    )
    lines = [header]
    for m, quarantined, unsynced, latency_stats, error_stats in rows:
        cells = [str(m), str(replicas), str(quarantined), str(unsynced)]
        cells += _stat_csv_fields(latency_stats, scale=S)
        cells += _stat_csv_fields(error_stats)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def table1_summary_md_text(
    rows: Sequence[Tuple[int, int, int, Optional[SummaryStats], Optional[SummaryStats]]],
    replicas: int,
    failures: Sequence[JobFailure],
) -> str:
    """The Table-1-with-CIs view as markdown, plus the failure digest."""
    from repro.experiments.table1 import PAPER_ROWS

    headers = [
        "m", "latency (s)", "latency 95% CI (s)",
        "error (us)", "error 95% CI (us)",
        "paper latency (s)", "paper error (us)", "n", "missing",
    ]
    body: List[List[str]] = []
    for m, quarantined, unsynced, latency_stats, error_stats in rows:
        paper_latency, paper_error = PAPER_ROWS.get(m, (None, None))
        body.append([
            str(m),
            _fmt(latency_stats.mean / S) if latency_stats else "n/a",
            _ci_cell(latency_stats, scale=S) if latency_stats else "n/a",
            _fmt(error_stats.mean) if error_stats else "n/a",
            _ci_cell(error_stats) if error_stats else "n/a",
            _fmt(paper_latency),
            _fmt(paper_error),
            str(error_stats.n if error_stats else 0),
            str(quarantined + unsynced),
        ])
    parts = [
        "# Table 1 with confidence intervals",
        "",
        f"Replicas per m: {replicas}. Intervals are two-sided 95% "
        "(Student-t; the CSV adds the seeded-bootstrap interval). "
        "`missing` counts quarantined cells plus replicas that never "
        "reached the 25 us threshold.",
        "",
        markdown_table(headers, body),
        "",
        "## Failure digest",
        "",
    ]
    if failures:
        parts.append(markdown_table(
            ["seq", "kind", "hash", "reason", "attempts"],
            [
                [str(f.seq), f.kind, f.hash, f.reason, str(f.attempts)]
                for f in sorted(failures, key=lambda f: f.seq)
            ],
        ))
    else:
        parts.append("No quarantined jobs.")
    return "\n".join(parts) + "\n"


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import cell_specs

    replicas = args.replicas
    specs = cell_specs(
        args.m_values, args.nodes, args.duration, args.seed, replicas
    )
    result = run_sweep(f"{args.name}_analyze", specs, sweep_options_from_args(args))
    rows = table1_summaries(args.m_values, result.values, replicas)
    out_dir = ensure_analysis_dir()
    csv_text = table1_summary_csv_text(rows, replicas)
    md_text = table1_summary_md_text(rows, replicas, result.failures)
    csv_path = _write_text(
        os.path.join(out_dir, f"{args.name}_summary.csv"), csv_text
    )
    md_path = _write_text(
        os.path.join(out_dir, f"{args.name}_summary.md"), md_text
    )
    failures_path = _write_text(
        os.path.join(out_dir, f"{args.name}_failures.csv"),
        failures_csv_text(result.failures),
    )
    print(md_text)
    print(f"summary CSV:  {csv_path}")
    print(f"summary MD:   {md_path}")
    print(f"failures CSV: {failures_path}")
    return 0


# ----------------------------------------------------------------------
# analyze shootout
# ----------------------------------------------------------------------


#: (protocol, scenario, cells, quarantined, unconverged, metric stats...)
ShootoutRow = Tuple[
    str, str, int, int, int,
    Optional[SummaryStats], Optional[SummaryStats],
    Optional[SummaryStats], Optional[SummaryStats],
]


def shootout_summaries(
    payloads: Sequence[Optional[Dict[str, Any]]],
    keys: Optional[Sequence[Tuple[str, str]]] = None,
) -> List[ShootoutRow]:
    """Per-(protocol, scenario) roll-up of raw shootout cells.

    ``keys`` is the parallel (protocol, scenario) sequence from the spec
    grid; with it, quarantined cells (``None`` payloads) count against
    their own group. Groups stay in first-seen (spec) order —
    protocol-major, then scenario — so the summary bytes don't depend on
    dict iteration accidents. Quarantined and never-converged replicas
    are counted, not raised on (the PR 6 missing-cells contract:
    fully-quarantined groups keep their row with ``None`` stats).
    """
    order: List[Tuple[str, str]] = []
    groups: Dict[Tuple[str, str], Dict[str, List[Any]]] = {}

    def group_for(key: Tuple[str, str]) -> Dict[str, List[Any]]:
        if key not in groups:
            order.append(key)
            groups[key] = {
                "steady": [], "convergence": [], "beacons": [], "bytes": [],
                "quarantined": [],
            }
        return groups[key]

    for i, payload in enumerate(payloads):
        if payload is None:
            if keys is not None and i < len(keys):
                group_for(keys[i])["quarantined"].append(1)
            continue
        group = group_for((str(payload["protocol"]), str(payload["scenario"])))
        group["steady"].append(payload["steady_state_error_us"])
        group["convergence"].append(payload["convergence_time_s"])
        group["beacons"].append(payload["beacons_sent"])
        group["bytes"].append(payload["bytes_on_air"])
    rows: List[ShootoutRow] = []
    for key in order:
        group = groups[key]
        quarantined = len(group["quarantined"])
        cells = len(group["steady"]) + quarantined
        convergences = [c for c in group["convergence"] if c is not None]
        unconverged = len(group["steady"]) - len(convergences)

        def stats(values: List[Any]) -> Optional[SummaryStats]:
            cleaned = [float(v) for v in values if v is not None]
            return summarize_values(cleaned) if cleaned else None

        rows.append(
            (
                key[0], key[1], cells, quarantined, unconverged,
                stats(group["steady"]),
                stats(convergences),
                stats(group["beacons"]),
                stats(group["bytes"]),
            )
        )
    return rows


def shootout_summary_csv_text(rows: Sequence[ShootoutRow]) -> str:
    """The shootout-with-CIs summary as CSV (repr floats)."""
    header = "protocol,scenario,cells,quarantined,unconverged"
    for metric, unit in (
        ("steady", "us"), ("convergence", "s"),
        ("beacons", ""), ("bytes", ""),
    ):
        suffix = f"_{unit}" if unit else ""
        header += (
            f",{metric}_n,{metric}_mean{suffix},{metric}_median{suffix},"
            f"{metric}_std{suffix},{metric}_t_lo{suffix},"
            f"{metric}_t_hi{suffix},{metric}_boot_lo{suffix},"
            f"{metric}_boot_hi{suffix}"
        )
    lines = [header]
    for protocol, scenario, cells, quarantined, unconverged, steady, conv, beacons, nbytes in rows:
        fields = [protocol, scenario, str(cells), str(quarantined), str(unconverged)]
        fields += _stat_csv_fields(steady)
        fields += _stat_csv_fields(conv)
        fields += _stat_csv_fields(beacons)
        fields += _stat_csv_fields(nbytes)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def shootout_summary_md_text(
    rows: Sequence[ShootoutRow],
    replicas: int,
    failures: Sequence[JobFailure],
) -> str:
    """The shootout roll-up as markdown, plus the failure digest."""
    headers = [
        "protocol", "scenario", "steady err (us)", "steady 95% CI (us)",
        "converge (s)", "converge 95% CI (s)", "beacons", "bytes on air",
        "n", "missing",
    ]
    body: List[List[str]] = []
    for protocol, scenario, cells, quarantined, unconverged, steady, conv, beacons, nbytes in rows:
        body.append([
            protocol,
            scenario,
            _fmt(steady.mean) if steady else "n/a",
            _ci_cell(steady) if steady else "n/a",
            _fmt(conv.mean) if conv else "n/a",
            _ci_cell(conv) if conv else "n/a",
            _fmt(beacons.mean) if beacons else "n/a",
            _fmt(nbytes.mean) if nbytes else "n/a",
            str(cells),
            str(quarantined + unconverged),
        ])
    parts = [
        "# Multi-hop shootout with confidence intervals",
        "",
        f"Replicas per (protocol, scenario): {replicas}. Intervals are "
        "two-sided 95% (Student-t; the CSV adds the seeded-bootstrap "
        "interval). `missing` counts quarantined cells plus replicas "
        "whose network-wide error never settled under the convergence "
        "threshold.",
        "",
        markdown_table(headers, body),
        "",
        "## Failure digest",
        "",
    ]
    if failures:
        parts.append(markdown_table(
            ["seq", "kind", "hash", "reason", "attempts"],
            [
                [str(f.seq), f.kind, f.hash, f.reason, str(f.attempts)]
                for f in sorted(failures, key=lambda f: f.seq)
            ],
        ))
    else:
        parts.append("No quarantined jobs.")
    return "\n".join(parts) + "\n"


def _cmd_shootout(args: argparse.Namespace) -> int:
    from repro.experiments.shootout import shootout_specs

    specs = shootout_specs(
        protocols=args.protocols,
        seed=args.seed,
        quick=args.quick,
        replicas=args.replicas,
    )
    result = run_sweep(f"{args.name}_analyze", specs, sweep_options_from_args(args))
    keys = [
        (str(s.params_dict()["protocol"]), str(s.params_dict().get("name", "")))
        for s in specs
    ]
    rows = shootout_summaries(result.values, keys)
    out_dir = ensure_analysis_dir()
    csv_text = shootout_summary_csv_text(rows)
    md_text = shootout_summary_md_text(rows, args.replicas, result.failures)
    csv_path = _write_text(
        os.path.join(out_dir, f"{args.name}_summary.csv"), csv_text
    )
    md_path = _write_text(
        os.path.join(out_dir, f"{args.name}_summary.md"), md_text
    )
    failures_path = _write_text(
        os.path.join(out_dir, f"{args.name}_failures.csv"),
        failures_csv_text(result.failures),
    )
    print(md_text)
    print(f"summary CSV:  {csv_path}")
    print(f"summary MD:   {md_path}")
    print(f"failures CSV: {failures_path}")
    return 0


# ----------------------------------------------------------------------
# analyze log
# ----------------------------------------------------------------------


def read_run_log(path: str) -> List[Dict[str, Any]]:
    """All records of one sweep run log (JSONL, in file order)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def log_kind_rows(
    records: Sequence[Dict[str, Any]],
) -> List[Tuple[str, int, int, Optional[SummaryStats]]]:
    """Per-kind ``(kind, jobs, cache_hits, miss_wall_stats)`` rows.

    Wall-time statistics cover executed (cache-miss) jobs only — a hit's
    wall time measures the pickle loader, not the simulator.
    """
    jobs: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    walls: Dict[str, List[float]] = {}
    for record in records:
        if record.get("event") != "job":
            continue
        kind = record.get("kind", "?")
        jobs[kind] = jobs.get(kind, 0) + 1
        if record.get("cache") == "hit":
            hits[kind] = hits.get(kind, 0) + 1
        else:
            walls.setdefault(kind, []).append(float(record.get("wall_s", 0.0)))
    rows: List[Tuple[str, int, int, Optional[SummaryStats]]] = []
    for kind in sorted(jobs):
        wall_values = walls.get(kind, [])
        rows.append((
            kind,
            jobs[kind],
            hits.get(kind, 0),
            summarize_values(wall_values) if wall_values else None,
        ))
    return rows


def log_resilience_counts(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Counts of the PR 6 resilience events in one run log."""
    counts = {
        "job_retry": 0,
        "job_quarantined": 0,
        "worker_crash": 0,
        "sweep_interrupted": 0,
    }
    for record in records:
        event = record.get("event")
        if event in counts:
            counts[event] += 1
    return counts


def log_merged_metrics(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """``merge_snapshots`` roll-up of every ``job_obs`` metrics snapshot."""
    total: Dict[str, Any] = {}
    for record in records:
        if record.get("event") == "job_obs" and "metrics" in record:
            merge_snapshots(total, record["metrics"])
    return total


def log_summary_csv_text(
    kind_rows: Sequence[Tuple[str, int, int, Optional[SummaryStats]]],
    resilience: Dict[str, int],
) -> str:
    """Per-kind roll-up CSV plus resilience counter rows."""
    header = (
        "kind,jobs,cache_hits,executed,"
        "wall_n,wall_mean_s,wall_median_s,wall_std_s,"
        "wall_t_lo_s,wall_t_hi_s,wall_boot_lo_s,wall_boot_hi_s"
    )
    lines = [header]
    for kind, jobs, hits, wall_stats in kind_rows:
        cells = [kind, str(jobs), str(hits), str(jobs - hits)]
        cells += _stat_csv_fields(wall_stats)
        lines.append(",".join(cells))
    for key in sorted(resilience):
        lines.append(f"#{key},{resilience[key]},,,,,,,,,,")
    return "\n".join(lines) + "\n"


def log_metrics_csv_text(metrics: Dict[str, Any]) -> str:
    """The merged metrics roll-up as flat CSV rows (repr floats)."""
    lines = ["section,metric,field,value"]
    for section, metric, stat_field, value in snapshot_rows(metrics):
        lines.append(f"{section},{metric},{stat_field},{value!r}")
    return "\n".join(lines) + "\n"


def log_summary_md_text(
    source: str,
    kind_rows: Sequence[Tuple[str, int, int, Optional[SummaryStats]]],
    resilience: Dict[str, int],
    metrics: Dict[str, Any],
) -> str:
    """The run-log roll-up as markdown."""
    parts = [
        "# Sweep run-log summary",
        "",
        f"Source: `{source}`",
        "",
        "## Jobs by kind",
        "",
        markdown_table(
            ["kind", "jobs", "cache hits", "executed",
             "wall mean (s)", "wall median (s)", "wall 95% CI (s)"],
            [
                [
                    kind, str(jobs), str(hits), str(jobs - hits),
                    _fmt(wall.mean) if wall else "n/a",
                    _fmt(wall.median) if wall else "n/a",
                    _ci_cell(wall) if wall else "n/a",
                ]
                for kind, jobs, hits, wall in kind_rows
            ],
        ),
        "",
        "## Resilience",
        "",
        markdown_table(
            ["event", "count"],
            [[key, str(resilience[key])] for key in sorted(resilience)],
        ),
        "",
        "## Metrics roll-up",
        "",
    ]
    rows = snapshot_rows(metrics)
    if rows:
        parts.append(markdown_table(
            ["section", "metric", "field", "value"],
            [[s, m, f, _fmt(v, digits=9)] for s, m, f, v in rows],
        ))
    else:
        parts.append("No `job_obs` metrics in this log (run with `--trace-dir`).")
    return "\n".join(parts) + "\n"


def _cmd_log(args: argparse.Namespace) -> int:
    records = read_run_log(args.log)
    name = args.name
    if name is None:
        name = os.path.splitext(os.path.basename(args.log))[0]
    kind_rows = log_kind_rows(records)
    resilience = log_resilience_counts(records)
    metrics = log_merged_metrics(records)
    out_dir = ensure_analysis_dir()
    # Basename only: the emitted bytes must not depend on where the log
    # happened to live (the golden-fixture tests byte-compare them).
    md_text = log_summary_md_text(
        os.path.basename(args.log), kind_rows, resilience, metrics
    )
    csv_path = _write_text(
        os.path.join(out_dir, f"{name}_log_summary.csv"),
        log_summary_csv_text(kind_rows, resilience),
    )
    metrics_path = _write_text(
        os.path.join(out_dir, f"{name}_log_metrics.csv"),
        log_metrics_csv_text(metrics),
    )
    md_path = _write_text(os.path.join(out_dir, f"{name}_log_summary.md"), md_text)
    print(md_text)
    print(f"summary CSV: {csv_path}")
    print(f"metrics CSV: {metrics_path}")
    print(f"summary MD:  {md_path}")
    return 0


# ----------------------------------------------------------------------
# analyze bench
# ----------------------------------------------------------------------


def _bench_label_key(label: str) -> Tuple[int, int, str]:
    """Sort key for BENCH labels: numeric labels first, in numeric
    order, then everything else lexicographically."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def discover_bench_files(root: str) -> List[str]:
    """The committed ``BENCH_*.json`` trajectory files under ``root``,
    in sorted-name order (the payload label decides the column order)."""
    names = sorted(
        name for name in os.listdir(root)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    return [os.path.join(root, name) for name in names]


def load_bench_trajectory(
    paths: Sequence[str],
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Load trajectory files as ``(label, basename, payload)`` triples,
    ordered by label (numeric labels numerically, then the rest)."""
    from repro.analysis.benchgate import load_bench_json

    loaded = []
    for path in paths:
        payload = load_bench_json(path)
        label = str(payload.get("label"))
        loaded.append((label, os.path.basename(path), payload))
    loaded.sort(key=lambda item: (_bench_label_key(item[0]), item[1]))
    return loaded


def bench_trend_md_text(
    trajectory: Sequence[Tuple[str, str, Dict[str, Any]]],
) -> str:
    """The benchmark-trajectory roll-up as byte-stable markdown.

    One wall-time table (benchmark x label, medians in ms) and one
    deterministic-work table (total counted ops per benchmark x label;
    blank before the counters existed) over every loaded BENCH file.
    """
    labels = [label for label, _, _ in trajectory]
    names = sorted(
        {
            name
            for _, _, payload in trajectory
            for name in payload["benchmarks"]
        }
    )

    def record(payload: Dict[str, Any], name: str) -> Optional[Dict[str, Any]]:
        entry = payload["benchmarks"].get(name)
        return entry if isinstance(entry, dict) else None

    wall_rows = []
    work_rows = []
    for name in names:
        wall_cells = [name]
        work_cells = [name]
        for _, _, payload in trajectory:
            entry = record(payload, name)
            if entry is None:
                wall_cells.append("-")
                work_cells.append("-")
                continue
            wall_cells.append(_fmt(float(entry["median_s"]) * 1e3))
            work = entry.get("work") or {}
            total_ops = sum(int(work[key]) for key in sorted(work))
            work_cells.append(str(total_ops) if work else "-")
        wall_rows.append(wall_cells)
        work_rows.append(work_cells)

    parts = [
        "# Benchmark trajectory",
        "",
        "Source files (ordered by label): "
        + ", ".join(f"`{base}`" for _, base, _ in trajectory),
        "",
        "## Wall-time medians (ms)",
        "",
        markdown_table(["benchmark"] + labels, wall_rows),
        "",
        "## Deterministic work (total counted ops)",
        "",
        markdown_table(["benchmark"] + labels, work_rows),
        "",
        "Work totals come from `repro.obs.counters` and are a pure "
        "function of the workload; a change between labels is a real "
        "workload shift, not machine noise (`repro bench-gate` compares "
        "the per-counter breakdown exactly).",
    ]
    return "\n".join(parts) + "\n"


def bench_trend_csv_text(
    trajectory: Sequence[Tuple[str, str, Dict[str, Any]]],
) -> str:
    """Flat CSV of the trajectory (repr floats, one row per benchmark
    per label): label, benchmark, median/mean/min, rounds, work total."""
    lines = ["label,benchmark,median_s,mean_s,min_s,rounds,work_total"]
    for label, _, payload in trajectory:
        table = payload["benchmarks"]
        for name in sorted(table):
            entry = table[name]
            work = entry.get("work") or {}
            total_ops = sum(int(work[key]) for key in sorted(work))
            lines.append(
                ",".join(
                    [
                        label,
                        name,
                        repr(float(entry["median_s"])),
                        repr(float(entry["mean_s"])),
                        repr(float(entry["min_s"])),
                        str(int(entry["rounds"])),
                        str(total_ops) if work else "",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _cmd_bench(args: argparse.Namespace) -> int:
    paths = list(args.files)
    if not paths:
        paths = discover_bench_files(args.root)
    if not paths:
        print(f"no BENCH_*.json files found under {args.root!r}",
              file=sys.stderr)
        return 1
    trajectory = load_bench_trajectory(paths)
    out_dir = ensure_analysis_dir()
    md_text = bench_trend_md_text(trajectory)
    csv_path = _write_text(
        os.path.join(out_dir, f"{args.name}_trend.csv"),
        bench_trend_csv_text(trajectory),
    )
    md_path = _write_text(
        os.path.join(out_dir, f"{args.name}_trend.md"), md_text
    )
    print(md_text)
    print(f"trend CSV: {csv_path}")
    print(f"trend MD:  {md_path}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro analyze`` subcommands (table1/shootout/log/bench)."""
    from repro.experiments import shootout, table1
    from repro.sweep import add_sweep_arguments

    sub = parser.add_subparsers(dest="command", required=True)

    p_table1 = sub.add_parser(
        "table1", help="Table-1-with-CIs view over the m x replica grid"
    )
    table1.add_grid_arguments(
        p_table1, 3, "replicas per m (default 3; more replicas, tighter CIs)"
    )
    p_table1.add_argument(
        "--name", default="table1",
        help="output stem under results/analysis/ (default table1)",
    )
    add_sweep_arguments(p_table1)
    p_table1.set_defaults(func=_cmd_table1)

    p_shootout = sub.add_parser(
        "shootout",
        help="per-(protocol, scenario) CIs over the multi-hop shootout grid",
    )
    shootout.add_grid_arguments(
        p_shootout, 3,
        "seed replicas per cell (default 3; more replicas, tighter CIs)",
    )
    p_shootout.add_argument(
        "--name", default="shootout",
        help="output stem under results/analysis/ (default shootout)",
    )
    add_sweep_arguments(p_shootout)
    p_shootout.set_defaults(func=_cmd_shootout)

    p_log = sub.add_parser(
        "log", help="roll one sweep run log (JSONL) into summary tables"
    )
    p_log.add_argument("log", help="run-log JSONL path (results/sweep_logs/...)")
    p_log.add_argument(
        "--name", default=None,
        help="output stem under results/analysis/ (default: log file stem)",
    )
    p_log.set_defaults(func=_cmd_log)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark-trajectory trend table over committed BENCH_*.json",
    )
    p_bench.add_argument(
        "files", nargs="*",
        help="BENCH_*.json files to roll up (default: discover them "
        "under --root)",
    )
    p_bench.add_argument(
        "--root", default=".",
        help="directory scanned for BENCH_*.json when no files are "
        "given (default: the current directory)",
    )
    p_bench.add_argument(
        "--name", default="bench",
        help="output stem under results/analysis/ (default bench)",
    )
    p_bench.set_defaults(func=_cmd_bench)
