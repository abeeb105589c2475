"""``repro trace`` — filter, summarize, and diff event-trace JSONL files.

Subcommands
-----------

``summary``
    Per-event counts plus protocol-level highlights: guard rejections
    per node, uTESLA auth outcomes, reference changes, fault/churn
    activity.
``filter``
    Select records by event name, node, and sim-time range; prints
    matching JSONL lines (composable with shell tools).
``diff``
    Compare two traces event-by-event (ignoring ``seq``); exit 1 when
    they differ. Useful for pinning that a refactor did not change
    protocol behaviour.
``convergence``
    Convergence-after-re-election report: for each ``reference_change``,
    the gap until the new reference's first beacon airs, checked against
    the Lemma 2 ``(l + 2)`` beacon-period bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.argtypes import existing_file, positive_int
from repro.obs.events import EVENT_CATALOG, read_events


def _load(path: str) -> List[Dict[str, Any]]:
    """All non-header records of one trace."""
    return [r for r in read_events(path) if r.get("event") != "trace_header"]


def _counts_by(records: Iterable[Dict[str, Any]], field: str) -> Dict[Any, int]:
    counts: Dict[Any, int] = {}
    for record in records:
        key = record.get(field)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------


def _cmd_summary(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    by_event = _counts_by(records, "event")
    print(f"trace: {args.trace}")
    print(f"events: {len(records)}")
    for event in sorted(by_event):
        subsystem = EVENT_CATALOG.get(event, "?")
        print(f"  {event:<18} {by_event[event]:>8}  [{subsystem}]")

    guard = [r for r in records if r["event"] == "guard_reject"]
    if guard:
        print(f"guard rejections: {len(guard)}")
        for node, count in sorted(_counts_by(guard, "node").items()):
            print(f"  node {node}: {count}")

    auth = sum(1 for r in records if r["event"] == "mutesla_auth")
    defer = sum(1 for r in records if r["event"] == "mutesla_defer")
    reject = [r for r in records if r["event"] == "mutesla_reject"]
    if auth or defer or reject:
        print(
            "mutesla: "
            f"{auth} authenticated, {defer} deferred, {len(reject)} rejected"
        )
        for reason, count in sorted(_counts_by(reject, "reason").items()):
            print(f"  rejected[{reason}]: {count}")

    changes = [r for r in records if r["event"] == "reference_change"]
    print(f"reference changes: {len(changes)}")
    for record in changes:
        t_us = record.get("t_us")
        when = f"t_us={t_us:.3f}" if t_us is not None else "t_us=?"
        print(
            f"  {when}: node {record.get('old_ref')} -> node {record.get('new_ref')}"
        )

    faults = sum(1 for r in records if r["event"] == "fault_applied")
    leaves = sum(1 for r in records if r["event"] == "churn_leave")
    returns = sum(1 for r in records if r["event"] == "churn_return")
    if faults or leaves or returns:
        print(
            f"disturbances: {faults} faults applied, "
            f"{leaves} churn leaves, {returns} churn returns"
        )
    return 0


# ----------------------------------------------------------------------
# filter
# ----------------------------------------------------------------------


def _cmd_filter(args: argparse.Namespace) -> int:
    matched = 0
    for record in _load(args.trace):
        if args.event and record.get("event") not in args.event:
            continue
        if args.node is not None and record.get("node") != args.node:
            continue
        t_us = record.get("t_us")
        if args.after_us is not None and (t_us is None or t_us < args.after_us):
            continue
        if args.before_us is not None and (t_us is None or t_us >= args.before_us):
            continue
        print(json.dumps(record, sort_keys=True))
        matched += 1
    print(f"matched {matched} events", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------


def _strip_seq(record: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in record.items() if k != "seq"}


def _cmd_diff(args: argparse.Namespace) -> int:
    left = [_strip_seq(r) for r in _load(args.left)]
    right = [_strip_seq(r) for r in _load(args.right)]
    differences = 0
    for index in range(max(len(left), len(right))):
        a = left[index] if index < len(left) else None
        b = right[index] if index < len(right) else None
        if a == b:
            continue
        differences += 1
        print(f"@ event {index + 1}:")
        print(f"  - {json.dumps(a, sort_keys=True) if a is not None else '<absent>'}")
        print(f"  + {json.dumps(b, sort_keys=True) if b is not None else '<absent>'}")
        if differences >= args.limit:
            print(f"... stopping after {args.limit} differences")
            break
    if differences == 0:
        print(f"identical: {len(left)} events")
        return 0
    print(f"traces differ ({len(left)} vs {len(right)} events)")
    return 1


# ----------------------------------------------------------------------
# convergence
# ----------------------------------------------------------------------


def _convergence_windows(
    records: List[Dict[str, Any]], period_us: Optional[float]
) -> List[Tuple[Dict[str, Any], Optional[float]]]:
    """Pair each reference_change with the gap (us) until the new
    reference's first subsequent beacon_tx, or None if it never airs."""
    windows: List[Tuple[Dict[str, Any], Optional[float]]] = []
    for index, record in enumerate(records):
        if record["event"] != "reference_change":
            continue
        start = record.get("t_us")
        new_ref = record.get("new_ref")
        gap: Optional[float] = None
        for later in records[index + 1 :]:
            if later["event"] == "beacon_tx" and later.get("node") == new_ref:
                t_us = later.get("t_us")
                if start is not None and t_us is not None:
                    gap = t_us - start
                break
        windows.append((record, gap))
    return windows


def _infer_period_us(records: List[Dict[str, Any]]) -> Optional[float]:
    """Median gap between consecutive beacon_tx stamps, if observable."""
    stamps = sorted(
        r["t_us"] for r in records if r["event"] == "beacon_tx" and "t_us" in r
    )
    gaps = sorted(
        b - a for a, b in zip(stamps, stamps[1:]) if b - a > 0
    )
    if not gaps:
        return None
    return gaps[len(gaps) // 2]


def _cmd_convergence(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    period_us = args.period_us if args.period_us else _infer_period_us(records)
    windows = _convergence_windows(records, period_us)
    if not windows:
        print("no reference changes in trace")
        return 0
    bound_periods = float(args.l + 2)
    if period_us is None:
        print("warning: no beacon period observable; cannot check bound",
              file=sys.stderr)
    violations = 0
    for record, gap in windows:
        t_us = record.get("t_us")
        when = f"t_us={t_us:.3f}" if t_us is not None else "t_us=?"
        head = (
            f"{when}: ref {record.get('old_ref')} -> {record.get('new_ref')}"
        )
        if gap is None:
            print(f"{head}: new reference never beaconed  [UNRESOLVED]")
            violations += 1
        elif period_us is None:
            print(f"{head}: first beacon after {gap:.3f} us")
        else:
            periods = gap / period_us
            ok = periods <= bound_periods + 1e-9
            verdict = "OK" if ok else "VIOLATES"
            print(
                f"{head}: first beacon after {gap:.3f} us "
                f"({periods:.2f} periods; (l+2)={bound_periods:.0f}) "
                f"[{verdict}]"
            )
            if not ok:
                violations += 1
    print(
        f"{len(windows)} re-election window(s), {violations} outside the "
        f"(l+2) bound" if period_us is not None else
        f"{len(windows)} re-election window(s)"
    )
    return 1 if violations else 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro trace`` subcommands (summary/filter/diff/convergence)."""
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="per-event counts and highlights")
    p_summary.add_argument("trace", type=existing_file, help="trace JSONL path")
    p_summary.set_defaults(func=_cmd_summary)

    p_filter = sub.add_parser("filter", help="select and print matching records")
    p_filter.add_argument("trace", type=existing_file, help="trace JSONL path")
    p_filter.add_argument(
        "--event", action="append", default=None,
        help="keep only this event kind (repeatable)",
    )
    p_filter.add_argument("--node", type=int, default=None, help="keep only this node")
    p_filter.add_argument(
        "--after-us", type=float, default=None, help="keep t_us >= this"
    )
    p_filter.add_argument(
        "--before-us", type=float, default=None, help="keep t_us < this"
    )
    p_filter.set_defaults(func=_cmd_filter)

    p_diff = sub.add_parser("diff", help="compare two traces (exit 1 if different)")
    p_diff.add_argument("left", type=existing_file, help="baseline trace JSONL path")
    p_diff.add_argument("right", type=existing_file, help="candidate trace JSONL path")
    p_diff.add_argument(
        "--limit", type=positive_int, default=20,
        help="max differences to print (>= 1)",
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_conv = sub.add_parser(
        "convergence",
        help="re-election windows vs the Lemma 2 (l+2)-period bound",
    )
    p_conv.add_argument("trace", type=existing_file, help="trace JSONL path")
    p_conv.add_argument(
        "--l", type=int, default=2, dest="l",
        help="frame-loss tolerance l in the (l+2) bound (default 2)",
    )
    p_conv.add_argument(
        "--period-us", type=float, default=None,
        help="beacon period in us (default: inferred from beacon_tx gaps)",
    )
    p_conv.set_defaults(func=_cmd_convergence)
