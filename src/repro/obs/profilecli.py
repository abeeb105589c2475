"""``repro profile``: span + work-counter profiling of registered jobs.

Runs any registered sweep job (:mod:`repro.sweep.jobs`) under the
hierarchical span profiler and the deterministic work counters, then
writes two artifacts:

* ``<kind>-<spec_hash[:16]>.counters.json`` — the sorted work-counter
  snapshot. A pure function of the spec and seed, so repeated runs (on
  any machine, at any worker count) produce **byte-identical** files —
  ``repro profile diff`` on two of them is a zero-tolerance regression
  check.
* ``<kind>-<spec_hash[:16]>.chrome.json`` — the span timeline in Chrome
  trace-event JSON, loadable in Perfetto (ui.perfetto.dev),
  chrome://tracing or speedscope. Wall-clock times, so *not* byte-stable
  — it is the human-facing half of the profile.

::

    python -m repro profile run multihop_run \\
        --param topology=chain --param n=6 --param duration_s=8.0 --seed 3
    python -m repro profile diff a.counters.json b.counters.json

Parameter values are parsed as JSON when possible (``n=6`` is an int,
``duration_s=8.0`` a float) and fall back to strings (``topology=chain``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Tuple

from repro.argtypes import existing_file
from repro.obs.context import instrument
from repro.obs.counters import (
    WorkCounters,
    diff_counts,
    format_report,
    load_counts_json,
    write_counts_json,
)
from repro.obs.profile import Profiler

#: Where profile artifacts land unless ``--out-dir`` says otherwise.
DEFAULT_OUT_DIR = os.path.join("results", "profile")


def _param(pair: str) -> Tuple[str, Any]:
    """argparse type: one ``KEY=VALUE`` pair, the value JSON-coerced."""
    key, sep, raw = pair.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {pair!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _job_kind(kind: str) -> str:
    """argparse type: ``kind`` must be a registered job kind."""
    from repro.sweep.jobs import resolve_job

    try:
        resolve_job(kind)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return kind


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.sweep.jobs import execute_job
    from repro.sweep.spec import JobSpec

    spec = JobSpec.make(args.kind, dict(args.param or ()), root_seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(
        args.out_dir, f"{spec.kind}-{spec.spec_hash()[:16]}{args.suffix}"
    )

    profiler = Profiler()
    work = WorkCounters()
    with instrument(counters=work, spans=profiler), profiler.span("job"):
        execute_job(spec)

    counters_path = write_counts_json(f"{base}.counters.json", work.snapshot())
    chrome_path = profiler.write_chrome_trace(f"{base}.chrome.json")

    print(f"profile: {spec.kind} (spec hash {spec.spec_hash()[:16]}, "
          f"seed {args.seed})")
    print()
    print(profiler.format_tree())
    print()
    print(format_report(work.snapshot()), end="")
    print()
    print(f"counters json (byte-stable): {counters_path}")
    print(f"chrome trace (Perfetto/speedscope): {chrome_path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = load_counts_json(args.a)
    b = load_counts_json(args.b)
    rows = diff_counts(a, b)
    print(f"profile diff: {args.a} vs {args.b}")
    if not rows:
        print("work counters identical "
              f"({len(a)} counter(s))")
        return 0
    width = max(len(key) for key, _, _ in rows)
    for key, left, right in rows:
        print(f"DRIFT {key.ljust(width)}  {left} -> {right} "
              f"({right - left:+d})")
    print(f"profile diff: {len(rows)} counter(s) drifted", file=sys.stderr)
    return 1


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro profile`` subcommands (run/diff)."""
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run one job under spans + work counters"
    )
    run_p.add_argument(
        "kind", type=_job_kind,
        help="registered job kind (e.g. multihop_run, scenario_trace)",
    )
    run_p.add_argument(
        "--param", action="append", type=_param, metavar="KEY=VALUE",
        help="job parameter (repeatable; values JSON-coerced)",
    )
    run_p.add_argument(
        "--seed", type=int, default=0, help="root seed (default 0)"
    )
    run_p.add_argument(
        "--out-dir", default=DEFAULT_OUT_DIR,
        help=f"artifact directory (default {DEFAULT_OUT_DIR})",
    )
    run_p.add_argument(
        "--suffix", default="",
        help="extra artifact-name suffix (e.g. '.run2' to keep two runs "
        "side by side for a determinism diff)",
    )
    run_p.set_defaults(func=_cmd_run)

    diff_p = sub.add_parser(
        "diff", help="compare two counters.json files (exit 1 on drift)"
    )
    diff_p.add_argument("a", type=existing_file, help="first counters.json")
    diff_p.add_argument("b", type=existing_file, help="second counters.json")
    diff_p.set_defaults(func=_cmd_diff)
