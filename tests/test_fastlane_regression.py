"""Fast-lane regression fixture: the paper's N=300 scenario, pinned.

``tests/data/fastlane_paper300.json`` holds, for ``run_tsf_vectorized``
and ``run_sstsp_vectorized`` on ``paper_spec(300, churn="paper",
attacker=PAPER_ATTACK)`` (the full 1000 s horizon: every reference
departure and the whole 400-600 s attack window):

* the SHA-256 of every trace array;
* the SHA-256 of the event trace JSONL (every ``contention_win``);
* the exact ``count_work()`` tallies;
* the run's scalar outcomes.

Any change to the contention cascade, the period loop or the trace
recorder that moves a single bit of any of these fails here. The
fixture was generated before the group-wise contention cascade replaced
the heap cascade, so it pins that replacement as bit-exact.

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_fastlane_regression
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.scenarios import PAPER_ATTACK, paper_spec
from repro.fastlane import run_sstsp_vectorized, run_tsf_vectorized
from repro.obs import count_work, observe_run

FIXTURE = Path(__file__).parent / "data" / "fastlane_paper300.json"

LANES = {
    "tsf": (run_tsf_vectorized, ("successful_beacons", "collisions")),
    "sstsp": (
        run_sstsp_vectorized,
        ("successful_beacons", "reference_changes", "recoveries"),
    ),
}

TRACE_ARRAYS = (
    "times_us",
    "max_diff_us",
    "mean_vs_true_us",
    "present_counts",
    "reference_ids",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lane_payload(lane: str, trace_path: Path) -> dict:
    """Run one lane on the pinned scenario and capture it exhaustively."""
    run, scalars = LANES[lane]
    spec = paper_spec(300, churn="paper", attacker=PAPER_ATTACK)
    with observe_run(str(trace_path)), count_work() as work:
        result = run(spec)
    trace = result.trace
    return {
        "scalars": {name: getattr(result, name) for name in scalars},
        "steady_state_error_us": repr(trace.steady_state_error_us()),
        "events": len(result.events),
        "sha256": {
            name: _sha(np.ascontiguousarray(getattr(trace, name)).tobytes())
            for name in TRACE_ARRAYS
        },
        "event_trace_sha256": _sha(trace_path.read_bytes()),
        "work": work.snapshot(),
    }


@pytest.mark.parametrize("lane", sorted(LANES))
def test_fastlane_matches_fixture(lane, tmp_path):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))[lane]
    assert lane_payload(lane, tmp_path / f"{lane}.jsonl") == golden


def _regenerate() -> None:  # pragma: no cover - manual fixture refresh
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = {
            lane: lane_payload(lane, Path(tmp) / f"{lane}.jsonl")
            for lane in sorted(LANES)
        }
    FIXTURE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
