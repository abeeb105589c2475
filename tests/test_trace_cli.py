"""The ``repro trace`` CLI: summary, filter, diff, convergence.

Synthetic traces keep these tests fast and make the expected numbers
obvious; one test runs ``summary`` over the committed golden fixture so
the CLI is exercised against real simulator output too.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_trace_n5.jsonl"


def write_trace(path, records):
    lines = [{"event": "trace_header", "schema": 1, "seq": 0}]
    for seq, record in enumerate(records, start=1):
        lines.append({"seq": seq, **record})
    path.write_text(
        "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    )
    return str(path)


#: One period = 100 ms; a re-election at 300 ms whose new reference first
#: beacons one period later (well inside (l+2) = 4 periods).
SMALL = [
    {"event": "beacon_tx", "t_us": 100_000.0, "node": 0, "period": 1},
    {"event": "beacon_rx", "t_us": 100_050.0, "node": 1, "src": 0, "period": 1},
    {"event": "guard_reject", "t_us": 150_000.0, "node": 1, "diff_us": 99.0,
     "threshold_us": 25.0},
    {"event": "beacon_tx", "t_us": 200_000.0, "node": 0, "period": 2},
    {"event": "mutesla_reject", "t_us": 210_000.0, "node": 1, "sender": 0,
     "interval": 2, "reason": "bad_mac"},
    {"event": "mutesla_auth", "t_us": 220_000.0, "node": 1, "sender": 0,
     "interval": 1},
    {"event": "churn_leave", "t_us": 300_000.0, "node": 0, "period": 3},
    {"event": "reference_change", "t_us": 300_000.0, "old_ref": 0,
     "new_ref": 2, "period": 3},
    {"event": "beacon_tx", "t_us": 400_000.0, "node": 2, "period": 4},
]


class TestSummary:
    def test_counts_and_highlights(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", SMALL)
        assert main(["trace", "summary", path]) == 0
        out = capsys.readouterr().out
        assert "events: 9" in out
        assert "beacon_tx" in out and "[network]" in out
        assert "guard rejections: 1" in out
        assert "node 1: 1" in out
        assert "1 authenticated, 0 deferred, 1 rejected" in out
        assert "rejected[bad_mac]: 1" in out
        assert "reference changes: 1" in out
        assert "node 0 -> node 2" in out
        assert "1 churn leaves" in out

    def test_golden_fixture_summary(self, capsys):
        assert main(["trace", "summary", str(GOLDEN)]) == 0
        out = capsys.readouterr().out
        assert "events: 416" in out
        assert "contention_win" in out


class TestFilter:
    def test_by_event_and_node(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", SMALL)
        assert main(["trace", "filter", path, "--event", "beacon_tx"]) == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["node"] for r in rows] == [0, 0, 2]
        assert "matched 3 events" in captured.err

        assert main(
            ["trace", "filter", path, "--event", "beacon_tx", "--node", "2"]
        ) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(rows) == 1 and rows[0]["t_us"] == 400_000.0

    def test_time_window(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", SMALL)
        assert main(
            ["trace", "filter", path, "--after-us", "150000", "--before-us", "300000"]
        ) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["event"] for r in rows] == [
            "guard_reject", "beacon_tx", "mutesla_reject", "mutesla_auth",
        ]


class TestDiff:
    def test_identical_ignoring_seq(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", SMALL)
        # same events, different seq numbering must still compare equal
        renumbered = [{"seq": 100 + i, **r} for i, r in enumerate(SMALL)]
        b = tmp_path / "b.jsonl"
        b.write_text(
            json.dumps({"event": "trace_header", "schema": 1, "seq": 0}) + "\n"
            + "".join(json.dumps(r, sort_keys=True) + "\n" for r in renumbered)
        )
        assert main(["trace", "diff", a, str(b)]) == 0
        assert "identical: 9 events" in capsys.readouterr().out

    def test_differing_traces_exit_one(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", SMALL)
        mutated = [dict(r) for r in SMALL]
        mutated[0]["t_us"] = 999_999.0
        b = write_trace(tmp_path / "b.jsonl", mutated)
        assert main(["trace", "diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "@ event 1:" in out
        assert "traces differ" in out

    def test_length_mismatch_exit_one(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", SMALL)
        b = write_trace(tmp_path / "b.jsonl", SMALL[:-1])
        assert main(["trace", "diff", a, b]) == 1
        assert "<absent>" in capsys.readouterr().out

    def test_limit_caps_output(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", SMALL)
        mutated = [{**r, "t_us": r.get("t_us", 0.0) + 1.0} for r in SMALL]
        b = write_trace(tmp_path / "b.jsonl", mutated)
        assert main(["trace", "diff", a, b, "--limit", "2"]) == 1
        assert "stopping after 2 differences" in capsys.readouterr().out

    def test_limit_below_one_rejected(self, tmp_path, capsys):
        a = write_trace(tmp_path / "a.jsonl", SMALL)
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "diff", a, a, "--limit", "0"])
        assert excinfo.value.code == 2
        assert "--limit: expected an integer >= 1" in capsys.readouterr().err


class TestConvergence:
    def test_within_bound(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", SMALL)
        # gap = 100 ms = 1 period <= (l+2) = 4 with the inferred period
        assert main(["trace", "convergence", path]) == 0
        out = capsys.readouterr().out
        assert "[OK]" in out
        assert "0 outside the (l+2) bound" in out

    def test_violation_exits_one(self, tmp_path, capsys):
        records = [dict(r) for r in SMALL]
        records[-1]["t_us"] = 900_000.0  # 6 periods after the re-election
        path = write_trace(tmp_path / "t.jsonl", records)
        assert main(["trace", "convergence", path, "--period-us", "100000"]) == 1
        out = capsys.readouterr().out
        assert "[VIOLATES]" in out
        assert "1 outside the (l+2) bound" in out

    def test_larger_l_admits_the_same_gap(self, tmp_path, capsys):
        records = [dict(r) for r in SMALL]
        records[-1]["t_us"] = 900_000.0
        path = write_trace(tmp_path / "t.jsonl", records)
        assert main(
            ["trace", "convergence", path, "--period-us", "100000", "--l", "5"]
        ) == 0
        assert "[OK]" in capsys.readouterr().out

    def test_unresolved_reference_exits_one(self, tmp_path, capsys):
        records = SMALL[:-1]  # new reference never beacons
        path = write_trace(tmp_path / "t.jsonl", records)
        assert main(["trace", "convergence", path]) == 1
        assert "never beaconed" in capsys.readouterr().out

    def test_no_changes_is_clean(self, tmp_path, capsys):
        path = write_trace(tmp_path / "t.jsonl", SMALL[:2])
        assert main(["trace", "convergence", path]) == 0
        assert "no reference changes" in capsys.readouterr().out

    def test_golden_fixture_convergence(self, capsys):
        # the seeded 5-node run has no churn, so its single election at
        # bootstrap (if any) must satisfy the bound; exit must be 0
        assert main(["trace", "convergence", str(GOLDEN)]) == 0


class TestDispatch:
    def test_reachable_via_repro_entry_point(self, tmp_path, capsys):
        from repro.experiments.cli import main as repro_main

        path = write_trace(tmp_path / "t.jsonl", SMALL)
        assert repro_main(["trace", "summary", path]) == 0
        assert "events: 9" in capsys.readouterr().out

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["summary", "filter", "convergence", "diff"])
    def test_missing_trace_is_a_usage_error(self, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.jsonl")
        present = write_trace(tmp_path / "t.jsonl", SMALL)
        argv = [command, missing] + ([present] if command == "diff" else [])
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", *argv])
        assert excinfo.value.code == 2
        assert f"no such file: {missing}" in capsys.readouterr().err
