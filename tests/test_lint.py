"""reprolint: fixture-driven tests for every rule, pragma and the CLI.

Each rule gets at least one positive case (the rule fires), one negative
case (idiomatic code does not), and one pragma-suppression case; the
engine tests cover allowlist scoping, baselines, exit codes, and — the
gate this PR installs — that the real ``src/repro`` tree lints clean.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import main
from repro.lint import (
    RULES,
    Diagnostic,
    LintConfig,
    apply_baseline,
    lint_file,
    lint_paths,
    load_baseline,
    package_relative,
    write_baseline,
)

SRC_REPRO = Path(repro.__file__).parent


def put(tmp_path: Path, rel: str, source: str) -> Path:
    """Write a fixture module at ``tmp_path/rel`` and return its path."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(diags) -> list:
    """The finding codes, in report order."""
    return [d.code for d in diags]


class TestD001UnseededRandomness:
    def test_stdlib_random_use_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            import random

            def jitter(xs):
                random.shuffle(xs)
                return random.random()
            """,
        )
        assert codes(lint_file(f)) == ["D001", "D001"]

    def test_from_import_use_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            from random import randint

            def draw():
                return randint(0, 7)
            """,
        )
        assert codes(lint_file(f)) == ["D001"]

    def test_numpy_module_state_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            import numpy as np

            def draw():
                np.random.seed(3)
                return np.random.random()
            """,
        )
        assert codes(lint_file(f)) == ["D001", "D001"]

    def test_seeded_generator_is_clean(self, tmp_path):
        # Clean for D001 (no module-global state); placement inside a
        # kernel package is R301's concern, tested in test_lint_flow.py.
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            import numpy as np

            def draw(seed: int) -> float:
                rng: np.random.Generator = np.random.default_rng(seed)
                return float(rng.random())
            """,
        )
        assert codes(lint_file(f, rules=RULES)) == []

    def test_rng_registry_module_is_allowlisted(self, tmp_path):
        source = """
            import numpy as np

            def master():
                return np.random.random()
            """
        allowed = put(tmp_path, "repro/sim/rng.py", source)
        elsewhere = put(tmp_path, "repro/sim/other.py", source)
        assert lint_file(allowed) == []
        assert codes(lint_file(elsewhere)) == ["D001"]


class TestD002WallClockRead:
    def test_time_time_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert codes(lint_file(f)) == ["D002"]

    def test_from_import_perf_counter_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from time import perf_counter

            def stamp():
                return perf_counter()
            """,
        )
        assert codes(lint_file(f)) == ["D002"]

    def test_datetime_now_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
        )
        assert codes(lint_file(f)) == ["D002"]

    def test_engine_time_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def stamp(engine):
                return engine.now_us
            """,
        )
        assert lint_file(f) == []

    def test_orchestrator_is_allowlisted(self, tmp_path):
        source = """
            import time

            def eta():
                return time.perf_counter()
            """
        allowed = put(tmp_path, "repro/sweep/orchestrator.py", source)
        elsewhere = put(tmp_path, "repro/sweep/cache.py", source)
        assert lint_file(allowed) == []
        assert codes(lint_file(elsewhere)) == ["D002"]

    def test_obs_profile_is_allowlisted(self, tmp_path):
        """The profiling module is the second (and last) D002 carve-out."""
        source = """
            import time

            def section():
                return time.perf_counter()
            """
        allowed = put(tmp_path, "repro/obs/profile.py", source)
        sibling = put(tmp_path, "repro/obs/events.py", source)
        kernel = put(tmp_path, "repro/network/runner2.py", source)
        assert lint_file(allowed) == []
        assert codes(lint_file(sibling)) == ["D002"]
        assert codes(lint_file(kernel)) == ["D002"]

    def test_carve_out_is_exactly_two_modules(self):
        """The allowlist must not silently grow: wall-clock reads are
        sanctioned in the orchestrator and the profiler, nowhere else."""
        assert LintConfig().wallclock_allow == frozenset(
            {"sweep/orchestrator.py", "obs/profile.py"}
        )


class TestD003UnorderedIteration:
    def test_set_literal_and_call_fire(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def order(xs):
                for a in {1, 2, 3}:
                    pass
                return [y for y in set(xs)]
            """,
        )
        assert codes(lint_file(f)) == ["D003", "D003"]

    def test_keys_and_glob_fire(self, tmp_path):
        f = put(
            tmp_path,
            "repro/sweep/mod.py",
            """
            def walk(d, root):
                for k in d.keys():
                    pass
                for p in root.glob("*.csv"):
                    pass
            """,
        )
        assert codes(lint_file(f)) == ["D003", "D003"]

    def test_sorted_wrapping_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def order(xs, d, root):
                for a in sorted(set(xs)):
                    pass
                for k in sorted(d):
                    pass
                for p in sorted(root.glob("*.csv")):
                    pass
            """,
        )
        assert lint_file(f) == []

    def test_out_of_scope_package_is_clean(self, tmp_path):
        source = """
            def order(xs):
                return [y for y in set(xs)]
            """
        out = put(tmp_path, "repro/analysis/mod.py", source)
        scoped = put(tmp_path, "repro/phy/mod.py", source)
        assert lint_file(out) == []
        assert codes(lint_file(scoped)) == ["D003"]


class TestD004TimeFloatEquality:
    def test_eq_on_us_names_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/clocks/mod.py",
            """
            def same(a_us, b_us, t_tu):
                if a_us == b_us:
                    return True
                return t_tu != 0.0
            """,
        )
        assert codes(lint_file(f)) == ["D004", "D004"]

    def test_attribute_and_converter_fire(self, tmp_path):
        f = put(
            tmp_path,
            "repro/clocks/mod.py",
            """
            from repro.sim.units import us_to_s

            def same(beacon, t):
                return us_to_s(t) == beacon.target_s
            """,
        )
        assert codes(lint_file(f)) == ["D004"]

    def test_tolerance_and_ordering_are_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/clocks/mod.py",
            """
            import math

            def same(a_us, b_us, name):
                if abs(a_us - b_us) <= 1e-9 or a_us < b_us:
                    return True
                if name == "root":
                    return False
                if a_us is None:
                    return False
                return math.isclose(a_us, b_us)
            """,
        )
        assert lint_file(f) == []

    def test_non_time_names_are_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/clocks/mod.py",
            """
            def same(count, total):
                return count == total
            """,
        )
        assert lint_file(f) == []


class TestD005MutableDefaultArg:
    def test_literal_defaults_fire(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(xs=[]):
                return xs

            def g(*, table={}):
                return table
            """,
        )
        assert codes(lint_file(f)) == ["D005", "D005"]

    def test_constructor_default_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(xs=list()):
                return xs
            """,
        )
        assert codes(lint_file(f)) == ["D005"]

    def test_none_and_tuple_defaults_are_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(xs=None, anchor=(), name="x"):
                return list(xs or anchor)
            """,
        )
        assert lint_file(f) == []


class TestD006DirectHashlib:
    def test_import_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/mac/mod.py",
            """
            import hashlib

            def digest(b):
                return hashlib.sha256(b).digest()
            """,
        )
        assert codes(lint_file(f)) == ["D006"]

    def test_from_import_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/mac/mod.py",
            """
            from hashlib import sha256
            """,
        )
        assert codes(lint_file(f)) == ["D006"]

    def test_primitives_module_is_allowlisted(self, tmp_path):
        f = put(
            tmp_path,
            "repro/crypto/primitives.py",
            """
            import hashlib

            def digest(b):
                return hashlib.sha256(b).digest()
            """,
        )
        assert lint_file(f) == []


class TestPragmas:
    DIRTY = """
        import hashlib{pragma}

        def f(t_us, u_us):
            return t_us == u_us
        """

    def test_same_line_disable_suppresses_only_that_code(self, tmp_path):
        f = put(
            tmp_path,
            "repro/mac/mod.py",
            self.DIRTY.format(pragma="  # reprolint: disable=D006 -- cache key"),
        )
        assert codes(lint_file(f)) == ["D004"]

    def test_wrong_code_does_not_suppress(self, tmp_path):
        f = put(
            tmp_path,
            "repro/mac/mod.py",
            self.DIRTY.format(pragma="  # reprolint: disable=D001"),
        )
        assert codes(lint_file(f)) == ["D006", "D004"]

    def test_disable_next_line(self, tmp_path):
        f = put(
            tmp_path,
            "repro/mac/mod.py",
            """
            # reprolint: disable-next=D006
            import hashlib
            """,
        )
        assert lint_file(f) == []

    # One (code, fixture) pair per rule; {P} marks the flagged line.
    CASES = [
        ("D001", "import numpy as np\nx = np.random.random(){P}\n"),
        ("D002", "import time\nt = time.time(){P}\n"),
        ("D003", "for a in {{1, 2}}:{P}\n    pass\n"),
        ("D004", "def f(a_us, b_us):\n    return a_us == b_us{P}\n"),
        ("D005", "def f(xs=[]):{P}\n    return xs\n"),
        ("D006", "import hashlib{P}\n"),
    ]

    @pytest.mark.parametrize("code,template", CASES)
    def test_every_rule_fires_and_suppresses(self, tmp_path, code, template):
        dirty = put(tmp_path, "repro/network/dirty.py", template.format(P=""))
        assert codes(lint_file(dirty)) == [code]
        pragma = f"  # reprolint: disable={code} -- test justification"
        clean = put(tmp_path, "repro/network/clean.py", template.format(P=pragma))
        assert lint_file(clean) == []

    def test_disable_file_and_code_list(self, tmp_path):
        f = put(
            tmp_path,
            "repro/mac/mod.py",
            """
            # reprolint: disable-file=D006,D004
            import hashlib

            def f(t_us, u_us):
                return t_us == u_us
            """,
        )
        assert lint_file(f) == []


class TestEngine:
    def test_package_relative(self):
        assert package_relative(Path("src/repro/sim/rng.py")) == "sim/rng.py"
        assert package_relative(Path("/a/b/repro/sweep/spec.py")) == "sweep/spec.py"
        assert package_relative(Path("scratch/mod.py")) == "mod.py"

    def test_syntax_error_yields_d000(self, tmp_path):
        f = put(tmp_path, "repro/core/mod.py", "def broken(:\n")
        diags = lint_file(f)
        assert codes(diags) == ["D000"]
        assert "does not parse" in diags[0].message

    def test_directory_expansion_is_sorted_and_stable(self, tmp_path):
        put(tmp_path, "repro/mac/b.py", "import hashlib\n")
        put(tmp_path, "repro/mac/a.py", "import hashlib\n")
        first = lint_paths([tmp_path])
        second = lint_paths([tmp_path])
        assert first == second
        assert [d.path for d in first] == sorted(d.path for d in first)

    def test_custom_config_scopes_rules(self, tmp_path):
        f = put(tmp_path, "repro/analysis/mod.py", "x = [y for y in set(range(3))]\n")
        widened = LintConfig(ordered_packages=frozenset({"analysis"}))
        assert lint_file(f) == []
        assert codes(lint_file(f, config=widened)) == ["D003"]

    def test_repo_tree_is_clean(self):
        # The CI gate: the shipped package has no findings and no baseline.
        diags = lint_paths([SRC_REPRO])
        assert diags == [], "\n".join(d.render() for d in diags)


class TestBaseline:
    def test_roundtrip_suppresses_exactly_once(self, tmp_path):
        f = put(tmp_path, "repro/mac/mod.py", "import hashlib\n")
        diags = lint_file(f)
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, diags)
        baseline = load_baseline(baseline_file)
        assert apply_baseline(diags, baseline) == []
        # A second identical finding is NOT grandfathered.
        doubled = diags + [Diagnostic(diags[0].path, 9, 0, "D006", diags[0].message)]
        fresh = apply_baseline(doubled, load_baseline(baseline_file))
        assert codes(fresh) == ["D006"]

    def test_new_findings_survive_baseline(self, tmp_path):
        f = put(tmp_path, "repro/mac/mod.py", "import hashlib\n")
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, lint_file(f))
        put(
            tmp_path,
            "repro/mac/mod.py",
            """
            import hashlib

            def f(xs=[]):
                return xs
            """,
        )
        fresh = apply_baseline(lint_file(f), load_baseline(baseline_file))
        assert codes(fresh) == ["D005"]

    def test_malformed_baseline_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestCli:
    def test_exit_one_on_findings(self, tmp_path, capsys):
        f = put(tmp_path, "repro/mac/mod.py", "import hashlib\n")
        assert main(["lint", str(f)]) == 1
        out = capsys.readouterr().out
        assert "D006" in out and "repro/mac/mod.py" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        f = put(tmp_path, "repro/mac/mod.py", "VALUE = 3\n")
        assert main(["lint", str(f)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_baseline_workflow_exit_codes(self, tmp_path):
        f = put(tmp_path, "repro/mac/mod.py", "import hashlib\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(f), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert main(["lint", str(f), "--baseline", str(baseline)]) == 0
        put(tmp_path, "repro/mac/mod.py", "import hashlib\nfrom hashlib import sha1\n")
        assert main(["lint", str(f), "--baseline", str(baseline)]) == 1

    def test_usage_errors_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(tmp_path / "missing.py")])
        assert exc.value.code == 2
        f = put(tmp_path, "repro/mac/mod.py", "VALUE = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(f), "--write-baseline"])
        assert exc.value.code == 2

    def test_list_rules_covers_all_codes(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("D001", "D002", "D003", "D004", "D005", "D006"):
            assert code in out

    def test_module_entry_point_matches_the_subcommand(self, capsys):
        env = dict(os.environ, PYTHONPATH=str(SRC_REPRO.parent))
        module = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True, env=env, check=True,
        )
        assert main(["lint", "--list-rules"]) == 0
        assert module.stdout == capsys.readouterr().out.encode()

    def test_experiments_cli_lint_subcommand(self, tmp_path):
        from repro.experiments.cli import main as repro_main

        dirty = put(tmp_path, "repro/mac/mod.py", "import hashlib\n")
        clean = put(tmp_path, "repro/mac/ok.py", "VALUE = 3\n")
        assert repro_main(["lint", str(clean)]) == 0
        assert repro_main(["lint", str(dirty)]) == 1
