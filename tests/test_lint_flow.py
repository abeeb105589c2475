"""reprolint v2: the project-wide T/E/R rule families.

Mirrors ``tests/test_lint.py``'s structure — per rule at least one
positive case, one negative case, and one pragma-suppression case — plus
the project-model unit tests, the synthetic cross-timebase-bug fixture
the ISSUE requires, and the acceptance-criteria injections: a
cross-timebase addition, an unknown ``emit()`` event name, and an
unseeded RNG at the protocol seam must each be caught.

The repo-tree-clean gate itself lives in ``tests/test_lint.py``
(``test_repo_tree_is_clean``) and now covers these families too, since
the engine's default ruleset includes them.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

from repro.experiments.cli import main
from repro.lint import (
    ALL_RULES,
    FLOW_RULES,
    RULES,
    ProjectModel,
    build_module_info,
    lint_file,
    lint_paths,
    render_json,
)
from repro.lint.flowrules import load_event_schemas
from repro.lint.project import module_name
from repro.lint.timebase import unit_of_expr, unit_of_identifier

#: Just the project-wide families — most cases below use these so the
#: D-series (tested in test_lint.py) cannot muddy the assertion.
FLOW = FLOW_RULES


def put(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def codes(diags) -> list:
    return [d.code for d in diags]


# ---------------------------------------------------------------------------
# Unit inference and the project model
# ---------------------------------------------------------------------------


class TestTimebaseInference:
    def test_suffix_units(self):
        assert unit_of_identifier("offset_us") == "us"
        assert unit_of_identifier("period_ms") == "ms"
        assert unit_of_identifier("horizon_s") == "s"
        assert unit_of_identifier("stamp_tu") == "tu"
        assert unit_of_identifier("offset") is None
        # A bare suffix is not a unit-carrying name.
        assert unit_of_identifier("_us") is None

    def test_conversion_calls_and_transparency(self):
        tree = ast.parse("abs(us_to_s(x)) + float(chain.hw_at(y))")
        expr = tree.body[0].value
        assert unit_of_expr(expr.left) == "s"
        assert unit_of_expr(expr.right) == "us"

    def test_mult_erases_domain(self):
        expr = ast.parse("duration_s * 1e6").body[0].value
        assert unit_of_expr(expr) is None

    def test_annotated_env_overrides_suffix(self):
        expr = ast.parse("delay").body[0].value
        assert unit_of_expr(expr, {"delay": "us"}) == "us"


class TestProjectModel:
    def test_module_name(self):
        assert module_name("mac/contention.py") == "repro.mac.contention"
        assert module_name("obs/__init__.py") == "repro.obs"
        assert module_name("__init__.py") == "repro"

    def test_symbol_table_and_resolution(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                class Chain:
                    def __init__(self, start_us):
                        pass
                    def hw_at(self, true_us):
                        pass

                def convert(value_us, scale):
                    pass
                """
            )
        )
        info = build_module_info("clocks/chain.py", tree)
        project = ProjectModel([info])
        sig = project.resolve_function("repro.clocks.chain.convert")
        assert sig is not None and sig.params[0].unit == "us"
        ctor = project.resolve_function("repro.clocks.chain.Chain")
        assert ctor is not None and [p.name for p in ctor.params] == ["start_us"]
        method = project.resolve_function("repro.clocks.chain.Chain.hw_at")
        assert method is not None and method.params[0].name == "true_us"

    def test_reexport_resolution_through_init(self):
        context = build_module_info(
            "obs/context.py", ast.parse("def emit(event, t_us=None):\n    pass\n")
        )
        init = build_module_info(
            "obs/__init__.py", ast.parse("from repro.obs.context import emit\n")
        )
        project = ProjectModel([context, init])
        sig = project.resolve_function("repro.obs.emit")
        assert sig is not None and sig.qualname == "emit"

    def test_import_graph_edges(self):
        info = build_module_info(
            "core/engine.py",
            ast.parse(
                "import repro.sim.units\nfrom repro.clocks import chain\nimport os\n"
            ),
        )
        assert info.imports == ("repro.sim.units", "repro.clocks")


# ---------------------------------------------------------------------------
# T-series: timebase flow
# ---------------------------------------------------------------------------


class TestT101CrossTimebaseArithmetic:
    def test_fires_on_mixed_addition(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(t_us, timeout_s):
                return t_us + timeout_s
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T101"]

    def test_fires_on_augmented_assignment(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(t_us, step_ms):
                t_us -= step_ms
                return t_us
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T101"]

    def test_same_domain_and_unknown_are_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(t_us, dt_us, count):
                return t_us + dt_us + count
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_rescale_through_multiplication_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(t_us, duration_s):
                return t_us + duration_s * 1e6
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_conversion_call_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.sim.units import s_to_us

            def f(t_us, duration_s):
                return t_us + s_to_us(duration_s)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(t_us, timeout_s):
                return t_us + timeout_s  # reprolint: disable=T101 -- fixture
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_nested_conflict_reports_once(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(a_us, b_s, c_us):
                return (a_us + b_s) + c_us
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T101"]


class TestT102CrossTimebaseComparison:
    def test_fires_on_mixed_comparison(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(delay_us, timeout_s):
                return delay_us > timeout_s
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T102"]

    def test_annotated_parameter_supplies_unit(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from typing import Annotated

            def f(delay: Annotated[float, "us"], timeout_s: float):
                return delay < timeout_s
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T102"]

    def test_same_domain_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(delay_us, guard_us):
                return delay_us >= guard_us
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(delay_us, timeout_s):
                # reprolint: disable-next=T102
                return delay_us > timeout_s
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestT103CallArgumentUnits:
    def test_cross_module_positional_mismatch(self, tmp_path):
        put(
            tmp_path,
            "repro/clocks/conv.py",
            """
            def schedule(at_us):
                return at_us
            """,
        )
        caller = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.clocks.conv import schedule

            def f(now_s):
                return schedule(now_s)
            """,
        )
        findings = lint_paths([tmp_path / "repro"], rules=FLOW)
        assert codes(findings) == ["T103"]
        assert findings[0].path == caller.as_posix()

    def test_keyword_suffix_mismatch_without_resolution(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(helper, now_s):
                helper.fire(at_us=now_s)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T103"]

    def test_converter_param_units(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.sim.units import us_to_s

            def f(period_s):
                return us_to_s(period_s)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["T103"]

    def test_matching_units_are_clean(self, tmp_path):
        put(
            tmp_path,
            "repro/clocks/conv.py",
            """
            def schedule(at_us):
                return at_us
            """,
        )
        put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.clocks.conv import schedule

            def f(now_us, count):
                return schedule(now_us) + count
            """,
        )
        assert codes(lint_paths([tmp_path / "repro"], rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.sim.units import us_to_s

            def f(period_s):
                return us_to_s(period_s)  # reprolint: disable=T103 -- fixture
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestSyntheticCrossTimebaseFixture:
    """The ISSUE's synthetic fixture: a module mixing µs and TU values
    without conversion must light up the T-series across statement,
    branch and call-boundary forms at once."""

    def test_fixture_is_fully_flagged(self, tmp_path):
        put(
            tmp_path,
            "repro/clocks/sync.py",
            """
            def apply_offset(base_us, delta_us):
                return base_us + delta_us
            """,
        )
        bug = put(
            tmp_path,
            "repro/core/bug.py",
            """
            from repro.clocks.sync import apply_offset

            TU_US = 1024.0

            def ingest(stamp_tu, local_us, guard_us):
                skew = stamp_tu - local_us
                if stamp_tu > guard_us:
                    return apply_offset(local_us, stamp_tu)
                corrected_us = stamp_tu * TU_US
                return apply_offset(local_us, corrected_us)
            """,
        )
        findings = lint_paths([tmp_path / "repro"], rules=FLOW)
        assert codes(findings) == ["T101", "T102", "T103"]
        assert all(d.path == bug.as_posix() for d in findings)


# ---------------------------------------------------------------------------
# E-series: trace contract
# ---------------------------------------------------------------------------


class TestE201UnknownEvent:
    def test_unknown_event_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us):
                emit("beacon_lost", t_us=t_us, node=1)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E201"]

    def test_non_literal_event_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(name, t_us):
                emit(name, t_us=t_us, node=1)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E201"]

    def test_known_event_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, diff_us, threshold_us):
                emit(
                    "guard_reject",
                    t_us=t_us,
                    node=1,
                    diff_us=diff_us,
                    threshold_us=threshold_us,
                )
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_other_emit_functions_are_ignored(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            def f(bus, t_us):
                bus.emit("not_an_event", t_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us):
                emit("beacon_lost", t_us=t_us, node=1)  # reprolint: disable=E201 -- fixture
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestE202MissingFields:
    def test_missing_payload_field_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, diff_us):
                emit("guard_reject", t_us=t_us, node=1, diff_us=diff_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E202"]

    def test_missing_required_envelope_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(diff_us, threshold_us):
                emit("guard_reject", node=1, diff_us=diff_us, threshold_us=threshold_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E202"]

    def test_star_kwargs_forwarding_is_skipped(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, **payload):
                emit("guard_reject", t_us=t_us, node=1, **payload)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_optional_field_not_required(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, n):
                emit("contention_win", t_us=t_us, node=1, contenders=n)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, diff_us):
                # reprolint: disable-next=E202
                emit("guard_reject", t_us=t_us, node=1, diff_us=diff_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestE203UndeclaredFields:
    def test_extra_payload_field_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, diff_us, threshold_us):
                emit(
                    "guard_reject",
                    t_us=t_us,
                    node=1,
                    diff_us=diff_us,
                    threshold_us=threshold_us,
                    verdict="reject",
                )
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E203"]

    def test_forbidden_envelope_field_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, samples, survivors, offset_us):
                emit(
                    "coarse_done",
                    t_us=t_us,
                    node=1,
                    samples=samples,
                    survivors=survivors,
                    offset_us=offset_us,
                )
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E203"]

    def test_declared_optional_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, n, c):
                emit("contention_win", t_us=t_us, node=1, contenders=n, collisions=c)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, diff_us, threshold_us):
                # reprolint: disable-next=E203
                emit("guard_reject", t_us=t_us, node=1, diff_us=diff_us, threshold_us=threshold_us, why="x")
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestE204PayloadUnits:
    def test_non_us_suffixed_key_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us, diff_ms, threshold_us):
                emit("guard_reject", t_us=t_us, node=1, diff_ms=diff_ms, threshold_us=threshold_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E202", "E203", "E204"]

    def test_value_unit_contradicting_us_key_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(local_s, diff_us, threshold_us):
                emit("guard_reject", t_us=local_s, node=1, diff_us=diff_us, threshold_us=threshold_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["E204"]

    def test_us_values_are_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(now_us, diff_us, threshold_us):
                emit("guard_reject", t_us=now_us, node=1, diff_us=diff_us, threshold_us=threshold_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(local_s, diff_us, threshold_us):
                # reprolint: disable-next=E204
                emit("guard_reject", t_us=local_s, node=1, diff_us=diff_us, threshold_us=threshold_us)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestSchemaSharing:
    """The E-series must consume the same inventory the runtime uses."""

    def test_linter_schema_is_runtime_schema(self):
        from repro.obs import EVENT_SCHEMAS
        from repro.obs.events import EVENT_CATALOG

        lint_view = load_event_schemas()
        assert lint_view is not None
        assert set(lint_view) == set(EVENT_SCHEMAS) == set(EVENT_CATALOG)
        for name, spec in EVENT_SCHEMAS.items():
            assert lint_view[name].required == spec.required
            assert lint_view[name].optional == spec.optional
            assert lint_view[name].t_us == spec.t_us
            assert lint_view[name].node == spec.node


# ---------------------------------------------------------------------------
# R-series: RNG streams
# ---------------------------------------------------------------------------


class TestR301StrayConstruction:
    def test_unseeded_fires_anywhere(self, tmp_path):
        f = put(
            tmp_path,
            "repro/analysis/mod.py",
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["R301"]

    def test_seeded_in_kernel_package_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["R301"]

    def test_seeded_in_orchestration_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/experiments/mod.py",
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_rng_factory_module_is_allowlisted(self, tmp_path):
        f = put(
            tmp_path,
            "repro/sim/rng.py",
            """
            import numpy as np

            def stream(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)  # reprolint: disable=R301 -- fixture
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestR302SeamCrossing:
    def test_rng_parameter_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/protocols/multihop_custom.py",
            """
            class P:
                def __init__(self, node_id, rng):
                    self.node_id = node_id
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["R302"]

    def test_rng_attribute_store_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/protocols/multihop_custom.py",
            """
            class P:
                def seed(self, registry):
                    self._rng = registry.stream("p")
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["R302"]

    def test_seam_base_module_is_exempt(self, tmp_path):
        f = put(
            tmp_path,
            "repro/protocols/multihop_base.py",
            """
            class Ctx:
                def __init__(self, slot_rng):
                    self.slot_rng = slot_rng
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_single_hop_protocols_not_in_scope(self, tmp_path):
        f = put(
            tmp_path,
            "repro/protocols/tsf.py",
            """
            class Tsf:
                def __init__(self, rng):
                    self.rng = rng
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/protocols/multihop_custom.py",
            """
            class P:
                def __init__(self, node_id, rng):  # reprolint: disable=R302 -- fixture
                    self.node_id = node_id
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


class TestR303DrawInUnorderedIteration:
    def test_draw_in_set_loop_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def f(rng, members):
                out = {}
                for node in set(members):
                    out[node] = rng.normal()
                return out
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["R303"]

    def test_draw_in_dict_keys_comprehension_fires(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def f(slot_rng, table):
                return [slot_rng.uniform() for k in table.keys()]
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == ["R303"]

    def test_sorted_iteration_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def f(rng, members):
                out = {}
                for node in sorted(set(members)):
                    out[node] = rng.normal()
                return out
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_non_rng_receiver_is_clean(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def f(sampler, members):
                return [sampler.normal() for m in set(members)]
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []

    def test_pragma_suppresses(self, tmp_path):
        f = put(
            tmp_path,
            "repro/network/mod.py",
            """
            def f(rng, members):
                out = {}
                for node in set(members):
                    out[node] = rng.normal()  # reprolint: disable=R303 -- fixture
                return out
            """,
        )
        assert codes(lint_file(f, rules=FLOW)) == []


# ---------------------------------------------------------------------------
# Acceptance-criteria injections (tentpole exit criteria)
# ---------------------------------------------------------------------------


class TestAcceptanceInjections:
    """Each deliberately injected bug class must be caught by the full
    default ruleset, exactly as the CI gate would see it."""

    def test_injected_cross_timebase_addition(self, tmp_path):
        put(
            tmp_path,
            "repro/clocks/mod.py",
            """
            def advance(now_us, horizon_s):
                return now_us + horizon_s
            """,
        )
        findings = lint_paths([tmp_path / "repro"])
        assert "T101" in codes(findings)

    def test_injected_unknown_emit_event(self, tmp_path):
        put(
            tmp_path,
            "repro/core/mod.py",
            """
            from repro.obs.context import emit

            def f(t_us):
                emit("beacon_dropped", t_us=t_us, node=3)
            """,
        )
        findings = lint_paths([tmp_path / "repro"])
        assert "E201" in codes(findings)

    def test_injected_unseeded_rng_at_seam(self, tmp_path):
        put(
            tmp_path,
            "repro/protocols/multihop_custom.py",
            """
            import numpy as np

            class P:
                def __init__(self, node_id):
                    self._rng = np.random.default_rng()
            """,
        )
        findings = lint_paths([tmp_path / "repro"])
        assert {"R301", "R302"} <= set(codes(findings))


# ---------------------------------------------------------------------------
# CLI: --format json
# ---------------------------------------------------------------------------


class TestJsonFormat:
    def test_json_report_is_byte_stable_and_sorted(self, tmp_path, capsys):
        put(
            tmp_path,
            "repro/core/b.py",
            """
            def f(t_us, timeout_s):
                return t_us + timeout_s
            """,
        )
        put(
            tmp_path,
            "repro/core/a.py",
            """
            def g(delay_us, timeout_s):
                return delay_us > timeout_s
            """,
        )
        target = str(tmp_path / "repro")
        assert main(["lint", target, "--format", "json"]) == 1
        first = capsys.readouterr().out
        assert main(["lint", target, "--format", "json"]) == 1
        second = capsys.readouterr().out
        assert first == second  # byte-identical across runs
        doc = json.loads(first)
        assert doc["version"] == 1
        assert doc["finding_count"] == 2
        paths = [f["path"] for f in doc["findings"]]
        assert paths == sorted(paths)
        assert {f["code"] for f in doc["findings"]} == {"T101", "T102"}

    def test_json_clean_tree(self, tmp_path, capsys):
        put(tmp_path, "repro/core/ok.py", "X = 1\n")
        assert main(["lint", str(tmp_path / "repro"), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == [] and doc["finding_count"] == 0

    def test_text_remains_default(self, tmp_path, capsys):
        put(
            tmp_path,
            "repro/core/b.py",
            """
            def f(t_us, timeout_s):
                return t_us + timeout_s
            """,
        )
        assert main(["lint", str(tmp_path / "repro")]) == 1
        out = capsys.readouterr().out
        assert "T101" in out and not out.lstrip().startswith("{")

    def test_render_json_trailing_newline(self):
        assert render_json([], 0).endswith("\n")

    def test_list_rules_covers_all_families(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out
        assert len(ALL_RULES) == len(RULES) + len(FLOW_RULES)
