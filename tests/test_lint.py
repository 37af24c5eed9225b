"""Tests for repro.lint — the AST invariant checker.

Structure mirrors the package: one test class per rule (positive fixture
that must fire, negative fixture that must not), then the engine
machinery (suppressions and their audit, syntax errors), the baseline
ratchet semantics, the CLI exit codes, the plugin registry — and finally
the meta-test: the linter run over the real ``src/`` tree must report
zero non-baselined findings, i.e. the repo obeys its own contracts.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    BaselineError,
    Finding,
    LintRuleError,
    available_rules,
    lint_paths,
    lint_source,
    register_rule,
    rule_descriptions,
    unregister_rule,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import SYNTAX_ERROR_RULE, UNUSED_SUPPRESSION_RULE

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_hit(source, *, module="repro.somewhere", rules=None):
    """Rule ids reported for a dedented snippet linted as ``module``."""
    report = lint_source(textwrap.dedent(source), module=module, rules=rules)
    return [finding.rule for finding in report.findings]


# --------------------------------------------------------------------- #
# REP001 — RNG discipline
# --------------------------------------------------------------------- #


class TestRngDiscipline:
    def test_argless_default_rng_fires(self):
        src = """
            import numpy as np
            rng = np.random.default_rng()
        """
        assert rules_hit(src, rules=["REP001"]) == ["REP001"]

    def test_seeded_default_rng_clean(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(1234)
        """
        assert rules_hit(src, rules=["REP001"]) == []

    def test_argless_seedsequence_fires(self):
        src = """
            from numpy.random import SeedSequence
            ss = SeedSequence()
        """
        assert rules_hit(src, rules=["REP001"]) == ["REP001"]

    def test_seedsequence_with_entropy_clean(self):
        src = """
            from numpy.random import SeedSequence
            ss = SeedSequence(42)
        """
        assert rules_hit(src, rules=["REP001"]) == []

    def test_stdlib_random_import_fires(self):
        assert rules_hit("import random\n", rules=["REP001"]) == ["REP001"]
        assert rules_hit("from random import shuffle\n", rules=["REP001"]) == ["REP001"]

    def test_aliased_import_is_resolved(self):
        src = """
            from numpy import random as nr
            rng = nr.default_rng()
        """
        assert rules_hit(src, rules=["REP001"]) == ["REP001"]

    def test_rng_seam_module_is_exempt(self):
        src = """
            import numpy as np
            def fresh():
                return np.random.SeedSequence()
        """
        assert rules_hit(src, module="repro.utils.rng", rules=["REP001"]) == []


# --------------------------------------------------------------------- #
# REP002 — nondeterminism hazards
# --------------------------------------------------------------------- #


class TestNondeterminism:
    def test_time_time_fires_outside_allowlist(self):
        src = """
            import time
            stamp = time.time()
        """
        assert rules_hit(src, rules=["REP002"]) == ["REP002"]

    def test_time_time_allowed_in_timing_module(self):
        src = """
            import time
            stamp = time.time()
        """
        assert rules_hit(src, module="repro.parallel.failure", rules=["REP002"]) == []

    def test_perf_counter_clean(self):
        src = """
            import time
            start = time.perf_counter()
        """
        assert rules_hit(src, rules=["REP002"]) == []

    def test_os_urandom_and_uuid4_fire(self):
        src = """
            import os
            import uuid
            token = os.urandom(8)
            ident = uuid.uuid4()
        """
        assert rules_hit(src, rules=["REP002"]) == ["REP002", "REP002"]

    def test_array_from_set_fires(self):
        src = """
            import numpy as np
            arr = np.array({3, 1, 2})
            srt = np.asarray(set(values))
        """
        assert rules_hit(src, rules=["REP002"]) == ["REP002", "REP002"]

    def test_array_from_sorted_set_clean(self):
        src = """
            import numpy as np
            arr = np.array(sorted({3, 1, 2}))
        """
        assert rules_hit(src, rules=["REP002"]) == []


# --------------------------------------------------------------------- #
# REP003 — durability-seam bypass
# --------------------------------------------------------------------- #


class TestDurabilitySeam:
    def test_raw_os_replace_fires_in_streaming(self):
        src = """
            import os
            def rotate(a, b):
                os.replace(a, b)
        """
        assert rules_hit(src, module="repro.streaming.store", rules=["REP003"]) == ["REP003"]

    def test_write_mode_open_fires_in_checkpoint(self):
        src = """
            def save(path, text):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
        """
        assert rules_hit(src, module="repro.core.checkpoint", rules=["REP003"]) == ["REP003"]

    def test_read_open_is_allowed(self):
        # Recovery must be able to read whatever survived the crash.
        src = """
            def load(path):
                with open(path, "r", encoding="utf-8") as fh:
                    return fh.read()
        """
        assert rules_hit(src, module="repro.streaming.journal", rules=["REP003"]) == []

    def test_durableio_methods_are_the_seam(self):
        src = """
            import os
            class DurableIO:
                def replace(self, a, b):
                    os.replace(a, b)
                def write_bytes(self, path, data):
                    with open(path, "wb") as fh:
                        fh.write(data)
        """
        assert rules_hit(src, module="repro.core.checkpoint", rules=["REP003"]) == []

    def test_outside_durable_layer_not_scoped(self):
        src = """
            import os
            os.replace("a", "b")
        """
        assert rules_hit(src, module="repro.graphs.io", rules=["REP003"]) == []

    def test_io_object_calls_do_not_match(self):
        # self._io.replace is the seam in use, not a bypass.
        src = """
            def rotate(self, a, b):
                self._io.replace(a, b)
        """
        assert rules_hit(src, module="repro.streaming.store", rules=["REP003"]) == []


# --------------------------------------------------------------------- #
# REP004 — warnings.warn discipline
# --------------------------------------------------------------------- #


class TestWarningDiscipline:
    def test_warn_without_stacklevel_fires(self):
        src = """
            import warnings
            warnings.warn("degraded")
        """
        assert rules_hit(src, rules=["REP004"]) == ["REP004"]

    def test_warn_with_stacklevel_clean(self):
        src = """
            import warnings
            warnings.warn("degraded", RuntimeWarning, stacklevel=2)
        """
        assert rules_hit(src, rules=["REP004"]) == []


# --------------------------------------------------------------------- #
# REP005 — broad excepts need a reason
# --------------------------------------------------------------------- #


class TestBroadExcept:
    def test_unreasoned_broad_except_fires(self):
        src = """
            try:
                work()
            except Exception:
                pass
        """
        assert rules_hit(src, rules=["REP005"]) == ["REP005"]

    def test_bare_except_fires(self):
        src = """
            try:
                work()
            except:
                pass
        """
        assert rules_hit(src, rules=["REP005"]) == ["REP005"]

    def test_reason_pragma_clears(self):
        src = """
            try:
                work()
            except Exception:  # repro: broad-except policy layer sees every failure
                record()
        """
        assert rules_hit(src, rules=["REP005"]) == []

    def test_noqa_ble001_with_reason_clears(self):
        src = """
            try:
                work()
            except BaseException:  # noqa: BLE001 - must cancel peers on KeyboardInterrupt
                cancel()
        """
        assert rules_hit(src, rules=["REP005"]) == []

    def test_narrow_except_clean(self):
        src = """
            try:
                work()
            except (ValueError, OSError):
                pass
        """
        assert rules_hit(src, rules=["REP005"]) == []


# --------------------------------------------------------------------- #
# REP006 — per-edge loops in hot paths
# --------------------------------------------------------------------- #


class TestPerEdgeLoops:
    def test_for_loop_over_edge_array_fires_in_hot_path(self):
        src = """
            def slow(graph):
                total = 0.0
                for u in graph.edge_u:
                    total += u
                return total
        """
        assert rules_hit(src, module="repro.core.sample", rules=["REP006"]) == ["REP006"]

    def test_comprehension_over_edge_array_fires(self):
        src = """
            def slow(edge_weights):
                return [w * 2 for w in edge_weights]
        """
        assert rules_hit(src, module="repro.spanners.bundle", rules=["REP006"]) == ["REP006"]

    def test_vectorised_code_clean(self):
        src = """
            import numpy as np
            def fast(graph):
                return np.add.reduce(graph.edge_weights)
        """
        assert rules_hit(src, module="repro.core.sample", rules=["REP006"]) == []

    def test_reference_modules_not_scoped(self):
        src = """
            def reference(graph):
                return [u for u in graph.edge_u]
        """
        assert rules_hit(src, module="repro.spanners._reference", rules=["REP006"]) == []


# --------------------------------------------------------------------- #
# REP007 — text-mode open without encoding
# --------------------------------------------------------------------- #


class TestOpenEncoding:
    def test_text_open_without_encoding_fires(self):
        src = """
            with open("notes.txt") as fh:
                fh.read()
        """
        assert rules_hit(src, rules=["REP007"]) == ["REP007"]

    def test_path_open_method_fires(self):
        src = """
            def load(path):
                with path.open("r") as fh:
                    return fh.read()
        """
        assert rules_hit(src, rules=["REP007"]) == ["REP007"]

    def test_binary_open_clean(self):
        src = """
            with open("blob.bin", "rb") as fh:
                fh.read()
        """
        assert rules_hit(src, rules=["REP007"]) == []

    def test_encoding_keyword_clean(self):
        src = """
            with open("notes.txt", encoding="utf-8") as fh:
                fh.read()
        """
        assert rules_hit(src, rules=["REP007"]) == []

    def test_read_text_and_write_text_without_encoding_fire(self):
        src = """
            from pathlib import Path

            def copy(path):
                Path("copy.txt").write_text(path.read_text())
        """
        assert rules_hit(src, rules=["REP007"]) == ["REP007", "REP007"]

    def test_read_text_and_write_text_with_encoding_clean(self):
        src = """
            def copy(path, target):
                target.write_text(path.read_text(encoding="utf-8"), "utf-8")
                target.write_text("x", encoding="utf-8")
                return path.read_bytes()
        """
        assert rules_hit(src, rules=["REP007"]) == []


# --------------------------------------------------------------------- #
# Engine: suppressions, their audit, syntax errors
# --------------------------------------------------------------------- #


class TestSuppressions:
    def test_pragma_suppresses_named_rule(self):
        src = textwrap.dedent("""
            import numpy as np
            rng = np.random.default_rng()  # repro: noqa[REP001]
        """)
        report = lint_source(src, module="repro.somewhere", rules=["REP001"])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["REP001"]

    def test_pragma_suppresses_multiple_ids(self):
        src = textwrap.dedent("""
            import numpy as np
            import time
            x = np.array({time.time()})  # repro: noqa[REP002]
        """)
        report = lint_source(src, module="repro.somewhere", rules=["REP002"])
        assert report.findings == []
        assert len(report.suppressed) == 2  # both REP002 findings on the line

    def test_pragma_for_other_rule_does_not_suppress(self):
        src = textwrap.dedent("""
            import numpy as np
            rng = np.random.default_rng()  # repro: noqa[REP004]
        """)
        report = lint_source(src, module="repro.somewhere", rules=["REP001", "REP004"])
        rules = [f.rule for f in report.findings]
        assert "REP001" in rules  # the real finding survives
        assert UNUSED_SUPPRESSION_RULE in rules  # the useless pragma is audited

    def test_unused_suppression_reported(self):
        src = "x = 1  # repro: noqa[REP001]\n"
        report = lint_source(src, module="repro.somewhere")
        assert [f.rule for f in report.findings] == [UNUSED_SUPPRESSION_RULE]

    def test_pragma_in_string_literal_ignored(self):
        src = 'doc = "suppress with # repro: noqa[REP001]"\n'
        report = lint_source(src, module="repro.somewhere")
        assert report.findings == []

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", module="repro.somewhere")
        assert [f.rule for f in report.findings] == [SYNTAX_ERROR_RULE]


# --------------------------------------------------------------------- #
# Baseline ratchet
# --------------------------------------------------------------------- #

VIOLATION = textwrap.dedent("""
    import numpy as np
    a = np.random.default_rng()
    b = np.random.default_rng()
""")


def report_for(source, module="repro.somewhere"):
    return lint_source(source, display_path="pkg/mod.py", module=module, rules=["REP001"])


class TestBaselineRatchet:
    def test_at_ceiling_is_clean(self):
        report = report_for(VIOLATION)
        baseline = Baseline.from_report(report)
        delta = baseline.compare(report)
        assert delta.clean
        assert delta.baselined_count == 2
        assert delta.new_findings == [] and delta.stale == []

    def test_above_ceiling_fails(self):
        baseline = Baseline.from_report(report_for(VIOLATION))
        worse = report_for(VIOLATION + "c = np.random.default_rng()\n")
        delta = baseline.compare(worse)
        # The whole bucket is suspect once its ceiling is exceeded.
        assert len(delta.new_findings) == 3
        assert not delta.clean

    def test_below_ceiling_is_stale(self):
        baseline = Baseline.from_report(report_for(VIOLATION))
        better = report_for("import numpy as np\na = np.random.default_rng()\n")
        delta = baseline.compare(better)
        assert delta.new_findings == []
        assert delta.stale == [("REP001", "pkg/mod.py", 2, 1)]

    def test_fixed_entirely_is_stale(self):
        baseline = Baseline.from_report(report_for(VIOLATION))
        clean = report_for("import numpy as np\na = np.random.default_rng(7)\n")
        delta = baseline.compare(clean)
        assert delta.new_findings == []
        assert delta.stale == [("REP001", "pkg/mod.py", 2, 0)]

    def test_save_load_roundtrip(self, tmp_path):
        baseline = Baseline.from_report(report_for(VIOLATION))
        path = tmp_path / "lint-baseline.json"
        baseline.save(path)
        assert Baseline.load(path).counts == baseline.counts
        # Deterministic serialization: saving twice is byte-identical.
        first = path.read_bytes()
        baseline.save(path)
        assert path.read_bytes() == first

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert Baseline.load(tmp_path / "absent.json").counts == {}

    def test_corrupt_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            Baseline.load(path)
        path.write_text(json.dumps({"version": 99, "counts": {}}), encoding="utf-8")
        with pytest.raises(BaselineError):
            Baseline.load(path)
        path.write_text(
            json.dumps({"version": 1, "counts": {"REP001": {"a.py": 0}}}),
            encoding="utf-8",
        )
        with pytest.raises(BaselineError):
            Baseline.load(path)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


@pytest.fixture()
def lint_tree(tmp_path, monkeypatch):
    """A tiny fake repo with one violation, cwd-pinned for the CLI."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n", encoding="utf-8"
    )
    (pkg / "clean.py").write_text("VALUE = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCli:
    def test_violation_exits_1(self, lint_tree, capsys):
        assert lint_main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "dirty.py" in out

    def test_update_baseline_then_check_exits_0(self, lint_tree, capsys):
        assert lint_main(["src", "--update-baseline"]) == 0
        assert (lint_tree / "lint-baseline.json").exists()
        assert lint_main(["src", "--check"]) == 0

    def test_stale_baseline_fails_only_under_check(self, lint_tree, capsys):
        assert lint_main(["src", "--update-baseline"]) == 0
        dirty = lint_tree / "src" / "pkg" / "dirty.py"
        dirty.write_text("import numpy as np\nrng = np.random.default_rng(3)\n", encoding="utf-8")
        assert lint_main(["src"]) == 0  # advisory run: paying debt is fine
        assert lint_main(["src", "--check"]) == 1  # CI: ratchet must be tightened
        assert lint_main(["src", "--update-baseline"]) == 0
        assert lint_main(["src", "--check"]) == 0

    def test_no_baseline_reports_everything(self, lint_tree, capsys):
        assert lint_main(["src", "--update-baseline"]) == 0
        assert lint_main(["src", "--no-baseline"]) == 1

    def test_json_output_shape(self, lint_tree, capsys):
        code = lint_main(["src", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["ok"] is False
        assert payload["files_checked"] == 2
        assert [f["rule"] for f in payload["findings"]] == ["REP001"]
        assert payload["findings"][0]["path"] == "src/pkg/dirty.py"

    def test_missing_path_exits_2(self, lint_tree, capsys):
        assert lint_main(["does-not-exist"]) == 2

    def test_list_rules_table(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP007"):
            assert rule_id in out

    def test_rules_filter(self, lint_tree, capsys):
        # REP001 violation present, but only REP007 requested → clean.
        assert lint_main(["src", "--rules", "REP007"]) == 0


# --------------------------------------------------------------------- #
# Registry plugin surface
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_builtin_rules_registered(self):
        ids = available_rules()
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007"):
            assert rule_id in ids
        assert len(ids) >= 6

    def test_descriptions_have_titles(self):
        for rule_id, spec in rule_descriptions().items():
            assert spec.title, rule_id

    def test_register_and_unregister_custom_rule(self):
        @register_rule("REP901", title="no TODO markers (demo)")
        def check_todos(ctx):
            for lineno, line in enumerate(ctx.lines, 1):
                if "TODO-DEMO" in line:
                    yield Finding(
                        path=ctx.path, line=lineno, col=1,
                        rule="REP901", message="demo finding",
                    )

        try:
            assert "REP901" in available_rules()
            report = lint_source("x = 1  # TODO-DEMO\n", module="m", rules=["REP901"])
            assert [f.rule for f in report.findings] == ["REP901"]
        finally:
            unregister_rule("REP901")
        assert "REP901" not in available_rules()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(LintRuleError):
            @register_rule("REP001", title="clash")
            def clash(ctx):  # pragma: no cover - never runs
                return iter(())

    def test_invalid_rule_id_rejected(self):
        with pytest.raises(LintRuleError):
            @register_rule("NOPE1", title="bad id")
            def bad(ctx):  # pragma: no cover - never runs
                return iter(())


# --------------------------------------------------------------------- #
# Meta: the repo passes its own linter
# --------------------------------------------------------------------- #


class TestRepoIsClean:
    def test_src_has_zero_nonbaselined_findings(self):
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        delta = baseline.compare(report)
        new = "\n".join(f.format() for f in delta.new_findings)
        assert not delta.new_findings, f"non-baselined invariant violations:\n{new}"
        stale = "\n".join(str(entry) for entry in delta.stale)
        assert not delta.stale, f"stale baseline entries (ratchet down):\n{stale}"

    def test_all_rules_ran(self):
        report = lint_paths([REPO_ROOT / "src" / "repro" / "lint"], root=REPO_ROOT)
        assert len(report.rules_run) >= 6
