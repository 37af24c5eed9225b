"""Tests for repro.lint — the AST invariant checker.

Structure mirrors the package: one test class per rule (positive fixture
that must fire, negative fixture that must not), then the engine
machinery (suppressions and their audit, syntax errors), the CLI exit
codes, the ``RULES`` table — and finally the meta-test: the linter run
over the real ``src/`` tree must report zero findings, i.e. the repo
obeys its own contracts.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths, lint_source
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

    def test_unknown_rule_id_exits_2(self, lint_tree, capsys):
        assert lint_main(["src", "--rules", "REP001", "REP123"]) == 2
        err = capsys.readouterr().err
        assert "REP123" in err and "REP001," in err  # names the unknown id, lists the table


# --------------------------------------------------------------------- #
# The RULES table
# --------------------------------------------------------------------- #


class TestRegistry:
    def test_builtin_rules_registered(self):
        ids = tuple(RULES)
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007"):
            assert rule_id in ids
        assert len(ids) >= 6

    def test_descriptions_have_titles(self):
        for rule_id, spec in RULES.items():
            assert spec.title, rule_id
            assert spec.rule_id == rule_id


# --------------------------------------------------------------------- #
# Meta: the repo passes its own linter
# --------------------------------------------------------------------- #


class TestRepoIsClean:
    def test_src_has_zero_nonbaselined_findings(self):
        report = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        found = "\n".join(f.format() for f in report.findings)
        assert report.findings == [], f"invariant violations:\n{found}"

    def test_all_rules_ran(self):
        report = lint_paths([REPO_ROOT / "src" / "repro" / "lint"], root=REPO_ROOT)
        assert len(report.rules_run) >= 6
