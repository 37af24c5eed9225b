"""The invariant-lint engine: walk files, run rules, apply suppressions.

The engine is deliberately dumb about *what* is checked — rules own that
(:mod:`repro.lint.rules`) — and smart about everything around it:

* **Suppressions.**  ``# repro: noqa[REP001]`` (ids comma-separated) on a
  line exempts that line from the named rules.  Suppressions are
  *audited*: one that stops matching any finding is itself reported as
  ``REP000`` (unused suppression), so a pragma cannot outlive the
  violation it excused.
* **Determinism.**  Files are walked in sorted order and findings are
  sorted, so two runs over the same tree emit byte-identical reports —
  the linter holds itself to the contract it enforces.
* **Syntax errors** are reported as ``REP999`` findings rather than
  crashing the run: a file the linter cannot parse is a file whose
  invariants are unchecked, which is exactly what the report must say.

The rules come from the one table :data:`repro.lint.rules.RULES`; a
``rules=`` selection names ids in it.  Every finding left after
suppression counts.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.model import FileContext, Finding
from repro.lint.rules import RULES

__all__ = [
    "LintReport",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "SUPPRESSION_PATTERN",
]

# Matches the comment forms "repro: noqa[REP001]" and
# "repro: noqa[REP001, REP006]" (hash prefix required).
SUPPRESSION_PATTERN = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9,\s]+)\]")

# Engine-emitted pseudo-rules (not in RULES, not suppressible).
UNUSED_SUPPRESSION_RULE = "REP000"
SYNTAX_ERROR_RULE = "REP999"


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``findings`` is the post-suppression list (including ``REP000``
    unused-suppression and ``REP999`` parse-failure findings);
    ``suppressed`` records what the pragmas hid, for ``--json`` audits.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked

    def sort(self) -> None:
        self.findings.sort()
        self.suppressed.sort()


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map 1-indexed line number to the rule ids suppressed on it.

    Pragmas are recognised only in real ``#`` comments (via tokenize),
    never inside string literals — documentation *about* the pragma
    syntax must not create suppressions.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    for lineno, comment in comments:
        match = SUPPRESSION_PATTERN.search(comment)
        if match:
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if ids:
                suppressions[lineno] = ids
    return suppressions


def lint_source(
    source: str,
    *,
    display_path: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint one in-memory source string (the fixture-test entry point).

    ``module`` overrides the dotted module name rules scope on; fixture
    tests use it to place a snippet "inside" ``repro.streaming`` without
    touching the real tree.
    """
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                path=display_path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                rule=SYNTAX_ERROR_RULE,
                message=f"file does not parse, invariants unchecked: {exc.msg}",
            )
        )
        report.rules_run = _rule_ids(rules)
        return report

    from repro.lint.model import _collect_imports, _module_name_for  # local: private helpers

    ctx = FileContext(
        path=display_path,
        module=module if module is not None else _module_name_for(Path(display_path)),
        source=source,
        lines=source.splitlines(),
        tree=tree,
        imports=_collect_imports(tree),
    )
    return _lint_context(ctx, rules=rules)


def _rule_ids(rules: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The selected rule ids, or every id in :data:`RULES`."""
    return tuple(RULES) if rules is None else tuple(rules)


def _lint_context(ctx: FileContext, *, rules: Optional[Sequence[str]] = None) -> LintReport:
    rule_ids = _rule_ids(rules)
    report = LintReport(files_checked=1, rules_run=rule_ids)
    raw: List[Finding] = []
    for rule_id in rule_ids:
        raw.extend(RULES[rule_id].checker(ctx))

    suppressions = _parse_suppressions(ctx.source)
    used: Dict[int, Set[str]] = {}
    for finding in raw:
        ids = suppressions.get(finding.line)
        if ids is not None and finding.rule in ids:
            used.setdefault(finding.line, set()).add(finding.rule)
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    # Audit the pragmas themselves: every suppressed id must have hidden
    # at least one finding on its line, or it is dead weight that would
    # silently excuse a *future* violation.
    for line, ids in sorted(suppressions.items()):
        for rule_id in sorted(ids - used.get(line, set())):
            report.findings.append(
                Finding(
                    path=ctx.path,
                    line=line,
                    col=1,
                    rule=UNUSED_SUPPRESSION_RULE,
                    message=(
                        f"unused suppression: no {rule_id} finding on this line; "
                        "remove the pragma (stale pragmas excuse future violations)"
                    ),
                )
            )
    report.sort()
    return report


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterable[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    Finding paths are reported relative to ``root`` (default: the current
    working directory) in POSIX form, so reports are stable across
    machines.  ``rules`` must name ids in :data:`RULES` (``KeyError``
    otherwise).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    combined = LintReport(rules_run=_rule_ids(rules))
    for file_path in iter_python_files(paths):
        try:
            display = file_path.resolve().relative_to(root_path.resolve()).as_posix()
        except ValueError:
            display = file_path.as_posix()
        report = lint_source(
            file_path.read_text(encoding="utf-8"),
            display_path=display,
            rules=rules,
        )
        combined.extend(report)
    combined.sort()
    return combined
