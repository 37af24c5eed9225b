"""``repro.lint`` — AST-enforced determinism, durability, and degradation contracts.

The repo's parity guarantees (bit-identical sampling across backends,
bit-exact crash recovery, never-silently-inexact degradation) rest on
code conventions that goldens only catch *after* they break.  This
package checks the conventions themselves, statically, on every change:

>>> from repro.lint import lint_paths
>>> report = lint_paths(["src"])          # doctest: +SKIP
>>> [f.format() for f in report.findings] # doctest: +SKIP

Run it as ``repro-sparsify lint`` (``python -m repro.cli lint``); any
finding fails the run.  The rules live in one table,
:data:`~repro.lint.rules.RULES`, which ``--list-rules`` prints.
"""

from repro.lint.engine import LintReport, lint_paths, lint_source
from repro.lint.model import FileContext, Finding
from repro.lint.rules import RULES, RuleSpec

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "RULES",
    "RuleSpec",
    "lint_paths",
    "lint_source",
]
