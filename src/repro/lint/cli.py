"""CLI for the invariant linter.

Reachable two ways with identical behavior:

* ``repro-sparsify lint ...`` — subcommand of the main console script.
* ``python -m repro.lint ...`` — standalone, importable without the rest
  of the CLI.

Exit codes: 0 clean (no finding after suppressions), 1 any finding,
2 usage errors (no such path, unknown rule id).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.engine import lint_paths
from repro.lint.rules import RULES

__all__ = ["add_lint_arguments", "run_lint_command", "build_parser", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with the main CLI)."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src/ under the current directory)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report on stdout",
    )
    parser.add_argument(
        "--rules", nargs="+", default=None, metavar="REPnnn",
        help="run only these rule ids (default: every rule)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (id, title, rationale) and exit",
    )


def _print_rules() -> None:
    width = max(len(spec.title) for spec in RULES.values())
    print(f"{'ID':<8}{'CONTRACT':<{width + 2}}RATIONALE")
    for rule_id, spec in RULES.items():
        print(f"{rule_id:<8}{spec.title:<{width + 2}}{spec.rationale}")
    print()
    print("Suppress one deliberate violation with `# repro: noqa[REPnnn]` on its line;")
    print("unused suppressions are reported as REP000.  Parse failures report as REP999.")


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0

    unknown = [rule_id for rule_id in args.rules or [] if rule_id not in RULES]
    if unknown:
        print(
            f"repro-lint: unknown rule id(s): {', '.join(unknown)}; "
            f"available: {', '.join(RULES)}",
            file=sys.stderr,
        )
        return 2

    paths: Sequence[str] = args.paths or []
    if not paths:
        default_src = Path("src")
        if not default_src.is_dir():
            print(
                "repro-lint: no paths given and no src/ directory here; "
                "pass explicit paths",
                file=sys.stderr,
            )
            return 2
        paths = [str(default_src)]

    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"repro-lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    report = lint_paths(paths, rules=args.rules)
    failed = bool(report.findings)

    if args.as_json:
        payload = {
            "files_checked": report.files_checked,
            "rules_run": list(report.rules_run),
            "findings": [finding.to_dict() for finding in report.findings],
            "suppressed": [finding.to_dict() for finding in report.suppressed],
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2))
        return 1 if failed else 0

    for finding in report.findings:
        print(finding.format())
    print(
        f"repro-lint: {report.files_checked} file(s), "
        f"{len(report.rules_run)} rule(s): "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed"
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST invariant checker for the repro codebase "
        "(determinism, durability, and degradation contracts).",
    )
    add_lint_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return run_lint_command(args)


if __name__ == "__main__":
    sys.exit(main())
