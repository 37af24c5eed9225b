"""Data model shared by the invariant linter's rules and engine.

A :class:`FileContext` is one parsed source file plus everything a rule
needs to judge it: the AST, the raw lines (for pragma checks), a resolved
import map (so ``np.random.default_rng`` and
``from numpy.random import default_rng as rng_ctor`` are the same call to
a rule), and the file's dotted module name (so rules can scope themselves
to packages — ``repro.streaming`` — instead of brittle path fragments).

A :class:`Finding` is one violation: rule id, location, message.  The
engine owns suppressions; rules only ever *yield* findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Finding", "FileContext", "dotted_call_name", "walk_with_scopes"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        """Human-readable one-liner (``path:line:col: RULE message``)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def _module_name_for(path: Path) -> str:
    """Dotted module name of ``path``, anchored at the ``repro`` package.

    Files outside a ``repro`` package tree (fixtures, scripts) get their
    bare stem, which simply never matches any package-scoped rule — the
    rules that apply everywhere still run.
    """
    parts = list(path.parts)
    name = path.stem
    if "repro" in parts:
        anchor = parts.index("repro")
        mod_parts = parts[anchor:-1] + ([] if name == "__init__" else [name])
        return ".".join(mod_parts)
    return name


def _collect_imports(tree: ast.AST) -> Dict[str, str]:
    """Map each locally bound import name to its fully dotted origin.

    ``import numpy as np`` binds ``np -> numpy``;
    ``from numpy import random`` binds ``random -> numpy.random``;
    ``from numpy.random import default_rng as ctor`` binds
    ``ctor -> numpy.random.default_rng``.  Relative imports keep their
    leading dots out (rules match on suffixes for those).
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{module}.{alias.name}" if module else alias.name
    return imports


def dotted_call_name(func: ast.expr) -> Optional[str]:
    """Literal dotted name of a call target (``np.random.default_rng``).

    Returns ``None`` for targets that are not a plain name/attribute
    chain (subscripts, calls, lambdas) — rules treat those as opaque.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_with_scopes(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield every node with the names of its enclosing classes/functions.

    The scope tuple is outermost-first (``("DurableIO", "replace")`` for a
    statement inside ``DurableIO.replace``) and excludes the module
    itself.  Rules use it to allowlist code *inside* a sanctioned seam.
    """

    def visit(node: ast.AST, scopes: Tuple[str, ...]) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
        for child in ast.iter_child_nodes(node):
            yield child, scopes
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scopes + (child.name,))
            else:
                yield from visit(child, scopes)

    yield from visit(tree, ())


@dataclass
class FileContext:
    """One parsed file handed to every rule."""

    path: str
    module: str
    source: str
    lines: List[str]
    tree: ast.Module
    imports: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, file_path: Path, display_path: str) -> "FileContext":
        source = file_path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(file_path))
        return cls(
            path=display_path,
            module=_module_name_for(file_path),
            source=source,
            lines=source.splitlines(),
            tree=tree,
            imports=_collect_imports(tree),
        )

    def in_package(self, *prefixes: str) -> bool:
        """True when this module sits under any of the dotted prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Fully resolved dotted name of a call, through the import map.

        ``np.random.default_rng(...)`` resolves to
        ``numpy.random.default_rng`` whatever numpy was imported as; a
        call whose root name was never imported resolves through its
        literal spelling (builtins like ``open`` stay ``open``).
        """
        dotted = dotted_call_name(node.func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        origin = self.imports.get(root, root)
        return f"{origin}.{rest}" if rest else origin

    def line_text(self, lineno: int) -> str:
        """1-indexed source line (empty string past EOF)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )
