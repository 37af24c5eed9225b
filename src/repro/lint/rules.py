"""Built-in invariant rules: the repo's contracts, machine-checked.

Every parity guarantee in this reproduction — bit-identical
``PARALLELSAMPLE`` output across backends, crash recovery that is
"bit-exact or declared lossy", degradation that is "never silently
inexact" — depends on conventions that one stray call site can void.
These rules encode those conventions as AST checks so they are enforced
on every change, not rediscovered in review:

========  ==========================================================
REP001    RNG discipline: no implicit OS entropy, no stdlib ``random``
REP002    nondeterminism hazards: wall-clock identity, ``os.urandom``,
          ``uuid``, arrays built from unordered sets
REP003    durability-seam bypass: raw filesystem mutation in the
          durable-state layer outside :class:`~repro.core.checkpoint.DurableIO`
REP004    ``warnings.warn`` without ``stacklevel=``
REP005    broad ``except`` without a reason pragma
REP006    per-edge Python loops over edge arrays in hot-path modules
REP007    text-mode ``open`` / ``Path.read_text`` / ``Path.write_text``
          without an explicit ``encoding=``
========  ==========================================================

Each rule documents its exact scope and allowlist inline; suppressing a
single deliberate violation is ``# repro: noqa[REPnnn]`` on the flagged
line (the engine reports suppressions that stop matching anything, so
they cannot outlive their reason).

:data:`RULES` is the one rule table: each checker below adds itself to
it through the module-private ``_rule`` decorator, and the engine,
``--list-rules`` and ``--rules`` all read it.  A rule is a pure function
of the :class:`~repro.lint.model.FileContext` that yields
:class:`~repro.lint.model.Finding` objects; the engine applies the
suppressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence

from repro.lint.model import FileContext, Finding, walk_with_scopes

__all__ = ["RULES", "RuleSpec", "HOT_PATH_MODULES", "TIMING_ALLOWLIST_MODULES"]

RuleChecker = Callable[[FileContext], Iterable[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """An invariant rule: the checker plus its contract text."""

    rule_id: str
    checker: RuleChecker
    title: str
    rationale: str


#: Every rule the engine runs, keyed by id (in id order, as defined below).
RULES: Dict[str, RuleSpec] = {}


def _rule(rule_id: str, *, title: str, rationale: str) -> Callable[[RuleChecker], RuleChecker]:
    """Add the decorated checker to :data:`RULES` under ``rule_id``."""

    def decorator(checker: RuleChecker) -> RuleChecker:
        RULES[rule_id] = RuleSpec(rule_id, checker, title, rationale)
        return checker

    return decorator


def _mode_argument(node: ast.Call, position: int) -> Optional[ast.expr]:
    """The ``mode`` argument of an ``open``-style call, if present.

    ``position`` is the positional index mode sits at: 1 for the builtin
    ``open(file, mode)``, 0 for the ``Path.open(mode)`` method form.
    """
    if len(node.args) > position:
        return node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _has_keyword(node: ast.Call, name: str) -> bool:
    return any(keyword.arg == name for keyword in node.keywords)


def _literal_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# --------------------------------------------------------------------- #
# REP001 — RNG discipline
# --------------------------------------------------------------------- #

# The one module allowed to touch raw numpy RNG construction: it *is*
# the sanctioned construction seam (as_rng / spawn_rngs /
# fresh_entropy_seed).
_RNG_SEAM_MODULE = "repro.utils.rng"


@_rule(
    "REP001",
    title="RNG construction must be seeded or routed through repro.utils.rng",
    rationale=(
        "Bit-identical PARALLELSAMPLE output across backends and bit-exact "
        "stream resume both assume every random draw derives from a recorded "
        "seed; one default_rng()/SeedSequence() with implicit OS entropy "
        "silently voids every parity golden."
    ),
)
def check_rng_discipline(ctx: FileContext) -> Iterator[Finding]:
    if ctx.module == _RNG_SEAM_MODULE:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield ctx.finding(
                        "REP001", node,
                        "stdlib `random` is banned in library code; draw from a "
                        "numpy Generator built via repro.utils.rng",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield ctx.finding(
                    "REP001", node,
                    "stdlib `random` is banned in library code; draw from a "
                    "numpy Generator built via repro.utils.rng",
                )
        elif isinstance(node, ast.Call):
            resolved = ctx.resolve_call(node)
            if resolved is None:
                continue
            if resolved.endswith(".default_rng") or resolved == "default_rng":
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        "REP001", node,
                        "default_rng() with no seed draws OS entropy; pass an "
                        "explicit seed or use repro.utils.rng (as_rng / "
                        "fresh_entropy_seed)",
                    )
            elif resolved.endswith(".SeedSequence") or resolved == "SeedSequence":
                if not node.args and not _has_keyword(node, "entropy"):
                    yield ctx.finding(
                        "REP001", node,
                        "SeedSequence() with no entropy draws OS entropy; pass "
                        "explicit entropy or use "
                        "repro.utils.rng.fresh_entropy_seed() and record the seed",
                    )


# --------------------------------------------------------------------- #
# REP002 — nondeterminism hazards
# --------------------------------------------------------------------- #

# Wall-clock identity (time.time) is legitimate exactly where the repo
# measures durations or schedules backoff; everywhere else it is state
# that silently differs between runs.
TIMING_ALLOWLIST_MODULES = (
    "repro.parallel.failure",
    "repro.testing.faults",
)

_ARRAY_CONSTRUCTORS = (
    "numpy.array",
    "numpy.asarray",
    "numpy.asanyarray",
    "numpy.fromiter",
)


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in ("set", "frozenset")
    return False


@_rule(
    "REP002",
    title="nondeterminism hazards (wall clock, os.urandom, uuid, set-fed arrays)",
    rationale=(
        "Values that differ between runs — wall-clock identity, OS entropy, "
        "uuids, the iteration order of a hash set — must never feed algorithm "
        "state, or goldens and crash-recovery parity stop meaning anything."
    ),
)
def check_nondeterminism(ctx: FileContext) -> Iterator[Finding]:
    timing_allowed = ctx.module in TIMING_ALLOWLIST_MODULES
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve_call(node)
        if resolved is None:
            continue
        if resolved == "time.time" and not timing_allowed:
            yield ctx.finding(
                "REP002", node,
                "time.time() outside the timing/backoff allowlist; timestamps "
                "in algorithm state break run-to-run reproducibility "
                "(use time.perf_counter for durations)",
            )
        elif resolved == "os.urandom":
            yield ctx.finding(
                "REP002", node,
                "os.urandom is raw OS entropy; derive randomness from a "
                "recorded seed via repro.utils.rng",
            )
        elif resolved in ("uuid.uuid1", "uuid.uuid4"):
            yield ctx.finding(
                "REP002", node,
                f"{resolved} is nondeterministic; derive identifiers from "
                "content digests or recorded seeds",
            )
        elif resolved in _ARRAY_CONSTRUCTORS and node.args:
            if _is_set_expression(node.args[0]):
                yield ctx.finding(
                    "REP002", node,
                    "building an array from a set iterates in hash order, "
                    "which varies between processes; sort first "
                    "(np.array(sorted(...)))",
                )


# --------------------------------------------------------------------- #
# REP003 — durability-seam bypass
# --------------------------------------------------------------------- #

# Modules whose on-disk state is covered by the crash-consistency
# torture harness: every filesystem *mutation* here must route through
# DurableIO, or kill_point_sweep coverage silently shrinks.
_DURABLE_MODULES = ("repro.streaming", "repro.core.checkpoint")
# The seam itself (and its directory-fsync helper) is the allowed home
# of raw filesystem calls.
_SEAM_SCOPES = ("DurableIO", "fsync_directory")

_OS_MUTATIONS = (
    "os.rename",
    "os.replace",
    "os.fsync",
    "os.remove",
    "os.unlink",
    "os.truncate",
    "os.ftruncate",
    "os.makedirs",
    "os.mkdir",
    "os.rmdir",
    "shutil.move",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
    "shutil.rmtree",
)

_WRITE_MODE_CHARS = set("wax+")


@_rule(
    "REP003",
    title="durable-state writes must route through the DurableIO seam",
    rationale=(
        "kill_point_sweep proves every write point recovers bit-identically "
        "or declares loss — but only for writes that pass through DurableIO; "
        "a raw open()/os.replace() in the durable layer is a write the "
        "torture harness can never kill, i.e. an untested crash mode."
    ),
)
def check_durability_seam(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.in_package(*_DURABLE_MODULES):
        return
    for node, scopes in walk_with_scopes(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if any(scope in _SEAM_SCOPES for scope in scopes):
            continue  # inside the seam's own implementation
        resolved = ctx.resolve_call(node)
        if resolved is None:
            continue
        if resolved in _OS_MUTATIONS:
            yield ctx.finding(
                "REP003", node,
                f"{resolved} bypasses the DurableIO seam; route the mutation "
                "through the store's io= object so kill_point_sweep can crash it",
            )
        elif resolved == "open" or (resolved.endswith(".open") and resolved != "os.open"):
            mode_node = _mode_argument(node, 1 if resolved == "open" else 0)
            if mode_node is None:
                continue  # bare read — recovery must read whatever survived
            mode = _literal_str(mode_node)
            if mode is None or _WRITE_MODE_CHARS.intersection(mode):
                yield ctx.finding(
                    "REP003", node,
                    "write-mode open() bypasses the DurableIO seam; use "
                    "io.append_line / io.write_bytes / io.replace so the "
                    "crash harness covers this write",
                )


# --------------------------------------------------------------------- #
# REP004 — warning discipline
# --------------------------------------------------------------------- #


@_rule(
    "REP004",
    title="warnings.warn must pass stacklevel=",
    rationale=(
        "The degradation ladder's contract is 'never silently inexact'; a "
        "warning that points at library internals instead of the caller's "
        "line is as good as silent in application logs."
    ),
)
def check_warning_discipline(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if ctx.resolve_call(node) == "warnings.warn" and not _has_keyword(node, "stacklevel"):
            yield ctx.finding(
                "REP004", node,
                "warnings.warn without stacklevel= points at the library, not "
                "the caller; pass stacklevel=2 (or deeper for helpers)",
            )


# --------------------------------------------------------------------- #
# REP005 — broad excepts need a reason
# --------------------------------------------------------------------- #

_BROAD_EXCEPT_PRAGMA = re.compile(
    r"#\s*(?:noqa:\s*BLE001|repro:\s*broad-except)\b\s*\S"
)


def _is_broad_exception(node: Optional[ast.expr], ctx: FileContext) -> bool:
    if node is None:
        return True  # bare except:
    if isinstance(node, ast.Tuple):
        return any(_is_broad_exception(element, ctx) for element in node.elts)
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = node.id if isinstance(node, ast.Name) else node.attr
        return dotted in ("Exception", "BaseException")
    return False


@_rule(
    "REP005",
    title="broad except clauses must carry a reason pragma",
    rationale=(
        "except Exception in the retry/degradation stack is deliberate policy "
        "(the policy layer must see every failure) — but only when stated; an "
        "unreasoned broad except swallows the very faults the resilience "
        "suite injects."
    ),
)
def check_broad_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_exception(node.type, ctx):
            continue
        if _BROAD_EXCEPT_PRAGMA.search(ctx.line_text(node.lineno)):
            continue
        yield ctx.finding(
            "REP005", node,
            "broad except without a reason; add `# noqa: BLE001 - <why>` or "
            "`# repro: broad-except <why>` on the except line, or narrow the type",
        )


# --------------------------------------------------------------------- #
# REP006 — per-edge Python loops in hot paths
# --------------------------------------------------------------------- #

# Modules where a per-edge Python loop is a performance bug by contract
# (GBBS-style rule: hot paths are array programs).  The `_reference`
# modules keep their loops on purpose — they are the ground truth the
# vectorised kernels are pinned against — and are simply not listed.
HOT_PATH_MODULES = (
    "repro.core.sample",
    "repro.core.sparsify",
    "repro.graphs.kout",
    "repro.parallel.congest",
    "repro.spanners.baswana_sen",
    "repro.spanners.bundle",
    "repro.spanners.congest_spanner",
    "repro.spanners.distributed_spanner",
    "repro.streaming.sparsifier",
)

_EDGE_ARRAY_NAMES = ("edge_u", "edge_v", "edge_weights", "edge_ids")


def _mentions_edge_array(node: ast.expr) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _EDGE_ARRAY_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _EDGE_ARRAY_NAMES:
            return True
    return False


@_rule(
    "REP006",
    title="no per-edge Python loops over edge arrays in hot-path modules",
    rationale=(
        "The kernels' whole performance story (4-25x over the seed) is that "
        "hot paths are vectorised array programs; one `for e in edge_u` "
        "reintroduces the O(m) interpreter loop the benchmarks exist to "
        "forbid.  Reference implementations live in _reference modules."
    ),
)
def check_per_edge_loops(ctx: FileContext) -> Iterator[Finding]:
    if ctx.module not in HOT_PATH_MODULES:
        return
    for node in ast.walk(ctx.tree):
        iters: Sequence[ast.expr]
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [generator.iter for generator in node.generators]
        else:
            continue
        for iterable in iters:
            if _mentions_edge_array(iterable):
                yield ctx.finding(
                    "REP006", node,
                    "Python-level loop over an edge array in a hot-path module; "
                    "vectorise (see repro.spanners.bundle for the idiom) or move "
                    "the loop to a _reference module",
                )
                break


# --------------------------------------------------------------------- #
# REP007 — text-mode file I/O must pin its encoding
# --------------------------------------------------------------------- #

# Path's whole-file text helpers and the positional index of their
# ``encoding`` parameter.
_TEXT_HELPERS = {"read_text": 0, "write_text": 1}


@_rule(
    "REP007",
    title="text-mode open() / read_text() / write_text() must pass encoding=",
    rationale=(
        "Journals, snapshots and edge lists must parse identically on every "
        "machine that recovers them; locale-dependent default encodings make "
        "the on-disk format platform state."
    ),
)
def check_open_encoding(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _TEXT_HELPERS:
            if len(node.args) <= _TEXT_HELPERS[func.attr] and not _has_keyword(node, "encoding"):
                yield ctx.finding(
                    "REP007", node,
                    f"{func.attr}() without encoding= depends on the platform "
                    'locale; pass encoding="utf-8"',
                )
            continue
        resolved = ctx.resolve_call(node)
        if resolved is None:
            continue
        is_builtin_open = resolved == "open"
        is_method_open = resolved.endswith(".open") and resolved != "os.open"
        if not (is_builtin_open or is_method_open):
            continue
        mode_node = _mode_argument(node, 1 if is_builtin_open else 0)
        mode = _literal_str(mode_node)
        if mode_node is not None and mode is None:
            continue  # dynamic mode: undecidable, leave to review
        if mode is not None and "b" in mode:
            continue  # binary mode takes no encoding
        if not _has_keyword(node, "encoding"):
            yield ctx.finding(
                "REP007", node,
                "text-mode open() without encoding= depends on the platform "
                'locale; pass encoding="utf-8"',
            )
