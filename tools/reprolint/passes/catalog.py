"""Catalog pass: every vocabulary literal must be declared in the catalog.

A run is read off strings. Hot paths bump counters by name
(``counters.inc("ccsr.rows_read")``), the metrics pump creates time
series by name, the flight recorder tags events by name, inspector
clients send command names, and ``stop_reason`` is compared by value
across the executor, governor, checkpoints and run-report validation. A
typo in any of them runs fine and then silently opens a separate series,
or fails at attach time on a live run. ``repro.obs.catalog`` declares
each of these closed vocabularies once; this pass loads it (the module
imports nothing, so ``repro`` is never imported) and flags every string
literal in ``src/repro`` that flows into a vocabulary position but is not
a member:

* the first argument of ``.inc()`` / ``._count()`` — ``STAT_KEYS`` or
  ``KNOWN_COUNTERS``;
* the first argument of ``.gauge()`` / ``.counter()`` / ``.histogram()``
  — ``KNOWN_METRICS``;
* the first argument of ``.record()`` — ``KNOWN_EVENTS``;
* the first argument of ``.request()`` / ``.handle()``, and each string
  key of a dict literal assigned to ``HANDLERS`` — ``KNOWN_COMMANDS``;
* a literal (bare, or in a tuple/list/set) passed as a ``stop_reason=``
  keyword, compared with ``stop_reason``, or assigned to it —
  ``STOP_REASONS``;
* in the plan verifier (``engine/verify.py``) only, a literal passed as
  the code of a ``Diagnostic()`` or of its collector's ``.add()`` —
  ``PLAN_DIAGNOSTICS``. The verifier imports its codes from the catalog,
  so this catches a code written inline instead.

Adding a genuinely new name means adding it to the catalog — which is
the point.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable

from tools.reprolint import LintContext, LintPass, Violation, register

#: Vocabulary kind -> the catalog names whose union it is.
VOCABULARIES: dict[str, tuple[str, ...]] = {
    "counter": ("STAT_KEYS", "KNOWN_COUNTERS"),
    "metric": ("KNOWN_METRICS",),
    "recorder event": ("KNOWN_EVENTS",),
    "inspector command": ("KNOWN_COMMANDS",),
    "stop_reason": ("STOP_REASONS",),
    "plan diagnostic": ("PLAN_DIAGNOSTICS",),
}

#: Method name -> the vocabulary its first string argument belongs to.
METHODS: dict[str, str] = {
    "inc": "counter",
    "_count": "counter",
    "gauge": "metric",
    "counter": "metric",
    "histogram": "metric",
    "record": "recorder event",
    "request": "inspector command",
    "handle": "inspector command",
}

STOP_REASON = "stop_reason"
HANDLERS = "HANDLERS"
VERIFIER = "src/repro/engine/verify.py"


def _literal_first_arg(node: ast.Call) -> str | None:
    if node.args and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.args[0].value
    return None


def _named(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.Name) and node.id == name
    )


def _str_constants(node: ast.AST) -> list[tuple[int, str]]:
    """String constants in a literal expression (bare, tuple, list, set)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [(node.lineno, node.value)]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [c for element in node.elts for c in _str_constants(element)]
    return []


def _uses(node: ast.AST) -> list[tuple[str, int, str]]:
    """``(vocabulary, lineno, literal)`` for each vocabulary position the
    node fills with a string literal."""
    uses: list[tuple[str, int, str]] = []
    if isinstance(node, ast.Call):
        literal = _literal_first_arg(node)
        if literal is not None and isinstance(node.func, ast.Attribute) \
                and node.func.attr in METHODS:
            uses.append((METHODS[node.func.attr], node.lineno, literal))
        for keyword in node.keywords:
            if keyword.arg == STOP_REASON:
                uses.extend(
                    (STOP_REASON, *c) for c in _str_constants(keyword.value)
                )
    elif isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        if any(_named(side, STOP_REASON) for side in sides):
            for side in sides:
                uses.extend((STOP_REASON, *c) for c in _str_constants(side))
    elif isinstance(node, (ast.Assign, ast.AnnAssign)) \
            and node.value is not None:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        if any(_named(t, STOP_REASON) for t in targets):
            uses.extend(
                (STOP_REASON, *c) for c in _str_constants(node.value)
            )
        if isinstance(node.value, ast.Dict) \
                and any(_named(t, HANDLERS) for t in targets):
            uses.extend(
                ("inspector command", key.lineno, key.value)
                for key in node.value.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            )
    return uses


def _diagnostic_codes(node: ast.AST) -> list[tuple[str, int, str]]:
    """A literal code passed to ``Diagnostic()`` or ``.add()`` in the
    verifier."""
    if isinstance(node, ast.Call) and (
        _named(node.func, "Diagnostic") or _named(node.func, "add")
    ):
        literal = _literal_first_arg(node)
        if literal is not None:
            return [("plan diagnostic", node.lineno, literal)]
    return []


@register
class CatalogPass(LintPass):
    name = "catalog"
    description = (
        "counter, metric, recorder-event, inspector-command and"
        " stop_reason literals, and the verifier's diagnostic codes, must"
        " be members of their vocabulary in repro.obs.catalog"
    )

    def run(self, ctx: LintContext) -> list[Violation]:
        catalog = ctx.catalog()
        members = {
            kind: frozenset(
                member for name in names for member in catalog[name]
            )
            for kind, names in VOCABULARIES.items()
        }
        violations: list[Violation] = []
        for path in ctx.files("src/repro"):
            violations.extend(self._check_file(ctx, path, members, _uses))
        for path in ctx.files(VERIFIER):
            violations.extend(
                self._check_file(ctx, path, members, _diagnostic_codes)
            )
        return violations

    def _check_file(
        self,
        ctx: LintContext,
        path: Path,
        members: dict[str, frozenset],
        uses: Callable[[ast.AST], list[tuple[str, int, str]]],
    ) -> list[Violation]:
        return [
            self.violation(
                ctx, path, lineno,
                f"{kind} {literal!r} is not in"
                f" {' or '.join(VOCABULARIES[kind])} (repro.obs.catalog)"
                " — register it there or fix the typo",
            )
            for node in ast.walk(ctx.tree(path))
            for kind, lineno, literal in uses(node)
            if literal not in members[kind]
        ]
