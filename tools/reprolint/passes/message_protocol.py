"""Message-protocol pass: the pool's parent↔worker kinds form a closed set.

The pool's exactness argument ("merged counts are correct for any prefix
of a worker's message stream") only holds for messages the parent
actually routes: an unregistered kind would fall through
``_PoolDriver._handle``'s dispatch and silently drop a progress delta.
So ``engine/pool.py`` declares ``MESSAGE_KINDS`` and this pass checks,
purely from the file's AST:

* every send site — ``<channel>.put(("kind", ...))`` or
  ``<channel>.send(("kind", ...))`` with a literal string head — uses a
  registered kind (tuples headed by a non-literal, like the task queue's
  ``(uid, payload, cap)`` dispatch, are not protocol sends);
* a dispatcher exists: a function containing ``kind = <param>[0]``;
* every kind literal the dispatcher compares against is registered (no
  dead or typo'd branches);
* the dispatch is exhaustive — every registered kind appears in a
  comparison, so adding a kind without routing it fails lint.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint import LintContext, LintPass, Violation, register

SCOPE = "src/repro/engine/pool.py"

REGISTRY_NAME = "MESSAGE_KINDS"


def _registry(tree: ast.Module) -> tuple[tuple[str, ...], int] | None:
    for node in tree.body:
        targets = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not targets or not isinstance(value, (ast.Tuple, ast.List)):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == REGISTRY_NAME:
                kinds = tuple(
                    e.value for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
                return kinds, node.lineno
    return None


def _send_sites(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, kind) of every ``<expr>.put/send(("kind", ...))`` call."""
    sites: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "send")
                and node.args
                and isinstance(node.args[0], ast.Tuple)
                and node.args[0].elts):
            continue
        head = node.args[0].elts[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            sites.append((node.lineno, head.value))
    return sites


def _dispatchers(tree: ast.Module) -> list[tuple[ast.FunctionDef, str, int]]:
    """Functions containing ``<var> = <param>[0]``: (def, var, line)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in node.args.posonlyargs + node.args.args}
        for child in ast.walk(node):
            if (isinstance(child, ast.Assign)
                    and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                    and isinstance(child.value, ast.Subscript)
                    and isinstance(child.value.value, ast.Name)
                    and child.value.value.id in params
                    and isinstance(child.value.slice, ast.Constant)
                    and child.value.slice.value == 0):
                found.append((node, child.targets[0].id, child.lineno))
                break
    return found


def _compared_kinds(func: ast.AST, var: str) -> set[str]:
    """String literals ``var`` is compared against (== or ``in`` tuple)."""
    kinds: set[str] = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == var
                and len(node.comparators) == 1):
            continue
        comparator = node.comparators[0]
        if isinstance(comparator, ast.Constant) and isinstance(
            comparator.value, str
        ):
            kinds.add(comparator.value)
        elif isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
            kinds.update(
                e.value for e in comparator.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return kinds


@register
class MessageProtocolPass(LintPass):
    name = "message_protocol"
    description = (
        "pool send sites must use registered MESSAGE_KINDS and the parent"
        " dispatch must handle every registered kind"
    )

    def run(self, ctx: LintContext) -> list[Violation]:
        violations: list[Violation] = []
        for path in ctx.files(SCOPE):
            violations.extend(self._check_file(ctx, path))
        return violations

    def _check_file(self, ctx: LintContext, path: Path) -> list[Violation]:
        tree = ctx.tree(path)
        violations: list[Violation] = []
        registry = _registry(tree)
        sites = _send_sites(tree)
        if registry is None:
            if sites:
                violations.append(self.violation(
                    ctx, path, sites[0][0],
                    "file sends protocol messages but declares no"
                    f" module-level {REGISTRY_NAME} tuple",
                ))
            return violations
        kinds, registry_line = registry
        registered = set(kinds)
        for line, kind in sites:
            if kind not in registered:
                violations.append(self.violation(
                    ctx, path, line,
                    f"send site uses unregistered message kind {kind!r} —"
                    f" not in {REGISTRY_NAME} (line {registry_line}); the"
                    " parent dispatch would drop it",
                ))

        dispatchers = _dispatchers(tree)
        if not dispatchers:
            violations.append(self.violation(
                ctx, path, registry_line,
                f"{REGISTRY_NAME} is declared but no dispatcher"
                " (a function unpacking 'kind = msg[0]') exists to route"
                " the kinds",
            ))
            return violations
        handled: set[str] = set()
        for func, var, line in dispatchers:
            compared = _compared_kinds(func, var)
            for kind in sorted(compared - registered):
                violations.append(self.violation(
                    ctx, path, line,
                    f"dispatcher {func.name}() compares against"
                    f" unregistered kind {kind!r} — dead branch or typo"
                    f" (registry: {', '.join(kinds)})",
                ))
            handled |= compared
        for kind in kinds:
            if kind not in handled:
                func, _, line = dispatchers[0]
                violations.append(self.violation(
                    ctx, path, line,
                    f"registered message kind {kind!r} is not handled by"
                    f" the dispatch in {func.name}() — an unroutable"
                    " message silently drops a worker's progress delta",
                ))
        return violations
