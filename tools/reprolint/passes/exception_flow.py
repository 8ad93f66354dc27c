"""Exception-flow pass: limit raises must reach a stop-reason handler.

The engine's robustness contract is that a budget breach never crashes a
match: every raise of the ``LimitExceeded`` family
(``TimeLimitExceeded``, ``EmbeddingLimitExceeded``,
``MemoryLimitExceeded``, ``MatchCancelled``) is caught somewhere up the
call chain by a handler that converts it into a typed partial result — a
``STOP_REASONS`` member in ``stop_reason``, or a ``partial_count``. A new
raise path that misses its handler yields an untyped crash instead, which
no per-file check can see.

This pass closes the loophole interprocedurally: it builds the
:class:`~tools.reprolint.model.ProgramModel` call graph over the engine
sources, finds every family raise site, and propagates the escape along
the (conservatively resolved) call edges:

* a raise inside a ``try`` whose matching handler *maps* the exception
  (references ``stop_reason``/``partial_count``/``STOP_REASONS``/
  ``raise_stop``) is sound — a ``truncated``/``timed_out`` flag is no
  stop record, since both are derived from ``stop_reason``;
* a matching handler that merely re-raises passes the escape through to
  the caller's callers;
* a matching handler that does neither is flagged — it swallows the
  budget signal without producing the typed partial result;
* an escape that survives to a call-graph root (a function with no
  resolved in-repo callers — an API boundary) is flagged at the origin
  raise site: that raise can reach user code as a crash.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint import LintContext, LintPass, Violation, register

SCOPE = "src/repro"

#: The budget/limit family (base class last — catching it catches all).
FAMILY = frozenset((
    "TimeLimitExceeded",
    "EmbeddingLimitExceeded",
    "MemoryLimitExceeded",
    "MatchCancelled",
    "LimitExceeded",
))

#: Handler types that catch any family member.
CATCH_ALL = frozenset((
    "LimitExceeded", "ReproError", "Exception", "BaseException",
))

#: A handler "maps" the exception when it references the machinery that
#: turns a budget breach into a typed partial result.
MAPPING_MARKERS = frozenset((
    "stop_reason", "partial_count", "raise_stop",
))


def _terminal_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _handler_names(handler: ast.ExceptHandler) -> set[str] | None:
    """Exception names a handler catches (None = bare ``except:``)."""
    if handler.type is None:
        return None
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = set()
    for node in types:
        name = _terminal_name(node)
        if name:
            names.add(name)
    return names


def _catches(handler: ast.ExceptHandler, exc_name: str) -> bool:
    names = _handler_names(handler)
    if names is None:
        return True
    return exc_name in names or bool(names & CATCH_ALL)


def _classify(handler: ast.ExceptHandler) -> str:
    """'maps' | 'reraise' | 'swallows' for a matching handler body."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Name) and (
            node.id in MAPPING_MARKERS or node.id.startswith("STOP_")
        ):
            return "maps"
        if isinstance(node, ast.Attribute) and node.attr in MAPPING_MARKERS:
            return "maps"
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return "reraise"
    return "swallows"


class _FunctionScan:
    """Per-function: family raise sites and call sites, each with the
    stack of ``try`` handlers active at that point (innermost last)."""

    def __init__(self, func: ast.AST) -> None:
        self.raises: list[tuple[ast.Raise, str, list]] = []
        self.call_handlers: dict[int, list] = {}
        self._visit_body(
            getattr(func, "body", []), []
        )

    def _visit_body(self, body, stack) -> None:
        for stmt in body:
            self._visit(stmt, stack)

    def _visit(self, node: ast.AST, stack: list) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # separate scope, scanned on its own
        if isinstance(node, ast.Try):
            self._visit_body(node.body, stack + [node.handlers])
            for handler in node.handlers:
                self._visit_body(handler.body, stack)
            self._visit_body(node.orelse, stack)
            self._visit_body(node.finalbody, stack)
            return
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = _terminal_name(node.exc)
            if name in FAMILY:
                self.raises.append((node, name, list(stack)))
        if isinstance(node, ast.Call):
            self.call_handlers[id(node)] = list(stack)
        for child in ast.iter_child_nodes(node):
            self._visit(child, stack)


@register
class ExceptionFlowPass(LintPass):
    name = "exception_flow"
    description = (
        "every raise of the LimitExceeded family must reach a handler"
        " mapping it to a STOP_REASONS outcome"
    )

    def run(self, ctx: LintContext) -> list[Violation]:
        model = ctx.program_model()
        paths = [Path(p) for p in ctx.files(SCOPE)]
        graph = model.call_graph(paths)
        scans = {fid: _FunctionScan(node) for fid, node in graph.nodes.items()}

        violations: list[Violation] = []
        flagged_handlers: set[int] = set()
        # escapes[fid][exc_name] = set of origin (path, line) raise sites
        escapes: dict = {}

        def first_match(stack: list, exc_name: str):
            for handlers in reversed(stack):
                for handler in handlers:
                    if _catches(handler, exc_name):
                        return handler
            return None

        def flag_handler(path: Path, handler: ast.ExceptHandler,
                         exc_name: str) -> None:
            if id(handler) in flagged_handlers:
                return
            flagged_handlers.add(id(handler))
            violations.append(self.violation(
                ctx, path, handler.lineno,
                f"handler catches {exc_name} but neither maps it to a"
                " STOP_REASONS outcome (stop_reason / partial_count)"
                " nor re-raises — the budget"
                " signal is swallowed",
            ))

        worklist: list = []
        for fid, scan in scans.items():
            for raise_node, exc_name, stack in scan.raises:
                handler = first_match(stack, exc_name)
                if handler is None:
                    origin = (fid[0], raise_node.lineno, exc_name)
                    escapes.setdefault(fid, {}).setdefault(
                        exc_name, set()
                    ).add(origin)
                    continue
                outcome = _classify(handler)
                if outcome == "maps":
                    continue
                if outcome == "reraise":
                    origin = (fid[0], raise_node.lineno, exc_name)
                    escapes.setdefault(fid, {}).setdefault(
                        exc_name, set()
                    ).add(origin)
                else:
                    flag_handler(fid[0], handler, exc_name)
            if fid in escapes:
                worklist.append(fid)

        while worklist:
            fid = worklist.pop()
            for caller in list(graph.callers.get(fid, ())):
                scan = scans[caller]
                grew = False
                for call, targets in graph.calls.get(caller, []):
                    if fid not in targets:
                        continue
                    stack = scan.call_handlers.get(id(call), [])
                    for exc_name, origins in escapes.get(fid, {}).items():
                        handler = first_match(stack, exc_name)
                        if handler is not None:
                            outcome = _classify(handler)
                            if outcome == "maps":
                                continue
                            if outcome == "swallows":
                                flag_handler(caller[0], handler, exc_name)
                                continue
                        bucket = escapes.setdefault(
                            caller, {}
                        ).setdefault(exc_name, set())
                        if not origins <= bucket:
                            bucket.update(origins)
                            grew = True
                if grew:
                    worklist.append(caller)

        # One violation per origin raise site, naming the roots it
        # escaped through (the same raise can surface at several API
        # boundaries).
        escaped_origins: dict[tuple, set[str]] = {}
        for fid, by_exc in escapes.items():
            if graph.callers.get(fid):
                continue  # escapes further; judged at the roots only
            path, qual = fid
            root = f"{ctx.rel(path)}:{qual}"
            for origins in by_exc.values():
                for origin in origins:
                    escaped_origins.setdefault(origin, set()).add(root)
        for (opath, oline, oname), roots in sorted(
            escaped_origins.items(), key=lambda item: (str(item[0][0]),
                                                       item[0][1])
        ):
            violations.append(self.violation(
                ctx, opath, oline,
                f"raise of {oname} escapes to the call-graph root(s)"
                f" {', '.join(sorted(roots))} without any handler mapping"
                " it to a STOP_REASONS outcome — a budget breach on this"
                " path is an untyped crash",
            ))
        return violations
