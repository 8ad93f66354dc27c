"""No-recursion pass: the engine's hot paths must stay iterative.

PR 3 deleted the recursive interpreter on purpose: the streaming executor
and the factorized counter run on explicit frame stacks and node arrays,
so deep patterns never hit Python's recursion limit and suspend/resume can
serialize the whole search state. A recursive helper sneaking back into
the engine modules in :data:`SCOPES` (the executor, the counter, the
physical-plan compiler that builds its region program, the pool and its
work units) would silently reintroduce both failure modes.

The check builds a name-based intra-module call graph — module-level
functions called by bare name, methods called through ``self.`` within
their class — and flags every function on a call-graph cycle (including
direct self-calls). Name-based resolution is deliberately conservative:
it cannot see dynamic dispatch, but the hot paths are plain functions and
the false-positive risk within these files is negligible.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint import LintContext, LintPass, Violation, register

#: The recursion-free hot paths.
SCOPES = (
    "src/repro/engine/executor.py",
    "src/repro/engine/counting.py",
    "src/repro/engine/physical.py",
    "src/repro/engine/pool.py",
    "src/repro/engine/workunit.py",
)

FuncKey = tuple[str, str]  # (class name or "", function name)


def _called_names(func: ast.AST) -> tuple[set[str], set[str]]:
    """(bare names called, self-method names called) within ``func``."""
    bare: set[str] = set()
    methods: set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            bare.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            methods.add(target.attr)
    return bare, methods


def _collect(tree: ast.Module) -> dict[FuncKey, tuple[int, set[FuncKey]]]:
    """Map each function to (lineno, callees-within-the-module)."""
    defs: dict[FuncKey, ast.AST] = {}

    def visit(node: ast.AST, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested defs share their enclosing scope's key space: a
                # closure calling its own name is recursion all the same.
                defs.setdefault((cls, child.name), child)
                visit(child, cls)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                visit(child, cls)

    visit(tree, "")

    graph: dict[FuncKey, tuple[int, set[FuncKey]]] = {}
    module_funcs = {name for scope, name in defs if scope == ""}
    for (cls, name), func in defs.items():
        bare, methods = _called_names(func)
        callees: set[FuncKey] = set()
        for called in bare & module_funcs:
            callees.add(("", called))
        if cls:
            for called in methods:
                if (cls, called) in defs:
                    callees.add((cls, called))
        graph[(cls, name)] = (func.lineno, callees)
    return graph


def _cycle_members(graph: dict[FuncKey, tuple[int, set[FuncKey]]]) -> set[FuncKey]:
    """Every function on some call-graph cycle (iterative Tarjan SCC)."""
    index: dict[FuncKey, int] = {}
    lowlink: dict[FuncKey, int] = {}
    on_stack: set[FuncKey] = set()
    stack: list[FuncKey] = []
    counter = [0]
    members: set[FuncKey] = set()

    for root in graph:
        if root in index:
            continue
        work: list[tuple[FuncKey, list[FuncKey]]] = [
            (root, sorted(graph[root][1]))
        ]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            while children:
                child = children.pop()
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, sorted(graph[child][1])))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                if len(scc) > 1:
                    members.update(scc)
                elif scc[0] in graph[scc[0]][1]:  # direct self-call
                    members.update(scc)
    return members


@register
class NoRecursionPass(LintPass):
    name = "no_recursion"
    description = (
        "engine hot paths (executor, counting, physical, pool, workunit)"
        " must stay recursion-free:"
        " no function may sit on an intra-module call-graph cycle"
    )

    def run(self, ctx: LintContext) -> list[Violation]:
        violations: list[Violation] = []
        for path in ctx.files(*SCOPES):
            violations.extend(self._check_file(ctx, path))
        return violations

    def _check_file(self, ctx: LintContext, path: Path) -> list[Violation]:
        graph = _collect(ctx.tree(path))
        violations = []
        for cls, name in sorted(_cycle_members(graph)):
            lineno = graph[(cls, name)][0]
            label = f"{cls}.{name}" if cls else name
            violations.append(self.violation(
                ctx, path, lineno,
                f"{label} is (mutually) recursive; the engine hot paths"
                " must use explicit stacks (see PR 3's iterative executor)",
            ))
        return violations
