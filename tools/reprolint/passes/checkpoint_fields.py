"""Checkpoint-fields pass: the document schema must track its version.

A checkpoint written by one build must be readable by the next, so the
document's top-level sections are frozen per ``CHECKPOINT_VERSION``: this
pass carries a manifest of the key set every published version emits and
compares it against the dict literal ``checkpoint_payload`` returns.
Adding or removing a top-level field without bumping the version (and
extending the manifest) is exactly the silent compatibility break the
pass exists to catch. The live module carries the catalog's stats-key
slices across the suspend/resume boundary; a hand-listed counter tuple
(``_RUNTIME_COUNTERS`` / ``_CANDIDATE_COUNTERS``) must stay a subset of
``STAT_KEYS`` (read from ``repro.obs.catalog``) — resume writes the
counters back into the runtime, so an unknown key would desynchronize the
unified stats contract.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.reprolint import LintContext, LintPass, Violation, register

SCOPE = "src/repro/engine/checkpoint.py"

#: Top-level checkpoint-document keys, frozen per CHECKPOINT_VERSION.
#: Changing the payload requires bumping the version in checkpoint.py AND
#: adding the new version's key set here (keep old entries: they document
#: what published checkpoints look like).
VERSION_MANIFEST: dict[int, frozenset] = {
    1: frozenset((
        "format", "version", "pattern", "store",
        "query", "limits", "progress", "state",
    )),
}

COUNTER_TUPLES = ("_RUNTIME_COUNTERS", "_CANDIDATE_COUNTERS")


def _module_int(tree: ast.Module, name: str) -> tuple[int, int] | None:
    """(value, lineno) of a module-level ``NAME = <int>`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name) and target.id == name
                        and isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, int)):
                    return node.value.value, node.lineno
    return None


def _module_str_tuple(tree: ast.Module, name: str) -> tuple[list[str], int] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name) and target.id == name
                        and isinstance(node.value, (ast.Tuple, ast.List))):
                    values = [
                        e.value for e in node.value.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                    ]
                    return values, node.lineno
    return None


def _returned_dict_keys(
    tree: ast.Module, func_name: str, depth: int = 0
) -> tuple[set[str], int] | None:
    """String keys of the dict literal ``func_name`` returns.

    A ``**helper(...)`` spread whose helper is a module-level function in
    the same file is inlined (one level deep) — the checkpoint serializer
    shares its query-identity sections with the pool's per-shard writer
    through such a helper, and the frozen manifest covers the *document*,
    not the code layout.
    """
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == func_name):
            for child in ast.walk(node):
                if (isinstance(child, ast.Return)
                        and isinstance(child.value, ast.Dict)):
                    keys: set[str] = set()
                    for key, value in zip(
                        child.value.keys, child.value.values
                    ):
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)):
                            keys.add(key.value)
                        elif (key is None and depth == 0
                                and isinstance(value, ast.Call)
                                and isinstance(value.func, ast.Name)):
                            inlined = _returned_dict_keys(
                                tree, value.func.id, depth=1
                            )
                            if inlined is not None:
                                keys.update(inlined[0])
                    return keys, child.lineno
    return None


def _payload_keys(tree: ast.Module) -> tuple[set[str], int] | None:
    """String keys of the document ``checkpoint_payload`` returns."""
    return _returned_dict_keys(tree, "checkpoint_payload")


@register
class CheckpointFieldsPass(LintPass):
    name = "checkpoint_fields"
    description = (
        "checkpoint_payload's top-level keys must match the frozen"
        " manifest for CHECKPOINT_VERSION; carried counters must be"
        " STAT_KEYS members"
    )

    def run(self, ctx: LintContext) -> list[Violation]:
        violations: list[Violation] = []
        for path in ctx.files(SCOPE):
            violations.extend(self._check_file(ctx, path))
        return violations

    def _check_file(self, ctx: LintContext, path: Path) -> list[Violation]:
        tree = ctx.tree(path)
        violations: list[Violation] = []

        version = _module_int(tree, "CHECKPOINT_VERSION")
        payload = _payload_keys(tree)
        if version is None:
            violations.append(self.violation(
                ctx, path, 1,
                "no module-level integer CHECKPOINT_VERSION assignment",
            ))
        if payload is None:
            violations.append(self.violation(
                ctx, path, 1,
                "checkpoint_payload() does not return a dict literal"
                " (the pass needs statically visible top-level keys)",
            ))
        if version is not None and payload is not None:
            value, version_line = version
            keys, payload_line = payload
            expected = VERSION_MANIFEST.get(value)
            if expected is None:
                violations.append(self.violation(
                    ctx, path, version_line,
                    f"CHECKPOINT_VERSION {value} has no entry in the"
                    " reprolint VERSION_MANIFEST — freeze the new"
                    " version's key set in"
                    " tools/reprolint/passes/checkpoint_fields.py",
                ))
            else:
                for missing in sorted(expected - keys):
                    violations.append(self.violation(
                        ctx, path, payload_line,
                        f"checkpoint_payload() dropped top-level key"
                        f" {missing!r} without bumping CHECKPOINT_VERSION",
                    ))
                for extra in sorted(keys - expected):
                    violations.append(self.violation(
                        ctx, path, payload_line,
                        f"checkpoint_payload() added top-level key"
                        f" {extra!r} without bumping CHECKPOINT_VERSION",
                    ))

        stat_keys = frozenset(ctx.catalog()["STAT_KEYS"])
        for tuple_name in COUNTER_TUPLES:
            found = _module_str_tuple(tree, tuple_name)
            if found is None:
                continue
            values, lineno = found
            for key in values:
                if key not in stat_keys:
                    violations.append(self.violation(
                        ctx, path, lineno,
                        f"{tuple_name} carries {key!r}, which is not a"
                        " STAT_KEYS member — resume would desynchronize"
                        " the unified stats contract",
                    ))
        return violations
