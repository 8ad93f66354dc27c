"""Tests for the reprolint static-analysis suite (``tools/reprolint``).

Each pass is exercised two ways:

* *fixture mode* — the pass runs on a known-bad file under
  ``tools/reprolint/fixtures/`` and must flag every seeded violation (and
  nothing else on the fixture's clean lines);
* *live mode* — the pass runs on the real tree and must be clean, which
  is exactly what CI asserts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO = Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.reprolint import (  # noqa: E402
    REGISTRY,
    LintContext,
    load_passes,
    run_passes,
)
from tools.reprolint.__main__ import main as reprolint_main  # noqa: E402

FIXTURES = REPO / "tools" / "reprolint" / "fixtures"

load_passes()

ALL_PASSES = sorted(REGISTRY)


def run_fixture(pass_name: str, fixture: str):
    ctx = LintContext(root=REPO, explicit_paths=[FIXTURES / fixture])
    return run_passes(ctx, select=[pass_name])


#: The catalog pass checks what three separate passes once did; each of
#: those names keeps its own fixture and live-tree test over its slice of
#: the catalog's vocabularies.
CATALOG_SLICES: dict[str, tuple[str, ...]] = {
    "inspector_commands": ("inspector command",),
    "obs_keys": ("counter", "metric", "recorder event"),
    "stop_reasons": ("stop_reason",),
}


def catalog_slice(violations, slice_name: str):
    """The catalog violations whose vocabulary is in ``slice_name``."""
    kinds = CATALOG_SLICES[slice_name]
    return [
        v for v in violations
        if any(v.message.startswith(f"{kind} '") for kind in kinds)
    ]


# ---------------------------------------------------------------------------
# Framework
# ---------------------------------------------------------------------------
def test_every_pass_registered():
    assert set(ALL_PASSES) == {
        "api_all",
        "catalog",
        "checkpoint_fields",
        "clock_discipline",
        "exception_flow",
        "fork_safety",
        "layering",
        "message_protocol",
        "no_recursion",
        "signal_safety",
        "wire_schema",
    }


def test_unknown_pass_rejected():
    ctx = LintContext(root=REPO)
    with pytest.raises(KeyError):
        run_passes(ctx, select=["no_such_pass"])


def test_violation_render_format():
    violations = run_fixture("clock_discipline", "clock_discipline.py")
    assert violations
    line = violations[0].render()
    assert "[clock_discipline]" in line
    assert "clock_discipline.py" in line
    d = violations[0].as_dict()
    assert set(d) == {"pass", "path", "line", "message"}


# ---------------------------------------------------------------------------
# Per-pass fixtures: every seeded violation is flagged
# ---------------------------------------------------------------------------
def test_layering_fixture_flagged():
    violations = run_fixture("layering", "layering.py")
    assert violations, "layering fixture must be flagged"
    assert all(v.pass_name == "layering" for v in violations)
    # Both the plain and the lazy (function-body) forbidden import.
    assert len(violations) >= 2


def test_no_recursion_fixture_flagged():
    violations = run_fixture("no_recursion", "no_recursion.py")
    flagged = {v.message.split(" is ")[0] for v in violations}
    assert flagged == {"descend", "ping", "pong", "Walker.walk"}
    # The explicit-stack function must NOT be flagged.
    assert "iterative" not in flagged


def test_catalog_fixture_flagged():
    violations = run_fixture("catalog", "catalog.py")
    flagged = {v.message.split("'")[1] for v in violations}
    assert flagged == {
        "ccsr.bytes_red",  # .inc() counter typo
        "reed_seconds",  # .gauge() metric typo
        "degrad",  # .record() event typo
        "time-limit",  # stop_reason assignment
        "memory",  # stop_reason comparison
        "emb_limit",  # stop_reason= keyword
        "stauts",  # .request() typo
        "shutdown",  # never-declared command
        "progres",  # .handle() typo
        "cancel-all",  # HANDLERS key
    }
    assert len(violations) == 10
    # The clean literals — one member of each vocabulary, in each
    # position — are not flagged.
    for clean in (
        "nodes", "plan_cache.hits", "embeddings", "degrade", "cancelled",
        "status", "cancel", "progress",
    ):
        assert clean not in flagged


def test_obs_keys_fixture_flagged():
    violations = catalog_slice(
        run_fixture("catalog", "catalog.py"), "obs_keys"
    )
    messages = " ".join(v.message for v in violations)
    assert "ccsr.bytes_red" in messages  # counter typo
    assert "reed_seconds" in messages  # metric typo
    assert "'degrad'" in messages  # recorder event typo
    # The fixture's clean literals (STAT_KEYS / KNOWN_COUNTERS /
    # KNOWN_METRICS / KNOWN_EVENTS members) are not flagged.
    assert "'nodes'" not in messages
    assert "plan_cache.hits" not in messages
    assert "embeddings" not in messages
    assert "'degrade'" not in messages
    assert len(violations) == 3


def test_stop_reasons_fixture_flagged():
    violations = catalog_slice(
        run_fixture("catalog", "catalog.py"), "stop_reasons"
    )
    flagged = {v.message.split("'")[1] for v in violations}
    assert flagged == {"time-limit", "memory", "emb_limit"}
    # The canonical member on the clean line is not flagged.
    assert "cancelled" not in flagged
    assert len(violations) == 3


def test_inspector_commands_fixture_flagged():
    violations = catalog_slice(
        run_fixture("catalog", "catalog.py"), "inspector_commands"
    )
    messages = " ".join(v.message for v in violations)
    assert "'stauts'" in messages  # .request() typo
    assert "'shutdown'" in messages  # never-registered command
    assert "'progres'" in messages  # .handle() typo
    assert "'cancel-all'" in messages  # HANDLERS key not registered
    # The fixture's clean literals (KNOWN_COMMANDS members) are not
    # flagged — neither as call args nor as HANDLERS keys.
    assert "'status'" not in messages
    assert "'cancel'" not in messages
    assert "'progress'" not in messages
    assert len(violations) == 4


def test_checkpoint_fields_fixture_flagged():
    violations = run_fixture("checkpoint_fields", "checkpoint_fields.py")
    messages = " ".join(v.message for v in violations)
    assert "progress" in messages  # dropped document key
    assert "extra" in messages  # added document key
    assert "node_visits" in messages  # non-STAT_KEYS counter


def test_clock_discipline_fixture_flagged():
    violations = run_fixture("clock_discipline", "clock_discipline.py")
    messages = " ".join(v.message for v in violations)
    assert "naked 'except:'" in messages
    assert "time.time()" in messages
    # Both the plain and the from-import alias wall-clock reads.
    assert sum("time.time()" in v.message for v in violations) == 2


def test_fork_safety_fixture_flagged():
    violations = run_fixture("fork_safety", "fork_safety.py")
    flagged = {v.message.split("'")[1] for v in violations}
    assert flagged == {
        "REGISTRY", "ACTIVE_WORKERS", "SEEN", "PENDING", "BY_ID", "FIRST",
    }
    # Immutable constants, the allowlisted logger, and function-local
    # mutables are not flagged.
    for clean in ("STOP_ORDER", "KNOWN", "LIMIT", "logger", "local", "REST"):
        assert clean not in flagged


def test_fork_safety_covers_pool_modules():
    from tools.reprolint.passes.fork_safety import SCOPES

    assert "src/repro/engine/pool.py" in SCOPES
    assert "src/repro/engine/workunit.py" in SCOPES


def test_no_recursion_covers_pool_modules():
    from tools.reprolint.passes.no_recursion import SCOPES

    assert "src/repro/engine/pool.py" in SCOPES
    assert "src/repro/engine/workunit.py" in SCOPES


def test_clock_discipline_covers_pool_module():
    # clock_discipline scopes by directory (all of src/repro, with the
    # wall-clock rule on src/repro/engine); the pool module must be in
    # the engine scan set.
    from tools.reprolint.passes.clock_discipline import ENGINE_PREFIX

    ctx = LintContext(root=REPO)
    scanned = {ctx.rel(p) for p in ctx.files("src/repro")}
    assert "src/repro/engine/pool.py" in scanned
    pool_rel = "src/repro/engine/pool.py"
    assert pool_rel.startswith("/".join(ENGINE_PREFIX))


def test_api_all_fixture_flagged():
    violations = run_fixture("api_all", "api_all.py")
    messages = " ".join(v.message for v in violations)
    assert "removed_function" in messages  # listed but never bound
    assert "lists 'parse' twice" in messages  # duplicate entry
    assert "string literals" in messages  # the 42 entry


def test_wire_schema_fixture_flagged():
    violations = run_fixture("wire_schema", "wire_schema.py")
    messages = " ".join(v.message for v in violations)
    # Encoder writes a key the manifest does not declare.
    assert "'trailer'" in messages
    # Encoder that never stamps format/version.
    assert "encode_unstamped" in messages
    # Manifest key no listed encoder writes.
    assert "'ghost'" in messages
    # Decoder reads a key outside the manifest.
    assert "'checksum'" in messages
    # The agreeing key is never flagged.
    assert "'body'" not in messages
    assert len(violations) == 4


def test_message_protocol_fixture_flagged():
    violations = run_fixture("message_protocol", "message_protocol.py")
    messages = " ".join(v.message for v in violations)
    assert "'progress'" in messages  # unregistered send
    assert "'retired'" in messages  # dead dispatcher branch
    assert "'lost'" in messages  # registered but never handled
    # Kinds that are both registered and handled stay clean.
    assert "'ready'" not in messages
    assert "'done'" not in messages
    assert len(violations) == 3


def test_exception_flow_fixture_flagged():
    violations = run_fixture("exception_flow", "exception_flow.py")
    messages = " ".join(v.message for v in violations)
    # TimeLimitExceeded raised in tick() escapes through search() to the
    # root run_query() with no mapping handler anywhere on the path.
    assert "TimeLimitExceeded" in messages
    assert "run_query" in messages
    # The handler that catches EmbeddingLimitExceeded and just logs.
    assert "EmbeddingLimitExceeded" in messages
    assert "swallow" in messages
    assert len(violations) == 2
    # The escape is reported at the raise site.
    lines = {v.line for v in violations}
    assert 19 in lines


def test_signal_safety_fixture_flagged():
    violations = run_fixture("signal_safety", "signal_safety.py")
    messages = " ".join(v.message for v in violations)
    assert "context manager" in messages  # `with lock:` in the handler
    assert ".flush()" in messages  # disallowed method call
    assert "file=sys.stderr" in messages  # print without stderr
    assert "open()" in messages  # arbitrary call
    assert len(violations) == 4


# ---------------------------------------------------------------------------
# Live tree: the repository itself is clean
# ---------------------------------------------------------------------------
LIVE_CHECKS = sorted([*ALL_PASSES, *CATALOG_SLICES])


@pytest.mark.parametrize("pass_name", LIVE_CHECKS)
def test_live_tree_clean(pass_name):
    ctx = LintContext(root=REPO)
    if pass_name in CATALOG_SLICES:
        violations = catalog_slice(
            run_passes(ctx, select=["catalog"]), pass_name
        )
    else:
        violations = run_passes(ctx, select=[pass_name])
    assert violations == [], "\n".join(v.render() for v in violations)


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------
def test_cli_exit_zero_on_clean_tree():
    assert reprolint_main([]) == 0


def test_cli_exit_one_on_bad_fixture(capsys):
    code = reprolint_main(
        ["--select", "api_all", str(FIXTURES / "api_all.py")]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[api_all]" in out


def test_cli_exit_two_on_missing_path(capsys):
    assert reprolint_main(["/no/such/file.py"]) == 2


def test_cli_json_output(capsys):
    code = reprolint_main(
        ["--json", "--select", "catalog", str(FIXTURES / "catalog.py")]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"]
    assert all(v["pass"] == "catalog" for v in payload["violations"])


# ---------------------------------------------------------------------------
# Seeded drift demos: mutate the *real* wire modules and watch the
# semantic passes name the exact file, line, and manifest
# ---------------------------------------------------------------------------
def run_on_file(pass_name: str, path: Path):
    ctx = LintContext(root=REPO, explicit_paths=[path])
    return run_passes(ctx, select=[pass_name])


def test_wire_schema_catches_dropped_checkpoint_key(tmp_path):
    """Deleting one encoder-written key from the live checkpoint module
    (without bumping CHECKPOINT_VERSION) must be flagged on *both*
    manifests that declare it, at the manifest lines."""
    source = (REPO / "src" / "repro" / "engine" / "checkpoint.py").read_text()
    dropped = '        "pattern": {"text": text, "digest": digest},\n'
    assert dropped in source, "drift-demo anchor line moved"
    mutated = tmp_path / "checkpoint_drift.py"
    mutated.write_text(source.replace(dropped, "", 1))

    violations = run_on_file("wire_schema", mutated)
    assert len(violations) == 2  # "checkpoint" and "quarantine-residue"
    messages = " ".join(v.message for v in violations)
    assert "'pattern'" in messages
    assert "manifest 'checkpoint'" in messages
    assert "manifest 'quarantine-residue'" in messages
    assert "version bump" in messages
    # Each violation is anchored at its manifest's declaration line.
    for v in violations:
        assert v.path == str(mutated)
        assert v.line > 0


def test_message_protocol_catches_unregistered_send(tmp_path):
    """Appending a send site with an unregistered kind to the live pool
    module must be flagged at the exact line of the new put() call."""
    source = (REPO / "src" / "repro" / "engine" / "pool.py").read_text()
    addition = '\n\ndef _vanish(q):\n    q.put(("vanish", 1))\n'
    mutated = tmp_path / "pool_drift.py"
    mutated.write_text(source + addition)

    violations = run_on_file("message_protocol", mutated)
    assert len(violations) == 1
    v = violations[0]
    assert "'vanish'" in v.message
    assert "MESSAGE_KINDS" in v.message
    # The flagged line is the put() call — the last line of the file.
    assert v.line == len(mutated.read_text().splitlines())


# ---------------------------------------------------------------------------
# Hypothesis: *any* single-key drift in a clean fixture is caught
# ---------------------------------------------------------------------------
CLEAN_WIRE = (FIXTURES / "clean_wire.py").read_text()
CLEAN_PROTOCOL = (FIXTURES / "clean_protocol.py").read_text()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(key=st.sampled_from(["head", "body", "tail"]))
def test_any_dropped_encoder_key_is_flagged(tmp_path_factory, key):
    """Property: delete any one encoder-written key from the clean wire
    fixture and wire_schema must flag exactly that key's manifest drift."""
    line = f'        "{key}": {key},\n'
    assert line in CLEAN_WIRE
    mutated = tmp_path_factory.mktemp("drift") / "clean_wire_mut.py"
    mutated.write_text(CLEAN_WIRE.replace(line, "", 1))

    violations = run_on_file("wire_schema", mutated)
    assert len(violations) == 1
    assert f"'{key}'" in violations[0].message
    assert "manifest 'clean-doc'" in violations[0].message


@settings(max_examples=20, derandomize=True, deadline=None)
@given(kind=st.from_regex(r"[a-z]{3,10}", fullmatch=True))
def test_any_unregistered_kind_is_flagged(tmp_path_factory, kind):
    """Property: append a send with any kind outside MESSAGE_KINDS to
    the clean protocol fixture and message_protocol must flag it."""
    registered = ("ready", "beat", "done")
    addition = f'\n\ndef stray(results):\n    results.put(("{kind}", 1))\n'
    mutated = tmp_path_factory.mktemp("drift") / "clean_protocol_mut.py"
    mutated.write_text(CLEAN_PROTOCOL + addition)

    violations = run_on_file("message_protocol", mutated)
    if kind in registered:
        assert violations == []
    else:
        assert len(violations) == 1
        assert f"'{kind}'" in violations[0].message


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------
def test_sarif_output_structure(capsys):
    code = reprolint_main(
        ["--sarif", "--select", "wire_schema",
         str(FIXTURES / "wire_schema.py")]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    # One rule per registered pass, regardless of selection.
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == set(ALL_PASSES)
    results = run["results"]
    assert len(results) == 4
    for result in results:
        assert result["ruleId"] == "wire_schema"
        assert result["level"] == "error"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("wire_schema.py")
        assert loc["region"]["startLine"] > 0


def test_sarif_clean_tree_empty_results(capsys):
    assert reprolint_main(["--sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# --diff: wire-manifest version-bump discipline against a git base
# ---------------------------------------------------------------------------
def test_diff_against_head_is_clean(capsys):
    # HEAD vs HEAD: no manifest drift by construction.
    assert reprolint_main(["--diff", "HEAD"]) == 0


def test_diff_rejects_bad_revision(capsys):
    assert reprolint_main(["--diff", "no-such-ref-xyz"]) == 2
    assert "not a resolvable" in capsys.readouterr().err


def test_diff_rejects_explicit_paths(capsys):
    code = reprolint_main(
        ["--diff", "HEAD", str(FIXTURES / "wire_schema.py")]
    )
    assert code == 2


def test_diff_flags_unbumped_keyset_change():
    """Unit-level: same version, changed key set -> violation; bumped
    version -> clean; removed manifest -> violation."""
    import ast

    from tools.reprolint.passes import wire_schema

    old_src = CLEAN_WIRE
    new_same_version = CLEAN_WIRE.replace(
        '"keys": ("format", "version", "head", "body", "tail"),',
        '"keys": ("format", "version", "head", "body"),',
    )
    new_bumped = new_same_version.replace(
        "DOC_VERSION = 1", "DOC_VERSION = 2"
    )
    ctx = LintContext(root=REPO, explicit_paths=[FIXTURES / "clean_wire.py"])
    path = FIXTURES / "clean_wire.py"

    drift = wire_schema.diff_violations(
        ctx, path, ast.parse(old_src), ast.parse(new_same_version)
    )
    assert len(drift) == 1
    assert "'tail'" in drift[0].message
    assert "version" in drift[0].message

    bumped = wire_schema.diff_violations(
        ctx, path, ast.parse(old_src), ast.parse(new_bumped)
    )
    assert bumped == []

    removed = wire_schema.diff_violations(
        ctx, path, ast.parse(old_src), ast.parse("X = 1\n")
    )
    assert len(removed) == 1
    assert "clean-doc" in removed[0].message
