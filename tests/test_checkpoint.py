"""Checkpoint/resume tests: suspended streams serialize their frame stack
and resume to byte-identical combined counts; mutated stores are refused."""

import json

import pytest

from repro.core import CSCE
from repro.engine import (
    STOP_EMBEDDING_LIMIT,
    STOP_MEMORY_LIMIT,
    Budget,
    ResourceGovernor,
    load_checkpoint,
    write_checkpoint,
)
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    validate_checkpoint,
)
from repro.errors import CheckpointError, PlanError
from repro.graph import Graph
from repro.obs import build_run_report, robustness_problems
from repro.testing import FaultInjector, memory_spike

from conftest import make_random_graph

VARIANTS = ("edge_induced", "vertex_induced", "homomorphic")


@pytest.fixture
def graph():
    return make_random_graph(40, 110, num_labels=2, seed=5)


def square():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def drain(stream):
    embeddings = list(stream)
    return embeddings, stream.result()


class TestRoundTrip:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_resume_reaches_exact_full_count(self, graph, tmp_path, variant):
        engine = CSCE(graph)
        p = square()
        full = engine.match(p, variant).count
        if full < 3:
            pytest.skip("pattern too rare in this graph for a mid-run stop")
        path = tmp_path / "ck.json"

        first, interrupted = drain(
            engine.match_iter(
                p, variant, max_embeddings=full // 2, checkpoint_path=path
            )
        )
        assert interrupted.stop_reason == STOP_EMBEDDING_LIMIT
        assert interrupted.count == full // 2
        assert path.exists()

        rest, resumed = drain(engine.resume(path, max_embeddings=None))
        assert resumed.stop_reason is None
        # The resumed result's count is cumulative (prior emitted + new).
        assert resumed.count == full
        assert len(first) + len(rest) == full
        # No embedding is produced twice across the suspend boundary.
        keys = {tuple(sorted(e.items())) for e in first + rest}
        assert len(keys) == full

    def test_repeated_suspend_resume_cycles(self, graph, tmp_path):
        engine = CSCE(graph)
        p = square()
        full = engine.match(p, "edge_induced").count
        assert full > 4
        path = tmp_path / "ck.json"
        step = max(1, full // 4)

        emitted = 0
        stream = engine.match_iter(
            p, "edge_induced", max_embeddings=step, checkpoint_path=path
        )
        for _ in range(20):
            chunk, result = drain(stream)
            emitted += len(chunk)
            if result.stop_reason is None:
                break
            stream = engine.resume(
                path, max_embeddings=emitted + step, checkpoint_path=path
            )
        else:
            pytest.fail("resume loop did not converge")
        assert emitted == full
        assert result.count == full

    def test_resumed_counters_are_cumulative(self, graph, tmp_path):
        engine = CSCE(graph)
        p = square()
        full_result = engine.match(p, "edge_induced", count_only=False)
        path = tmp_path / "ck.json"
        _, interrupted = drain(
            engine.match_iter(p, max_embeddings=2, checkpoint_path=path)
        )
        _, resumed = drain(engine.resume(path, max_embeddings=None))
        assert resumed.stats["nodes"] >= full_result.stats["nodes"]
        assert resumed.stats["nodes"] > interrupted.stats["nodes"]

    def test_completed_stream_writes_no_checkpoint(self, graph, tmp_path):
        engine = CSCE(graph)
        path = tmp_path / "ck.json"
        stream = engine.match_iter(square(), checkpoint_path=path)
        drain(stream)
        assert stream.checkpoint_sink.written is None
        assert not path.exists()

    def test_checkpoint_path_rejects_caller_plan(self, graph, tmp_path):
        engine = CSCE(graph)
        plan = engine.build_plan(square(), "edge_induced")
        with pytest.raises(PlanError, match="session-compiled"):
            engine.match_iter(
                square(), plan=plan, checkpoint_path=tmp_path / "ck.json"
            )


class TestLadderResume:
    def test_resume_climbs_on_from_the_checkpointed_rung(self, tmp_path):
        # A checkpoint taken after only evict_memo must resume at the
        # disable_memo rung, not evict again (the ladder stays in order).
        engine = CSCE(make_random_graph(30, 80, num_labels=2, seed=3))
        path = tmp_path / "ck.json"
        # One breach on the fourth governor sample: the memo is populated
        # by then, so eviction relieves it and the ladder stops at rung 1.
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=256.0))
        with FaultInjector(seed=1).on(
            "governor.memory", memory_spike(10_000.0), after=3, times=1
        ):
            drain(
                engine.match_iter(
                    square(), "edge_induced", max_embeddings=5,
                    governor=gov, checkpoint_path=path,
                )
            )
        assert load_checkpoint(path)["progress"]["degradation"] == [
            "evict_memo"
        ]
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=256.0))
        with FaultInjector(seed=1).on(
            "governor.memory", memory_spike(10_000.0)
        ):
            _, resumed = drain(
                engine.resume(path, max_embeddings=None, governor=gov)
            )
        assert resumed.stop_reason == STOP_MEMORY_LIMIT
        assert resumed.degradation == [
            "evict_memo", "disable_memo", "suspend",
        ]
        report = build_run_report(resumed, engine="CSCE")
        assert robustness_problems(report) == []


class TestStoreGuard:
    def _checkpoint(self, engine, tmp_path):
        path = tmp_path / "ck.json"
        _, result = drain(
            engine.match_iter(square(), max_embeddings=1, checkpoint_path=path)
        )
        assert result.stop_reason == STOP_EMBEDDING_LIMIT
        return path

    def test_mutated_store_refuses_resume(self, graph, tmp_path):
        engine = CSCE(graph)
        path = self._checkpoint(engine, tmp_path)
        engine.store.insert_vertex(0)
        with pytest.raises(CheckpointError, match="store"):
            engine.resume(path)

    def test_different_store_refuses_resume(self, graph, tmp_path):
        engine = CSCE(graph)
        path = self._checkpoint(engine, tmp_path)
        other = CSCE(make_random_graph(40, 110, num_labels=2, seed=6))
        with pytest.raises(CheckpointError):
            other.resume(path)

    def test_unchanged_store_resumes(self, graph, tmp_path):
        engine = CSCE(graph)
        path = self._checkpoint(engine, tmp_path)
        _, resumed = drain(engine.resume(path, max_embeddings=None))
        assert resumed.stop_reason is None


class TestDocumentValidation:
    def _valid_doc(self, graph, tmp_path):
        engine = CSCE(graph)
        path = tmp_path / "ck.json"
        drain(engine.match_iter(square(), max_embeddings=1,
                                checkpoint_path=path))
        return engine, path, load_checkpoint(path)

    def test_load_checkpoint_validates(self, graph, tmp_path):
        _, _, doc = self._valid_doc(graph, tmp_path)
        assert doc["format"] == CHECKPOINT_FORMAT
        assert doc["version"] == CHECKPOINT_VERSION
        validate_checkpoint(doc)

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("this is not json {{{")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_wrong_format_raises(self, graph, tmp_path):
        _, path, doc = self._valid_doc(graph, tmp_path)
        doc["format"] = "something-else"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_future_version_raises(self, graph, tmp_path):
        _, path, doc = self._valid_doc(graph, tmp_path)
        doc["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_missing_section_raises(self, graph, tmp_path):
        _, path, doc = self._valid_doc(graph, tmp_path)
        del doc["state"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_tampered_pattern_refused_on_resume(self, graph, tmp_path):
        engine, path, doc = self._valid_doc(graph, tmp_path)
        doc["pattern"]["digest"] = "0" * 64
        with pytest.raises(CheckpointError, match="pattern"):
            engine.resume(doc)

    def test_write_checkpoint_is_atomic(self, graph, tmp_path):
        # The temp file used for the atomic replace must not linger.
        engine = CSCE(graph)
        path = tmp_path / "ck.json"
        stream = engine.match_iter(square(), max_embeddings=1)
        drain(stream)
        write_checkpoint(
            path, stream, engine.store, square(), stream.result().variant,
            "csce",
        )
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
