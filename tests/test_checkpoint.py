"""Checkpoint/resume tests: suspended streams serialize their frame stack
and resume to byte-identical combined counts; mutated stores are refused."""

import copy
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
from repro.errors import CheckpointError
from repro.graph import Graph
from repro.graph.patterns import path
from repro.obs import build_run_report, robustness_problems
from repro.testing import FaultInjector, memory_spike

from conftest import make_random_graph

VARIANTS = ("edge_induced", "vertex_induced", "homomorphic")


#: A seeded stream checkpoint (``path(4)``, seed ``{1: 2}``, capped at 5)
#: as written when pins were fields of the compiled ops.
SEEDED_PATH4_CHECKPOINT = {
    "format": "repro-checkpoint",
    "version": 1,
    "pattern": {
        "text": "t 4 3\nv 0 0\nv 1 0\nv 2 0\nv 3 0\ne 0 1 - u\ne 1 2 - u\ne 2 3 - u\n",
        "digest": "79b80b5191585f371cf03c1902f5ccf3d424650190d6dc8ba731565417030b26",
    },
    "store": {
        "version": 0,
        "digest": "ef05b59f95efdcfb616eebf020ef899ae8a4f5d3ec6bcbdcce05cbce997e72db",
        "num_vertices": 7,
        "num_edges": 14,
        "name": "",
    },
    "query": {
        "variant": "edge_induced",
        "planner": "csce",
        "restrictions": [],
        "seed": [[1, 2]],
        "use_sce": True,
    },
    "limits": {"max_embeddings": 5, "time_limit": None},
    "progress": {
        "emitted": 5,
        "stop_reason": "embedding_limit",
        "degradation": [],
        "counters": {
            "nodes": 5,
            "backtracks": 0,
            "prunes_injective": 3,
            "prunes_restriction": 0,
            "computed": 3,
            "memo_hits": 2,
            "memo_misses": 2,
            "intersections": 0,
            "negation_checks": 0,
        },
    },
    "state": {
        "assignment": [5, 2, 0, 4],
        "used": [0, 2, 4, 5],
        "values": [[2], [0, 3, 5, 6], [0, 3, 5, 6], [1, 2, 4, 5]],
        "index": [1, 1, 3, 3],
        "emitted_at": [0, 0, 0, 3],
        "pos": 3,
    },
}


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

    def test_resume_at_the_cap_yields_nothing_more(self, graph, tmp_path):
        # The checkpoint keeps the cap the stream stopped at, so a resume
        # with its limits stops before the first step: the count stays at
        # the cap instead of overshooting it by one.
        engine = CSCE(graph)
        full = engine.match(square(), "edge_induced").count
        assert full > 4
        cap = full // 2
        path = tmp_path / "ck.json"
        drain(engine.match_iter(square(), max_embeddings=cap,
                                checkpoint_path=path))
        rest, resumed = drain(engine.resume(path))
        assert rest == []
        assert resumed.count == cap
        assert resumed.stop_reason == STOP_EMBEDDING_LIMIT

    def test_governed_cap_is_written_to_the_checkpoint(self, graph, tmp_path):
        # The checkpoint stores the limits the run enforced — here a cap
        # from the governor's budget — so a resume stays capped.
        engine = CSCE(graph)
        full = engine.match(square(), "edge_induced").count
        assert full > 4
        cap = full // 2
        path = tmp_path / "ck.json"
        governor = ResourceGovernor(Budget(max_embeddings=cap))
        drain(engine.match_iter(square(), governor=governor,
                                checkpoint_path=path))
        assert load_checkpoint(path)["limits"] == {
            "max_embeddings": cap, "time_limit": None,
        }
        rest, resumed = drain(engine.resume(path))
        assert rest == []
        assert resumed.count == cap

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

    def test_seeded_restricted_checkpoint_resumes_exactly(self, tmp_path):
        # The checkpoint stamps the restrictions and seed of the plan the
        # stream ran; a stream resume and a pool resume both rebind them
        # and reach the uninterrupted seeded, restricted count.
        engine = CSCE(make_random_graph(40, 160, num_labels=0, seed=5))
        p, restrictions = square(), ((0, 2),)

        def count(**query):
            return engine.match(p, count_only=True, **query).count

        per_vertex = {
            v: count(restrictions=restrictions, seed={1: v}) for v in range(40)
        }
        v = max(per_vertex, key=per_vertex.get)
        seed, full = {1: v}, per_vertex[v]
        assert full >= 3
        assert full < count(restrictions=restrictions)
        assert full < count(seed=seed)
        path = tmp_path / "ck.json"
        first, interrupted = drain(
            engine.match_iter(
                p, max_embeddings=full // 2, restrictions=restrictions,
                seed=seed, checkpoint_path=path,
            )
        )
        assert interrupted.stop_reason == STOP_EMBEDDING_LIMIT
        query = load_checkpoint(path)["query"]
        assert query["restrictions"] == [[0, 2]]
        assert query["seed"] == [[1, v]]
        rest, resumed = drain(engine.resume(path, max_embeddings=None))
        assert resumed.stop_reason is None
        assert resumed.count == len(first) + len(rest) == full
        assert all(e[1] == v and e[0] < e[2] for e in first + rest)
        pooled = engine.resume_pool(path, workers=2, max_embeddings=None)
        assert pooled.stop_reason is None
        assert pooled.count == full

    def test_seeded_checkpoint_of_the_op_pin_format_resumes(self, tmp_path):
        """A seeded checkpoint written when pins were compiled into the
        ops (``query.seed`` read off them) resumes, in-process and on the
        pool, to the seeded total: the format is unchanged, and the seed
        is bound again at restore."""
        document = SEEDED_PATH4_CHECKPOINT
        engine = CSCE(
            Graph.from_edges(
                7,
                [(i, j) for i in range(7) for j in range(i + 1, 7) if (i + j) % 3],
            )
        )
        assert engine.count(path(4), seed={1: 2}) == 30
        rest = list(engine.resume(copy.deepcopy(document), max_embeddings=None))
        assert document["progress"]["emitted"] + len(rest) == 30
        assert all(e[1] == 2 for e in rest)
        file = tmp_path / "seeded.ck.json"
        file.write_text(json.dumps(document))
        pooled = engine.resume_pool(file, workers=2, max_embeddings=None)
        assert pooled.stop_reason is None and pooled.count == 30

    def test_completed_stream_writes_no_checkpoint(self, graph, tmp_path):
        engine = CSCE(graph)
        path = tmp_path / "ck.json"
        stream = engine.match_iter(square(), checkpoint_path=path)
        drain(stream)
        assert stream.checkpoint_sink.written is None
        assert not path.exists()


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
        write_checkpoint(path, stream, engine.store)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
