"""Live-inspection tests: wire protocol, inspector sampling/control,
socket server robustness, CLI surface, and the lossless WorkerSnapshot
encoding (Hypothesis property).

The live tests install a rule-less :class:`FaultInjector` (drops the tick
interval to every node) and a zero-interval heartbeat, so the inspector
publishes on every frame step — dense enough that a handful of embeddings
exercises every sampling path.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import CSCE
from repro.engine import (
    CancelToken,
    ResourceGovernor,
    load_checkpoint,
)
from repro.errors import InspectorError, MatchCancelled, WireError
from repro.graph import Graph
from repro.obs import (
    Observation,
    build_run_report,
    robustness_problems,
    validate_run_report,
)
from repro.obs.catalog import KNOWN_COMMANDS
from repro.obs.inspect import (
    InspectorClient,
    InspectorServer,
    MatchInspector,
    inspect_call,
    render_top,
    resolve_endpoint,
)
from repro.obs.merge import SpanContext, WorkerSnapshot, merge_counters
from repro.obs.progress import Heartbeat, RunSnapshot
from repro.obs.wire import (
    MAX_FRAME_BYTES,
    WIRE_FORMAT,
    WIRE_VERSION,
    decode_frame,
    decode_response,
    decode_snapshot,
    encode_frame,
    encode_snapshot,
    error_frame,
    ok_frame,
    request_frame,
    validate_request,
)
from repro.testing.faults import FaultInjector

from conftest import make_random_graph


@pytest.fixture
def graph():
    return make_random_graph(40, 110, num_labels=2, seed=5)


def square():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class LiveRun:
    """A streaming match with a dense-ticking inspector attached."""

    def __init__(self, graph, tmp_path, checkpoint=False, address=None):
        self.injector = FaultInjector().install()  # tick every node
        self.engine = CSCE(graph)
        self.obs = Observation(heartbeat_interval=0.0)
        self.governor = ResourceGovernor(cancel=CancelToken(), obs=self.obs)
        self.checkpoint_path = tmp_path / "live-ck.json"
        self.stream = self.engine.match_iter(
            square(),
            "edge_induced",
            obs=self.obs,
            governor=self.governor,
            time_limit=300.0,
            checkpoint_path=self.checkpoint_path if checkpoint else None,
        )
        self.inspector = MatchInspector(
            self.stream,
            self.obs,
            governor=self.governor,
            worker="test-worker",
            checkpoint_factory=lambda path: __import__(
                "repro.engine.checkpoint", fromlist=["CheckpointSink"]
            ).CheckpointSink(
                path, self.engine.store, square(), "edge_induced", "csce"
            ),
            default_checkpoint_path=str(tmp_path / "default-ck.json"),
        ).attach()
        self.server = InspectorServer(
            self.inspector,
            str(address if address is not None else tmp_path / "insp.sock"),
        ).start()

    def drain(self, pace=0.0):
        embeddings = []
        for embedding in self.stream:
            embeddings.append(embedding)
            if pace:
                time.sleep(pace)
        result = self.stream.result()
        self.inspector.finish(result)
        return embeddings, result

    def close(self):
        self.server.stop()
        self.stream.close()
        self.injector.uninstall()


@pytest.fixture
def live(graph, tmp_path):
    run = LiveRun(graph, tmp_path)
    yield run
    run.close()


# ---------------------------------------------------------------------------
# Wire protocol units
# ---------------------------------------------------------------------------
class TestWire:
    def test_frame_round_trip(self):
        frame = request_frame("status", {"a": 1})
        assert decode_frame(encode_frame(frame)) == frame
        assert encode_frame(frame).endswith(b"\n")

    def test_request_frame_rejects_unknown_command(self):
        with pytest.raises(WireError, match="unknown command"):
            request_frame("definitely-not-a-command")

    def test_every_known_command_builds_a_request(self):
        for cmd in KNOWN_COMMANDS:
            cmd_name, args = validate_request(request_frame(cmd))
            assert cmd_name == cmd
            assert args == {}

    def test_decode_rejects_garbage(self):
        for bad in (b"", b"   \n", b"not json\n", b"[1, 2]\n", b'"str"\n'):
            with pytest.raises(WireError):
                decode_frame(bad)
        with pytest.raises(WireError, match="UTF-8"):
            decode_frame(b"\xff\xfe\n")

    def test_oversized_frames_rejected_both_ways(self):
        with pytest.raises(WireError, match="exceeds"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))
        with pytest.raises(WireError, match="exceeds"):
            encode_frame({"blob": "x" * MAX_FRAME_BYTES})

    def test_nan_rejected(self):
        with pytest.raises(WireError, match="serializable"):
            encode_frame({"v": float("nan")})

    def test_validate_request_rejects_foreign_frames(self):
        with pytest.raises(WireError, match="format"):
            validate_request({"format": "other", "version": WIRE_VERSION})
        with pytest.raises(WireError, match="version"):
            validate_request({"format": WIRE_FORMAT, "version": 99,
                              "cmd": "status"})
        with pytest.raises(WireError, match="unknown command"):
            validate_request({"format": WIRE_FORMAT,
                              "version": WIRE_VERSION, "cmd": "nope"})
        with pytest.raises(WireError, match="args"):
            validate_request({"format": WIRE_FORMAT,
                              "version": WIRE_VERSION, "cmd": "status",
                              "args": [1]})

    def test_decode_response_unwraps_and_raises(self):
        assert decode_response(ok_frame("status", {"x": 1})) == {"x": 1}
        with pytest.raises(InspectorError, match="boom"):
            decode_response(error_frame("boom", cmd="status"))
        # WireError subclasses InspectorError: one except clause catches
        # both on the client side.
        assert issubclass(WireError, InspectorError)

    def test_snapshot_stamp_checked(self):
        snap = WorkerSnapshot(worker="w", counters={"nodes": 1})
        payload = encode_snapshot(snap)
        assert decode_snapshot(payload) == snap
        with pytest.raises(WireError, match="format"):
            decode_snapshot({**payload, "format": "other"})
        with pytest.raises(WireError, match="version"):
            decode_snapshot({**payload, "version": 99})
        with pytest.raises(WireError, match="malformed"):
            decode_snapshot({"format": payload["format"],
                             "version": payload["version"]})


# ---------------------------------------------------------------------------
# Registry alignment
# ---------------------------------------------------------------------------
def test_handlers_cover_exactly_the_known_commands():
    assert set(MatchInspector.HANDLERS) == set(KNOWN_COMMANDS)


# ---------------------------------------------------------------------------
# The live inspector over a real socket
# ---------------------------------------------------------------------------
class TestLiveInspection:
    def test_every_command_round_trips_over_the_socket(self, live):
        live.drain()
        address = live.server.endpoint
        for cmd in KNOWN_COMMANDS:
            args = {}
            if cmd == "budget":
                args = {"max_embeddings": 10_000_000}
            data = inspect_call(address, cmd, args)
            assert isinstance(data, dict), cmd

    def test_status_and_progress_sample_the_run(self, live):
        _, result = live.drain()
        status = inspect_call(live.server.endpoint, "status")
        assert status["worker"] == "test-worker"
        assert status["state"] == "finished"
        assert status["emitted"] == result.count
        assert status["pid"] == os.getpid()
        progress = inspect_call(live.server.endpoint, "progress")
        assert 0.0 <= progress["percent"] <= 100.0
        assert progress["updates"] > 0
        assert isinstance(progress["depth_histogram"], dict)

    def test_progress_is_monotone_while_streaming(self, live):
        client = InspectorClient(live.server.endpoint)
        percents = []
        try:
            for _ in live.stream:
                percents.append(client.request("progress")["percent"])
        finally:
            client.close()
        assert len(percents) >= 2
        assert percents == sorted(percents)

    def test_counters_equal_the_final_run_report(self, live):
        _, result = live.drain()
        snap = decode_snapshot(inspect_call(live.server.endpoint, "counters"))
        report = build_run_report(result, engine="CSCE", obs=live.obs)
        assert snap.counters == report["counters"]
        assert snap.stats == dict(result.stats)
        # And the payload is merge-ready: a single-worker merge is exact.
        assert merge_counters(snap.counters) == {
            k: v for k, v in report["counters"].items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }

    def test_recorder_dump_and_tail_limit(self, live):
        live.drain()
        full = inspect_call(live.server.endpoint, "recorder")
        assert full["recorded"] > 0
        assert {e["name"] for e in full["events"]} <= {
            "run_start", "tick", "degrade", "checkpoint", "fault", "stop",
            "run_end",
        }
        tail = inspect_call(live.server.endpoint, "recorder", {"limit": 2})
        assert len(tail["events"]) == 2
        assert tail["events"] == full["events"][-2:]

    def test_cancel_stops_with_a_clean_partial_result(self, live):
        client = InspectorClient(live.server.endpoint)
        embeddings = []
        try:
            for embedding in live.stream:
                embeddings.append(embedding)
                if len(embeddings) == 2:
                    ack = client.request("cancel", {"reason": "test-stop"})
                    assert ack == {"cancelled": True, "reason": "test-stop"}
        finally:
            client.close()
        result = live.stream.result()
        live.inspector.finish(result)
        assert result.stop_reason == "cancelled"
        assert result.count == len(embeddings)
        with pytest.raises(MatchCancelled):
            result.check()
        report = build_run_report(result, engine="CSCE", obs=live.obs)
        validate_run_report(report)  # raises on malformed reports
        assert robustness_problems(report) == []
        status = inspect_call(live.server.endpoint, "status")
        assert status["stop_reason"] == "cancelled"

    def test_budget_embedding_cap_truncates_with_legacy_flag(self, live):
        inspect_call(live.server.endpoint, "budget", {"max_embeddings": 2})
        _, result = live.drain()
        assert result.stop_reason == "embedding_limit"
        assert result.truncated is True
        assert result.count >= 2

    def test_budget_deadline_times_out_with_legacy_flag(self, live):
        inspect_call(live.server.endpoint, "budget", {"time_limit": 1e-9})
        _, result = live.drain()
        assert result.stop_reason == "time_limit"
        assert result.timed_out is True

    def test_budget_rejects_garbage(self, live):
        with pytest.raises(InspectorError, match="at least one"):
            inspect_call(live.server.endpoint, "budget")
        with pytest.raises(InspectorError, match="positive"):
            inspect_call(live.server.endpoint, "budget",
                         {"time_limit": -1})
        with pytest.raises(InspectorError, match="number"):
            inspect_call(live.server.endpoint, "budget",
                         {"max_embeddings": "soon"})

    def test_concurrent_clients_while_streaming(self, graph, tmp_path):
        run = LiveRun(graph, tmp_path)
        try:
            errors = []
            stop = threading.Event()

            def chatter():
                try:
                    with InspectorClient(run.server.endpoint) as client:
                        while not stop.is_set():
                            client.request("status")
                            client.request("stats")
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=chatter, daemon=True)
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            embeddings, result = run.drain(pace=0.001)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors
            assert result.stop_reason is None
            # The chatter changed nothing: same count as an undisturbed run.
            baseline = CSCE(graph).match(square(), "edge_induced").count
            assert result.count == len(embeddings) == baseline
        finally:
            run.close()


# ---------------------------------------------------------------------------
# Server robustness: malformed frames, abrupt disconnects, fallback
# ---------------------------------------------------------------------------
class TestServerRobustness:
    def _connect(self, live):
        kind, target = resolve_endpoint(live.server.endpoint)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(target)
        else:
            sock = socket.create_connection(target)
        sock.settimeout(10.0)
        return sock

    def test_malformed_frame_gets_error_frame_not_disconnect(self, live):
        live.drain()
        sock = self._connect(live)
        try:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = decode_frame(reader.readline())
            assert response["ok"] is False
            assert "JSON" in response["error"]
            # An unknown command is also survivable.
            sock.sendall(encode_frame(
                {"format": WIRE_FORMAT, "version": WIRE_VERSION,
                 "cmd": "reboot"}
            ))
            response = decode_frame(reader.readline())
            assert response["ok"] is False
            # The connection still serves valid requests afterwards.
            sock.sendall(encode_frame(request_frame("status")))
            data = decode_response(decode_frame(reader.readline()))
            assert data["state"] == "finished"
        finally:
            sock.close()

    def test_abrupt_disconnect_leaves_server_alive(self, live):
        live.drain()
        sock = self._connect(live)
        sock.sendall(b'{"format": "repro-ins')  # partial frame, then gone
        sock.close()
        time.sleep(0.05)
        assert inspect_call(live.server.endpoint, "status")["state"] == \
            "finished"
        assert inspect_call(live.server.endpoint, "status")["clients"] == 0

    def test_handler_bug_is_an_error_frame(self, live, monkeypatch):
        live.drain()

        def explode(args):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(live.inspector, "_cmd_status", explode)
        with pytest.raises(InspectorError, match="internal error: kaboom"):
            inspect_call(live.server.endpoint, "status")
        # ...and the match/server survive it.
        assert inspect_call(live.server.endpoint, "progress")["updates"] > 0

    def test_tcp_fallback_via_pointer_file(self, graph, tmp_path):
        # A path too long for AF_UNIX (~104 byte limit) forces the TCP
        # loopback fallback; the same address string still resolves.
        deep = tmp_path / ("deep-" + "x" * 120)
        run = LiveRun(graph, tmp_path, address=deep)
        try:
            assert run.server.endpoint != str(deep)
            host, port = run.server.endpoint.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            assert deep.is_file()  # the pointer file
            run.drain()
            # Clients resolve the pointer file and the literal host:port.
            assert inspect_call(str(deep), "status")["state"] == "finished"
            assert inspect_call(run.server.endpoint, "status")[
                "worker"] == "test-worker"
        finally:
            run.close()
        assert not deep.exists()  # stop() removes the pointer file

    def test_resolve_endpoint_rejects_nonsense(self, tmp_path):
        with pytest.raises(InspectorError, match="no inspector"):
            resolve_endpoint(str(tmp_path / "missing.sock"))
        bogus = tmp_path / "bogus.txt"
        bogus.write_text("hello world\n")
        with pytest.raises(InspectorError, match="not an inspector"):
            resolve_endpoint(str(bogus))


# ---------------------------------------------------------------------------
# checkpoint-now: resumable mid-run snapshots
# ---------------------------------------------------------------------------
class TestCheckpointNow:
    def test_mid_run_checkpoint_resumes_to_full_count(self, graph, tmp_path):
        full = CSCE(graph).match(square(), "edge_induced").count
        assert full > 4
        run = LiveRun(graph, tmp_path, checkpoint=True)
        try:
            # checkpoint-now blocks until the executor's next tick, so the
            # request must come from a side thread while this thread keeps
            # driving the stream.
            box = {}

            def take():
                box["info"] = inspect_call(
                    run.server.endpoint, "checkpoint-now"
                )

            thread = None
            for i, _ in enumerate(run.stream):
                if i == 2:
                    thread = threading.Thread(target=take, daemon=True)
                    thread.start()
                if thread is not None:
                    if not thread.is_alive():
                        break
                    time.sleep(0.001)  # let the request land mid-run
            assert thread is not None
            thread.join(timeout=30)
            taken = box.get("info")
            assert taken is not None
            assert taken["written"] is True
            assert taken["on_demand"] == 1
            assert taken["path"] == str(run.checkpoint_path)
            doc = load_checkpoint(run.checkpoint_path)
            assert doc["progress"]["emitted"] == taken["emitted"]
            # Abandon the live run; resume from the on-demand snapshot.
            run.stream.close()
            _, resumed = _drain(CSCE(graph).resume(run.checkpoint_path))
            assert resumed.stop_reason is None
            assert resumed.count == full
        finally:
            run.close()

    def test_caller_path_and_default_path(self, live, tmp_path):
        live.drain()
        target = tmp_path / "explicit.json"
        info = inspect_call(
            live.server.endpoint, "checkpoint-now", {"path": str(target)}
        )
        assert info["written"] is True and target.exists()
        # No stream sink on this run, so no-path requests fall back to
        # the inspector's default checkpoint path.
        info = inspect_call(live.server.endpoint, "checkpoint-now")
        assert info["path"].endswith("default-ck.json")
        assert os.path.exists(info["path"])
        status = inspect_call(live.server.endpoint, "status")
        assert status["checkpoint"]["on_demand"] >= 1

    def test_no_target_is_a_clean_error(self, graph, tmp_path):
        run = LiveRun(graph, tmp_path)
        run.inspector.checkpoint_factory = None
        run.inspector.default_checkpoint_path = None
        try:
            run.drain()
            with pytest.raises(InspectorError, match="no checkpoint"):
                inspect_call(run.server.endpoint, "checkpoint-now")
        finally:
            run.close()

    def test_sigusr2_queues_a_checkpoint(self, live):
        if not hasattr(signal, "SIGUSR2"):
            pytest.skip("no SIGUSR2 on this platform")
        from repro.cli import _install_sigusr2

        installed = _install_sigusr2(live.inspector)
        assert installed is not None
        try:
            os.kill(os.getpid(), signal.SIGUSR2)
            # The handler only queues; the next tick (here: the drain's
            # dense ticking) services the request.
            live.drain()
        finally:
            signal.signal(*installed)
        checkpoint = live.inspector.last_checkpoint
        assert checkpoint is not None and checkpoint["written"]
        assert checkpoint["path"].endswith("default-ck.json")

    def test_on_demand_checkpoint_block_passes_robustness(self, live):
        _, result = live.drain()
        inspect_call(live.server.endpoint, "checkpoint-now")
        report = build_run_report(
            result, engine="CSCE", obs=live.obs,
            checkpoint={"path": "x.json", "written": True, "on_demand": 1},
        )
        assert robustness_problems(report) == []
        # Without the on_demand marker the old contract still holds:
        # a written checkpoint on an unstopped run is a problem.
        report = build_run_report(
            result, engine="CSCE", obs=live.obs,
            checkpoint={"path": "x.json", "written": True},
        )
        problems = robustness_problems(report)
        assert any("stop_reason" in p for p in problems)


def _drain(stream):
    embeddings = list(stream)
    return embeddings, stream.result()


# ---------------------------------------------------------------------------
# Heartbeat hardening (satellite: a bad listener cannot kill the match)
# ---------------------------------------------------------------------------
class TestHeartbeatHardening:
    def test_raising_listener_is_detached_not_fatal(self):
        heartbeat = Heartbeat(interval=0.0, emit=lambda line: None)
        calls = []

        def bad(snapshot):
            raise RuntimeError("broken observer")

        heartbeat.add_listener(bad)
        heartbeat.add_listener(lambda snapshot: calls.append(1))
        # no exception escapes
        assert heartbeat.beat(
            lambda: RunSnapshot(emitted=0, nodes=1, stats={})
        ) is True
        assert calls == [1]
        assert bad not in heartbeat.listeners
        heartbeat.beat(lambda: RunSnapshot(emitted=0, nodes=2, stats={}))
        assert calls == [1, 1]

    def test_inspector_survives_a_poisoned_sibling_listener(
        self, graph, tmp_path
    ):
        run = LiveRun(graph, tmp_path)
        try:
            run.obs.heartbeat.listeners.insert(
                0,
                lambda snapshot: (_ for _ in ()).throw(
                    RuntimeError("sibling")
                ),
            )
            _, result = run.drain()
            assert result.stop_reason is None
            status = inspect_call(run.server.endpoint, "status")
            assert status["emitted"] == result.count
        finally:
            run.close()


# ---------------------------------------------------------------------------
# render_top
# ---------------------------------------------------------------------------
def test_render_top_composes_the_live_view():
    text = render_top(
        {
            "worker": "w0", "state": "running", "pid": 42, "clients": 2,
            "emitted": 1000, "nodes": 5000, "beats": 7,
            "elapsed_seconds": 3.25,
            "degradation": ["evict_memo", "disable_memo"],
            "budget": {"time_limit": 60.0, "max_embeddings": None,
                       "memory_limit_mb": 512.0},
            "checkpoint": {"path": "ck.json", "emitted": 900},
            "hot_clusters": [{"key": "(1, 0)", "rows": 10, "bytes": 80}],
            "stop_reason": None,
        },
        {"percent": 25.0, "eta_seconds": 9.75,
         "depth_histogram": {"2": 3, "10": 1}},
    )
    assert "w0 [running]" in text and "clients 2" in text
    assert " 25.00%" in text and "ETA 10s" in text
    bar_line = text.splitlines()[1]
    assert bar_line.count("#") == 12  # 25% of width 50
    assert "embeddings 1000" in text and "beats 7" in text
    assert "depth frontier: 2:3 10:1" in text
    assert "evict_memo > disable_memo" in text
    assert "time 60s" in text and "memory 512 MiB" in text
    assert "ck.json" in text and "(1, 0)" in text


def test_render_top_handles_empty_and_finished():
    text = render_top({"state": "finished", "stop_reason": "cancelled"})
    assert "[finished]" in text
    assert "stopped     : cancelled" in text
    assert "ETA --" in text
    assert "degradation : none" in text


# ---------------------------------------------------------------------------
# CLI surface: csce match --inspect / csce inspect / csce top
# ---------------------------------------------------------------------------
class TestCli:
    def _write_graphs(self, graph, tmp_path):
        from repro.graph.io import format_graph_text

        data = tmp_path / "data.graph"
        pat = tmp_path / "pattern.graph"
        data.write_text(format_graph_text(graph))
        pat.write_text(format_graph_text(square()))
        return data, pat

    def test_inspect_requires_csce(self, graph, tmp_path, capsys):
        from repro.cli import main

        data, pat = self._write_graphs(graph, tmp_path)
        code = main([
            "match", "--data", str(data), "--pattern", str(pat),
            "--engine", "VF3", "--inspect", str(tmp_path / "s.sock"),
        ])
        assert code == 2
        assert "--inspect require" in capsys.readouterr().err

    def test_match_inspect_cancel_end_to_end(self, tmp_path, capsys):
        """The CI smoke, in-process: serve, query, cancel, clean exit."""
        from repro.cli import main

        sock = tmp_path / "cli.sock"
        report = tmp_path / "report.json"
        rc = {}

        def run_match():
            # dip dense-8 homomorphic enumerates ~1e10 embeddings: the
            # run cannot end on its own before cancel lands.
            rc["code"] = main([
                "match", "--dataset", "dip", "--scale", "1.0",
                "--pattern-size", "8", "--pattern-style", "dense",
                "--variant", "homomorphic", "--time-limit", "300",
                "--inspect", str(sock), "--report", str(report),
            ])

        thread = threading.Thread(target=run_match, daemon=True)
        thread.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not sock.exists():
            time.sleep(0.1)
        assert sock.exists(), "inspector socket never appeared"
        status = None
        while time.monotonic() < deadline:
            try:
                status = inspect_call(str(sock), "status")
                if status["beats"] > 0 and status["emitted"] > 0:
                    break
            except InspectorError:
                pass
            time.sleep(0.1)
        assert status is not None and status["state"] == "running"
        assert status["beats"] > 0 and status["emitted"] > 0
        assert main(["inspect", str(sock), "progress", "--json"]) == 0
        assert main(["top", str(sock), "--once"]) == 0
        out = capsys.readouterr().out
        assert "csce top" in out and "depth frontier" in out
        assert main([
            "inspect", str(sock), "cancel", "--reason", "cli-test",
        ]) == 0
        thread.join(timeout=120)
        assert not thread.is_alive(), "match did not stop after cancel"
        assert rc["code"] == 0
        doc = json.loads(report.read_text())
        assert doc["stop_reason"] == "cancelled"
        capsys.readouterr()

    def test_inspect_client_error_paths(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["inspect", str(tmp_path / "gone.sock"), "status"])
        assert code == 1
        assert "no inspector" in capsys.readouterr().err
        code = main(["top", str(tmp_path / "gone.sock"), "--once"])
        assert code == 1
        assert "no inspector" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Hypothesis: the WorkerSnapshot wire encoding is lossless
# ---------------------------------------------------------------------------
_names = st.text(
    st.characters(min_codepoint=32, max_codepoint=0x10FFFF,
                  blacklist_categories=("Cs",)),
    min_size=1, max_size=20,
)
_numbers = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_tables = st.dictionaries(_names, _numbers, max_size=8)
_contexts = st.one_of(
    st.none(),
    st.builds(
        SpanContext,
        trace_id=_names,
        span_id=_names,
        parent_id=st.one_of(st.none(), _names),
    ),
)
_snapshots = st.builds(
    WorkerSnapshot,
    worker=_names,
    counters=_tables,
    stats=_tables,
    context=_contexts,
    workers=st.lists(_names, min_size=0, max_size=4).map(tuple),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_snapshots)
def test_worker_snapshot_wire_encoding_is_lossless(snapshot):
    over_the_wire = decode_frame(
        encode_frame(ok_frame("stats", encode_snapshot(snapshot)))
    )
    assert decode_snapshot(decode_response(over_the_wire)) == snapshot
