"""Live introspection and control plane for running matches.

Every earlier observability surface is post-hoc: run-reports, metrics
files, and recorder dumps materialize when the run ends (or on a blind
SIGUSR1). This module is the inverse — attach to a *live* match, read its
progress/stats/recorder, and steer it — the coordinator↔worker reporting
channel the ROADMAP's multi-process fan-out needs.

Three pieces:

* :class:`MatchInspector` — attaches to a run's
  :class:`~repro.obs.Observation` (+ optionally its
  :class:`~repro.engine.governor.ResourceGovernor`) and **samples the run
  on the existing heartbeat tick**: each heartbeat line hands it the
  run's :class:`~repro.obs.progress.RunSnapshot` (a pool's adds
  per-worker rows and supervision health), from which it publishes one
  fresh, immutable sample (status, progress, stats, counters, recorder
  dump, hot clusters) under a lock. Socket threads only ever read the
  latest published sample — they never touch the mutating frame stack —
  so attaching N clients costs the hot loop nothing beyond the tick.
  Mutating commands are **cooperative**: no
  thread kills, ever. ``cancel`` trips the
  :class:`~repro.engine.governor.CancelToken` the executor already polls;
  ``budget`` calls :meth:`~repro.engine.governor.ResourceGovernor.tighten`
  (checked at the next tick); ``checkpoint-now`` enqueues a request that
  the *executor thread* services at its next tick — the only point where
  the frame stack is consistent — through the ordinary
  :class:`~repro.engine.checkpoint.CheckpointSink` path.
* :class:`InspectorServer` — a daemon accept-thread serving the
  newline-delimited-JSON protocol of :mod:`repro.obs.wire` on a
  unix-domain socket. Where ``AF_UNIX`` is unavailable (or the path does
  not bind), it falls back to a TCP loopback socket and writes
  ``host:port`` into the requested path, so clients resolve either form
  from the same address string.
* :class:`InspectorClient` / :func:`inspect_call` — the client side
  (``csce inspect`` / ``csce top``), plus :func:`render_top`, the pure
  renderer behind the refreshing ``top`` view.

A malformed frame gets an error response, an abruptly closed connection
gets cleaned up silently, and a handler bug is caught and reported as an
error frame: nothing a client does can take the match down.
"""

from __future__ import annotations

import logging
import os
import socket
import stat
import threading
import time
from dataclasses import replace
from typing import Any, Callable, Mapping

from repro.errors import InspectorError, WireError
from repro.obs.catalog import KNOWN_COMMANDS, ladder_stage
from repro.obs.counters import unified_stats
from repro.obs.merge import WorkerSnapshot
from repro.obs.progress import ProgressEstimator, RunSnapshot
from repro.obs.wire import (
    MAX_FRAME_BYTES,
    decode_frame,
    decode_response,
    encode_frame,
    encode_snapshot,
    error_frame,
    ok_frame,
    request_frame,
    validate_request,
)

logger = logging.getLogger(__name__)

#: Heartbeat cadence `csce match --inspect` defaults to when no
#: ``--heartbeat`` is given: fast enough for a live `top` view, amortized
#: over thousands of frame steps.
DEFAULT_INSPECT_INTERVAL = 0.5

#: Hot clusters published per sample (the `top` view shows this many).
_HOT_CLUSTERS = 5


def _parse_tcp(address: str) -> tuple[str, int] | None:
    """``host:port`` → ``(host, port)``; ``None`` for filesystem paths."""
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit() and host and "/" not in host \
            and "\\" not in host:
        return host, int(port)
    return None


class _CheckpointRequest:
    """One pending checkpoint-now, serviced on the executor thread."""

    __slots__ = ("path", "event", "result", "error")

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.event = threading.Event()
        self.result: dict | None = None
        self.error: str | None = None


class MatchInspector:
    """The control-plane core: samples one live run, serves commands.

    ``obs`` is the run's observation (a live heartbeat is required — its
    snapshots are the only view of the run); ``governor`` enables
    ``cancel``/``budget``. ``stream`` (the
    :class:`~repro.engine.executor.EmbeddingStream` being consumed
    elsewhere) is used only by ``checkpoint-now``; ``None`` for a pool run.
    ``checkpoint_factory`` (``path -> CheckpointSink``) enables
    ``checkpoint-now`` with a caller-supplied path, and
    ``default_checkpoint_path`` is used when a request names no path and
    the stream carries no sink of its own.
    """

    #: Command-name → handler-method registry. Keys are pinned against
    #: :data:`~repro.obs.catalog.KNOWN_COMMANDS` by the ``catalog``
    #: reprolint pass and a test; drift fails lint, not a live attach.
    HANDLERS: dict[str, str] = {
        "status": "_cmd_status",
        "progress": "_cmd_progress",
        "stats": "_cmd_stats",
        "counters": "_cmd_stats",
        "recorder": "_cmd_recorder",
        "health": "_cmd_health",
        "checkpoint-now": "_cmd_checkpoint_now",
        "budget": "_cmd_budget",
        "cancel": "_cmd_cancel",
    }

    def __init__(
        self,
        stream: Any,
        obs: Any,
        governor: Any = None,
        worker: str | None = None,
        checkpoint_factory: Callable[[str], Any] | None = None,
        default_checkpoint_path: str | None = None,
    ) -> None:
        self.stream = stream
        self.obs = obs
        self.governor = governor
        self.worker = worker or f"pid-{os.getpid()}"
        self.checkpoint_factory = checkpoint_factory
        self.default_checkpoint_path = default_checkpoint_path
        self._lock = threading.Lock()
        #: The last published snapshot; zero until the first heartbeat.
        self._snapshot = RunSnapshot(
            0, 0, unified_stats(), progress=ProgressEstimator().as_dict()
        )
        self._sample: dict | None = None
        self._pending: list[_CheckpointRequest] = []
        self._finished = False
        self._clients = 0
        self._started = time.monotonic()
        self.last_checkpoint: dict | None = None
        self.on_demand_sink = None

    # -- lifecycle -----------------------------------------------------
    def attach(self) -> "MatchInspector":
        """Register on the heartbeat and publish a zero first sample."""
        heartbeat = self.obs.heartbeat
        if not heartbeat.enabled:
            raise InspectorError(
                "the inspector samples on heartbeat ticks; attach an"
                " Observation with heartbeat_interval set"
            )
        heartbeat.add_listener(self.publish)
        self.publish(self._snapshot)
        return self

    def finish(self, result: Any) -> None:
        """Publish the final sample once the run has ended, built from its
        :class:`~repro.engine.results.MatchResult` — so the final
        ``counters`` equal the run-report's by construction. A pool's
        per-worker rows and health carry over from its last snapshot.
        Late clients read this quiescent state."""
        with self._lock:
            self._finished = True
            last = self._snapshot
        self.publish(
            replace(
                last,
                emitted=result.count,
                nodes=int(result.stats.get("nodes", 0)),
                stats=dict(result.stats),
                stop_reason=result.stop_reason,
                degradation=tuple(result.degradation),
                progress=result.progress,
            )
        )

    # -- publication (run thread / quiescent points only) --------------
    def publish(self, snapshot: RunSnapshot) -> None:
        """Service pending control requests, then publish a fresh sample
        built from ``snapshot``.

        Runs on the run's thread as a heartbeat listener (for a stream,
        the one point where the frame stack is consistent mid-run), and
        from :meth:`attach`/:meth:`finish` while the run is quiescent.
        """
        with self._lock:
            pending, self._pending = self._pending, []
        for request in pending:
            self._service_checkpoint(request)
        sample = self._build_sample(snapshot)
        with self._lock:
            self._snapshot = snapshot
            self._sample = sample

    def _build_sample(self, snapshot: RunSnapshot) -> dict:
        obs = self.obs
        heartbeat = obs.heartbeat
        with self._lock:
            finished = self._finished
            clients = self._clients
        degradation = list(snapshot.degradation)
        status: dict = {
            "state": "finished" if finished else "running",
            "worker": self.worker,
            "pid": os.getpid(),
            "emitted": snapshot.emitted,
            "nodes": snapshot.nodes,
            "elapsed_seconds": round(time.monotonic() - self._started, 3),
            "stop_reason": snapshot.stop_reason,
            "degradation": degradation,
            "gov_stage": ladder_stage(degradation),
            "beats": heartbeat.beats,
            "clients": clients,
        }
        governor = self.governor
        if governor is not None:
            budget = governor.budget
            status["budget"] = {
                "time_limit": budget.time_limit,
                "max_embeddings": budget.max_embeddings,
                "memory_limit_mb": budget.memory_limit_mb,
            }
        if self.last_checkpoint is not None:
            status["checkpoint"] = dict(self.last_checkpoint)
        if snapshot.workers is not None:
            # Pool runs carry live per-worker rows; `csce top` renders
            # them as a worker table.
            status["workers"] = [dict(row) for row in snapshot.workers]
        if snapshot.health is not None:
            # Supervision state (stall watchdog, quarantine, respawn
            # budget) rides the same sample; `health` reads it back out.
            status["health"] = dict(snapshot.health)
        progress: dict | None = None
        if snapshot.progress is not None:
            progress = dict(snapshot.progress)
            progress["depth_histogram"] = {
                str(depth): count
                for depth, count in sorted(heartbeat.depth_histogram.items())
            }
        stats = dict(snapshot.stats)
        # Mirror build_run_report's counter block exactly (stats, then
        # registry totals winning, then the heartbeat total), so a live
        # `counters` read at finish equals the final run-report's.
        counters = dict(stats)
        registry = obs.counters
        if registry.enabled:
            counters = {**counters, **registry.snapshot()}
        counters["heartbeats"] = heartbeat.beats
        profiler = obs.profile
        hot = profiler.hot_clusters(_HOT_CLUSTERS) if profiler.enabled else []
        status["hot_clusters"] = hot
        return {
            "status": status,
            "progress": progress,
            "snapshot": encode_snapshot(
                WorkerSnapshot(
                    worker=self.worker, counters=counters, stats=stats
                )
            ),
            "recorder": obs.recorder.as_dict(),
        }

    def _latest(self) -> dict:
        with self._lock:
            sample = self._sample
        if sample is None:
            raise InspectorError(
                "no sample published yet (inspector not attached?)"
            )
        return sample

    # -- client accounting (called from server threads) ----------------
    def client_connected(self) -> None:
        with self._lock:
            self._clients += 1

    def client_disconnected(self) -> None:
        with self._lock:
            self._clients = max(0, self._clients - 1)

    # -- command dispatch (called from server threads) -----------------
    def handle(self, cmd: str, args: Mapping[str, Any] | None = None) -> Any:
        """Serve one command; returns the response data payload."""
        method = self.HANDLERS.get(cmd)
        if method is None:
            raise InspectorError(
                f"unknown command {cmd!r}; known commands:"
                f" {', '.join(KNOWN_COMMANDS)}"
            )
        return getattr(self, method)(dict(args or {}))

    def _cmd_status(self, args: dict) -> dict:
        return self._latest()["status"]

    def _cmd_progress(self, args: dict) -> dict:
        progress = self._latest()["progress"]
        if progress is None:
            raise InspectorError(
                "no progress estimator attached (observation disabled?)"
            )
        return progress

    def _cmd_stats(self, args: dict) -> dict:
        return self._latest()["snapshot"]

    def _cmd_recorder(self, args: dict) -> dict:
        dump = dict(self._latest()["recorder"])
        limit = args.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except (TypeError, ValueError):
                raise InspectorError(
                    f"recorder limit must be an integer, got {limit!r}"
                ) from None
            events = dump.get("events", [])
            dump["events"] = events[-limit:] if limit > 0 else []
        return dump

    def _cmd_health(self, args: dict) -> dict:
        status = self._latest()["status"]
        health = status.get("health")
        if health is None:
            # Single-process streams have no pool supervisor; answer with
            # a typed "unsupervised" payload rather than an error so that
            # `csce inspect ADDR health` is safe to script against both.
            return {
                "supervised": False,
                "reason": "no pool attached; supervision health is"
                          " published by --workers runs",
                "workers": [],
            }
        payload = {"supervised": True, **health}
        payload["workers"] = [
            {
                "worker": row.get("worker"),
                "state": row.get("state"),
                "unit": row.get("unit"),
                "beat_age": row.get("beat_age"),
            }
            for row in status.get("workers") or []
        ]
        return payload

    def _cmd_checkpoint_now(self, args: dict) -> dict:
        path = args.get("path")
        try:
            timeout = float(args.get("timeout", 30.0))
        except (TypeError, ValueError):
            raise InspectorError(
                f"timeout must be a number, got {args.get('timeout')!r}"
            ) from None
        request = self.request_checkpoint(
            path=str(path) if path is not None else None,
            wait=True,
            timeout=timeout,
        )
        if request.error is not None:
            raise InspectorError(request.error)
        assert request.result is not None
        return request.result

    def _cmd_budget(self, args: dict) -> dict:
        governor = self.governor
        if governor is None:
            raise InspectorError(
                "no governor attached; budget control unavailable"
            )
        tightened: dict = {}
        for key, caster in (
            ("time_limit", float),
            ("max_embeddings", int),
            ("memory_limit_mb", float),
        ):
            value = args.get(key)
            if value is None:
                continue
            try:
                value = caster(value)
            except (TypeError, ValueError):
                raise InspectorError(
                    f"{key} must be a number, got {value!r}"
                ) from None
            if value <= 0:
                raise InspectorError(f"{key} must be positive, got {value}")
            tightened[key] = value
        if not tightened:
            raise InspectorError(
                "budget needs at least one of time_limit=,"
                " max_embeddings=, memory_limit_mb="
            )
        budget = governor.tighten(**tightened)
        return {
            "tightened": tightened,
            "time_limit": budget.time_limit,
            "max_embeddings": budget.max_embeddings,
            "memory_limit_mb": budget.memory_limit_mb,
        }

    def _cmd_cancel(self, args: dict) -> dict:
        governor = self.governor
        if governor is None:
            raise InspectorError(
                "no governor attached; cancel unavailable"
            )
        reason = str(args.get("reason") or "inspector-cancel")
        governor.cancel.trip(reason)
        return {"cancelled": True, "reason": reason}

    # -- checkpoint-now plumbing ---------------------------------------
    def request_checkpoint(
        self,
        path: str | None = None,
        wait: bool = True,
        timeout: float = 30.0,
    ) -> _CheckpointRequest:
        """Ask the executor thread to checkpoint at its next tick.

        Safe from any thread (and, with ``wait=False``, from a signal
        handler: one list append). With ``wait=True`` blocks until the
        tick services the request or ``timeout`` passes. Once the run has
        finished, the request is serviced inline — the stream is
        quiescent, so the snapshot is consistent without a tick. Without
        a stream (a pool run) it fails at once.
        """
        request = _CheckpointRequest(path)
        with self._lock:
            finished = self._finished
            inline = finished or self.stream is None
            if not inline:
                self._pending.append(request)
        if inline:
            self._service_checkpoint(request)
            if finished:
                # Refresh the stored sample (the run is quiescent).
                self.publish(self._snapshot)
        elif wait and not request.event.wait(timeout):
            raise InspectorError(
                f"checkpoint-now timed out after {timeout:g}s waiting for"
                " a heartbeat tick (is the stream being consumed?)"
            )
        return request

    def _service_checkpoint(self, request: _CheckpointRequest) -> None:
        """Write one on-demand checkpoint. Executor thread (or quiescent).

        Never lets an exception escape: this runs inside the heartbeat
        listener, and a raising listener gets detached — which would
        silently kill the whole inspector.
        """
        try:
            sink = None
            if self.stream is None:
                request.error = (
                    "checkpoint-now needs a stream; a pool run writes"
                    " shard checkpoints when it stops (--checkpoint DIR)"
                )
                return
            if request.path is not None:
                if self.checkpoint_factory is None:
                    request.error = (
                        "no checkpoint factory attached; cannot write to"
                        " a caller-supplied path"
                    )
                    return
                sink = self.checkpoint_factory(request.path)
            else:
                sink = self.stream.checkpoint_sink
                if sink is None and self.checkpoint_factory is not None \
                        and self.default_checkpoint_path:
                    sink = self.checkpoint_factory(
                        self.default_checkpoint_path
                    )
            if sink is None:
                request.error = (
                    "no checkpoint target: pass path=... or run"
                    " csce match with --checkpoint PATH"
                )
                return
            sink.write_on_demand(self.stream)
            self.on_demand_sink = sink
            emitted = self.stream.count
            info = {
                "path": str(sink.path),
                "written": True,
                "emitted": emitted,
                "on_demand": sink.on_demand,
            }
            self.last_checkpoint = info
            recorder = self.obs.recorder
            if recorder.enabled:
                recorder.record(
                    "checkpoint", path=str(sink.path), emitted=emitted,
                    on_demand=True,
                )
            request.result = info
        except Exception as exc:
            logger.exception("on-demand checkpoint failed")
            request.error = f"checkpoint failed: {exc}"
        finally:
            request.event.set()


class InspectorServer:
    """Serves one :class:`MatchInspector` over the wire protocol.

    ``start()`` binds ``address`` (a unix-socket path, or ``host:port``
    for explicit TCP) and spawns a daemon accept thread; each connection
    gets its own daemon handler thread reading one request frame per line.
    ``stop()`` closes the listener and every open connection and removes
    the socket/pointer file. All threads are daemons and every mutating
    action is cooperative, so a forgotten server can never wedge process
    exit or the match itself.
    """

    def __init__(self, inspector: MatchInspector, address: str) -> None:
        self.inspector = inspector
        self.address = str(address)
        self.endpoint: str | None = None
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._unix_path: str | None = None
        self._pointer_path: str | None = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "InspectorServer":
        tcp = _parse_tcp(self.address)
        sock: socket.socket | None = None
        if tcp is None and hasattr(socket, "AF_UNIX"):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                if os.path.exists(self.address):
                    os.unlink(self.address)  # stale socket/pointer file
                sock.bind(self.address)
            except OSError as exc:
                # Path too long for AF_UNIX, or unbindable: fall back to
                # TCP loopback with a pointer file at the same path.
                logger.debug(
                    "AF_UNIX bind failed for %s (%s); TCP fallback",
                    self.address, exc,
                )
                sock.close()
                sock = None
            else:
                self._unix_path = self.address
                self.endpoint = self.address
        if sock is None:
            host, port = tcp if tcp is not None else ("127.0.0.1", 0)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind((host, port))
            except OSError as exc:
                sock.close()
                raise InspectorError(
                    f"cannot bind inspector to {self.address}: {exc}"
                ) from exc
            host, port = sock.getsockname()[:2]
            self.endpoint = f"{host}:{port}"
            if tcp is None:
                # The address was a filesystem path: leave a pointer file
                # there so clients resolve the fallback transparently.
                with open(self.address, "w", encoding="utf-8") as handle:
                    handle.write(self.endpoint + "\n")
                self._pointer_path = self.address
        sock.listen(8)
        sock.settimeout(0.2)  # so the accept loop notices stop()
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="csce-inspector", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for path in (self._unix_path, self._pointer_path):
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
        thread = self._accept_thread
        if thread is not None:
            thread.join(timeout=2.0)

    def __enter__(self) -> "InspectorServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the serving threads -------------------------------------------
    def _accept_loop(self) -> None:
        sock = self._sock
        assert sock is not None
        while not self._stop.is_set():
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by stop()
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="csce-inspector-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        inspector = self.inspector
        inspector.client_connected()
        try:
            reader = conn.makefile("rb")
            while not self._stop.is_set():
                line = reader.readline(MAX_FRAME_BYTES)
                if not line:
                    break  # client went away
                cmd: str | None = None
                try:
                    frame = decode_frame(line)
                    cmd, args = validate_request(frame)
                    response = ok_frame(cmd, inspector.handle(cmd, args))
                except (WireError, InspectorError) as exc:
                    response = error_frame(str(exc), cmd=cmd)
                except Exception as exc:
                    # A handler bug must cost one error frame, never the
                    # connection — and never the match.
                    logger.exception("inspector command failed")
                    response = error_frame(
                        f"internal error: {exc}", cmd=cmd
                    )
                try:
                    conn.sendall(encode_frame(response))
                except WireError as exc:
                    conn.sendall(encode_frame(error_frame(str(exc), cmd=cmd)))
        except (OSError, ValueError):
            pass  # abrupt disconnect mid-read/-write
        finally:
            inspector.client_disconnected()
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------
def resolve_endpoint(address: str) -> tuple[str, Any]:
    """Resolve an inspector address to ``("unix", path)`` or
    ``("tcp", (host, port))``; understands pointer files left by the
    TCP fallback."""
    tcp = _parse_tcp(address)
    if tcp is not None:
        return ("tcp", tcp)
    try:
        mode = os.stat(address).st_mode
    except OSError as exc:
        raise InspectorError(
            f"no inspector at {address}: {exc}"
        ) from exc
    if stat.S_ISSOCK(mode) and hasattr(socket, "AF_UNIX"):
        return ("unix", address)
    if stat.S_ISREG(mode):
        try:
            with open(address, encoding="utf-8") as handle:
                first = handle.readline().strip()
        except OSError as exc:
            raise InspectorError(
                f"cannot read inspector pointer file {address}: {exc}"
            ) from exc
        tcp = _parse_tcp(first)
        if tcp is not None:
            return ("tcp", tcp)
        raise InspectorError(
            f"{address} is not an inspector endpoint (expected a unix"
            f" socket or a host:port pointer file, found {first!r})"
        )
    raise InspectorError(f"{address} is not an inspector endpoint")


class InspectorClient:
    """A persistent connection to a running inspector (``csce top``)."""

    def __init__(self, address: str, timeout: float = 10.0) -> None:
        kind, target = resolve_endpoint(address)
        try:
            if kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(target)
            else:
                sock = socket.create_connection(target, timeout=timeout)
        except OSError as exc:
            raise InspectorError(
                f"cannot connect to inspector at {address}: {exc}"
            ) from exc
        self.address = address
        self._sock = sock
        self._reader = sock.makefile("rb")

    def request(self, cmd: str, args: Mapping[str, Any] | None = None) -> Any:
        """One request/response round trip; returns the data payload."""
        frame = request_frame(cmd, args)
        try:
            self._sock.sendall(encode_frame(frame))
            line = self._reader.readline(MAX_FRAME_BYTES)
        except OSError as exc:
            raise InspectorError(
                f"inspector connection lost: {exc}"
            ) from exc
        if not line:
            raise InspectorError(
                "inspector closed the connection (run ended?)"
            )
        return decode_response(decode_frame(line))

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "InspectorClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def inspect_call(
    address: str,
    cmd: str,
    args: Mapping[str, Any] | None = None,
    timeout: float = 10.0,
) -> Any:
    """One-shot convenience: connect, request, close (``csce inspect``)."""
    with InspectorClient(address, timeout=timeout) as client:
        return client.request(cmd, args)


# ---------------------------------------------------------------------------
# The `top` renderer (pure: dicts in, text out)
# ---------------------------------------------------------------------------
def render_top(
    status: Mapping[str, Any],
    progress: Mapping[str, Any] | None = None,
    width: int = 50,
) -> str:
    """Render one refresh of the live `top` view from a ``status`` (and
    optionally ``progress``) response."""
    lines = [
        f"csce top — {status.get('worker', '?')}"
        f" [{status.get('state', '?')}]"
        f"  pid {status.get('pid', '?')}"
        f"  clients {status.get('clients', 0)}"
    ]
    percent = 0.0
    eta_text = "ETA --"
    if progress:
        raw = progress.get("percent", 0.0)
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            percent = max(0.0, min(100.0, float(raw)))
        eta = progress.get("eta_seconds")
        if isinstance(eta, (int, float)) and not isinstance(eta, bool):
            eta_text = f"ETA {float(eta):.0f}s"
    filled = int(width * percent / 100.0)
    bar = "#" * filled + "-" * (width - filled)
    lines.append(f"[{bar}] {percent:6.2f}%  {eta_text}")
    lines.append(
        f"embeddings {status.get('emitted', 0)}"
        f"   nodes {status.get('nodes', 0)}"
        f"   beats {status.get('beats', 0)}"
        f"   elapsed {float(status.get('elapsed_seconds', 0.0) or 0.0):.1f}s"
    )
    histogram = (progress or {}).get("depth_histogram") or {}
    if histogram:
        items = sorted(histogram.items(), key=lambda kv: int(kv[0]))
        lines.append(
            "depth frontier: "
            + " ".join(f"{depth}:{count}" for depth, count in items)
        )
    ladder = status.get("degradation") or []
    lines.append(
        "degradation : " + (" > ".join(ladder) if ladder else "none")
    )
    budget = status.get("budget")
    if budget:
        def _fmt(value: Any, suffix: str = "") -> str:
            return "-" if value is None else f"{value:g}{suffix}"

        lines.append(
            f"budget      : time {_fmt(budget.get('time_limit'), 's')}"
            f"  embeddings {_fmt(budget.get('max_embeddings'))}"
            f"  memory {_fmt(budget.get('memory_limit_mb'), ' MiB')}"
        )
    checkpoint = status.get("checkpoint")
    if checkpoint:
        lines.append(
            f"checkpoint  : {checkpoint.get('path')}"
            f" (at {checkpoint.get('emitted')} embeddings)"
        )
    stop = status.get("stop_reason")
    if stop:
        lines.append(f"stopped     : {stop}")
    health = status.get("health")
    if health:
        timeout = health.get("stall_timeout")
        lines.append(
            "supervision : watchdog "
            + ("off" if timeout is None else f"{timeout:g}s")
            + f"  stall-kills {health.get('stall_kills', 0)}"
            + f"  quarantined {health.get('quarantined_units', 0)}"
            + f"  respawns-left {health.get('respawns_left', 0)}"
        )
    workers = status.get("workers") or []
    if workers:
        lines.append(
            f"{'worker':<8}{'pid':>8}{'state':>9}{'unit':>6}"
            f"{'units':>7}{'emitted':>12}{'nodes':>12}{'beat':>8}"
        )
        for row in workers:
            unit = row.get("unit")
            age = row.get("beat_age")
            lines.append(
                f"{str(row.get('worker', '?')):<8}"
                f"{str(row.get('pid', '?')):>8}"
                f"{str(row.get('state', '?')):>9}"
                f"{'-' if unit is None else unit:>6}"
                f"{row.get('units', 0):>7}"
                f"{row.get('emitted', 0):>12}"
                f"{row.get('nodes', 0):>12}"
                f"{'-' if age is None else f'{age:.1f}s':>8}"
            )
    hot = status.get("hot_clusters") or []
    if hot:
        lines.append("hot clusters:")
        for entry in hot:
            lines.append(
                f"  {str(entry.get('key', '?')):<32}"
                f" {entry.get('rows', 0):>10} rows"
                f" {entry.get('bytes', 0):>10} bytes"
            )
    return "\n".join(lines)
