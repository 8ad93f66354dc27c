"""The inspector wire protocol: newline-delimited JSON frames.

One request per line, one response per line, over whatever byte stream
the transport provides (a unix-domain socket, a TCP loopback socket — see
:mod:`repro.obs.inspect`). Frames are small JSON objects stamped with
``format`` = :data:`WIRE_FORMAT` and ``version`` = :data:`WIRE_VERSION`::

    -> {"format": "repro-inspect", "version": 1,
        "cmd": "progress", "args": {}}
    <- {"format": "repro-inspect", "version": 1, "ok": true,
        "cmd": "progress", "data": {"percent": 42.13, ...}}
    <- {"format": "repro-inspect", "version": 1, "ok": false,
        "cmd": "budget", "error": "no governor attached ..."}

Command names are a **closed vocabulary**
(:data:`~repro.obs.catalog.KNOWN_COMMANDS`), declared with the stats keys
and recorder events in :mod:`repro.obs.catalog`: the ``catalog``
reprolint pass gates every command-name literal in the codebase against
it, so a typo'd command fails lint instead of failing at attach time.

The ``stats`` / ``counters`` commands carry a
:class:`~repro.obs.merge.WorkerSnapshot` — the merge-ready payload PR 6
introduced — wrapped by :func:`encode_snapshot` / :func:`decode_snapshot`
with its own format/version stamp. The encoding is **lossless** (a
Hypothesis property pins ``decode(encode(s)) == s``), so a coordinator
can aggregate N live worker sockets with
:func:`~repro.obs.merge.merge_counters` /
:func:`~repro.obs.merge.merge_worker_snapshots` unchanged.

Pure data plumbing: no sockets, no threads, no engine imports — the
transport lives in :mod:`repro.obs.inspect`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.errors import WireError
from repro.obs.catalog import KNOWN_COMMANDS
from repro.obs.merge import WorkerSnapshot

WIRE_FORMAT = "repro-inspect"
WIRE_VERSION = 1

SNAPSHOT_FORMAT = "repro-worker-snapshot"
SNAPSHOT_VERSION = 1

#: Hard cap on one frame's encoded size. Generous (a recorder dump of a
#: 256-event ring is a few hundred KiB at worst) but bounded, so a
#: garbage or hostile peer cannot make the server buffer arbitrarily.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Declared wire-format manifests for this module, gated by the
#: ``wire_schema`` reprolint pass: encoders must together write exactly
#: the declared keys (each stamping format/version), decoders may read
#: only declared keys, and a ``keys`` change without a version bump fails
#: ``reprolint --diff``. See docs/static-analysis.md.
WIRE_MANIFESTS: dict[str, dict] = {
    "inspect-frame": {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "keys": ("format", "version", "cmd", "args", "ok", "data", "error"),
        "encoders": ("request_frame", "ok_frame", "error_frame"),
        "decoders": ("validate_request", "decode_response"),
    },
    "worker-snapshot": {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "keys": (
            "format",
            "version",
            "worker",
            "workers",
            "counters",
            "stats",
            "context",
        ),
        "encoders": ("encode_snapshot",),
        "decoders": ("decode_snapshot",),
    },
}

def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialize one frame to its wire form (UTF-8 JSON + ``\\n``)."""
    if not isinstance(payload, Mapping):
        raise WireError(
            f"frame must be a mapping, got {type(payload).__name__}"
        )
    try:
        text = json.dumps(
            dict(payload), separators=(",", ":"), allow_nan=False,
            default=str,
        )
    except (TypeError, ValueError) as exc:
        raise WireError(f"frame is not JSON-serializable: {exc}") from exc
    data = text.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(data)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte limit"
        )
    return data


def decode_frame(line: bytes | str) -> dict:
    """Parse one wire line back into a frame dict.

    Raises :class:`~repro.errors.WireError` on anything malformed — the
    server turns that into an error frame instead of dying, so one bad
    client line never takes the connection (let alone the match) down.
    """
    if isinstance(line, (bytes, bytearray)):
        if len(line) > MAX_FRAME_BYTES:
            raise WireError(
                f"frame of {len(line)} bytes exceeds the"
                f" {MAX_FRAME_BYTES}-byte limit"
            )
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"frame is not valid UTF-8: {exc}") from exc
    text = line.strip()
    if not text:
        raise WireError("empty frame")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WireError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def request_frame(cmd: str, args: Mapping[str, Any] | None = None) -> dict:
    """Build a request frame; rejects commands outside the registry."""
    if cmd not in KNOWN_COMMANDS:
        raise WireError(
            f"unknown command {cmd!r}; known commands:"
            f" {', '.join(KNOWN_COMMANDS)}"
        )
    frame: dict = {"format": WIRE_FORMAT, "version": WIRE_VERSION, "cmd": cmd}
    if args:
        frame["args"] = dict(args)
    return frame


def ok_frame(cmd: str, data: Any) -> dict:
    """Build a success response frame carrying ``data``."""
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "ok": True,
        "cmd": cmd,
        "data": data,
    }


def error_frame(message: str, cmd: str | None = None) -> dict:
    """Build an error response frame (``cmd`` when it could be parsed)."""
    frame: dict = {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "ok": False,
        "error": str(message),
    }
    if cmd:
        frame["cmd"] = cmd
    return frame


def validate_request(frame: Mapping[str, Any]) -> tuple[str, dict]:
    """Check a decoded request frame; returns ``(cmd, args)``.

    Raises :class:`~repro.errors.WireError` on a foreign format, an
    unsupported version, a missing/unknown command, or non-mapping args.
    """
    if frame.get("format") != WIRE_FORMAT:
        raise WireError(
            f"not an inspector frame (format={frame.get('format')!r})"
        )
    if frame.get("version") != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {frame.get('version')!r}"
            f" (this build speaks version {WIRE_VERSION})"
        )
    cmd = frame.get("cmd")
    if not isinstance(cmd, str) or cmd not in KNOWN_COMMANDS:
        raise WireError(
            f"unknown command {cmd!r}; known commands:"
            f" {', '.join(KNOWN_COMMANDS)}"
        )
    args = frame.get("args") or {}
    if not isinstance(args, dict):
        raise WireError(
            f"args must be a JSON object, got {type(args).__name__}"
        )
    return cmd, args


def decode_response(frame: Mapping[str, Any]) -> Any:
    """Unwrap a response frame into its ``data``; raises on error frames.

    :class:`~repro.errors.WireError` for protocol problems (foreign
    format/version), :class:`~repro.errors.InspectorError` — via the
    server's own message — when ``ok`` is false.
    """
    from repro.errors import InspectorError

    if frame.get("format") != WIRE_FORMAT:
        raise WireError(
            f"not an inspector frame (format={frame.get('format')!r})"
        )
    if frame.get("version") != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {frame.get('version')!r}"
            f" (this build speaks version {WIRE_VERSION})"
        )
    if not frame.get("ok"):
        raise InspectorError(str(frame.get("error") or "request failed"))
    return frame.get("data")


def encode_snapshot(snapshot: WorkerSnapshot) -> dict:
    """Wrap a :class:`WorkerSnapshot` for the wire (format/version
    stamped, JSON-ready). Lossless: ``decode_snapshot`` inverts it."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        **snapshot.to_dict(),
    }


def decode_snapshot(payload: Mapping[str, Any]) -> WorkerSnapshot:
    """Invert :func:`encode_snapshot`; raises :class:`WireError` on a
    foreign or structurally broken payload."""
    if not isinstance(payload, Mapping):
        raise WireError(
            f"snapshot must be a mapping, got {type(payload).__name__}"
        )
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise WireError(
            f"not a worker snapshot (format={payload.get('format')!r})"
        )
    if payload.get("version") != SNAPSHOT_VERSION:
        raise WireError(
            f"unsupported snapshot version {payload.get('version')!r}"
            f" (this build reads version {SNAPSHOT_VERSION})"
        )
    try:
        return WorkerSnapshot.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed worker snapshot: {exc}") from exc
