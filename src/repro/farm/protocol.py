"""Farm wire format: newline-delimited JSON + config (de)serialisation.

Every message on the client socket is one JSON object per line (UTF-8,
``\\n``-terminated). Requests carry an ``op`` field; responses carry
``ok`` (plus ``error`` when false); streamed events carry ``ev``. The
framing is deliberately trivial — any language that can open a Unix
socket and split on newlines is a farm client.

Config transport
----------------
A cell config crosses the wire as ``{"kind": <registry name>, "config":
<config_to_dict(...)>}``. The ``kind`` is the config's cell-kind name in
:mod:`repro.experiments.kinds` — the same registry
:func:`~repro.experiments.runner.run_cell` resolves configs through — and
:func:`config_from_dict` rebuilds the frozen dataclass from its own type
hints (enums, nested dataclasses, tuples), so a newly registered kind
needs nothing here and the round trip preserves the content-addressed
cache key exactly::

    config_cache_key(config_from_dict(config_kind(c), config_to_dict(c)))
        == config_cache_key(c)

That identity is what lets the scheduler dedup submissions from
different clients against each other and against the on-disk cache.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import socket
import typing
from typing import Any, Dict, Iterator, Optional, Tuple, Type

from repro.errors import ConfigError, FarmError
from repro.experiments.kinds import kind_for, kind_named
from repro.telemetry.manifest import config_to_dict

__all__ = [
    "PROTOCOL_SCHEMA",
    "config_kind",
    "config_from_dict",
    "config_to_wire",
    "config_from_wire",
    "send_json",
    "recv_json_lines",
    "error_response",
]

PROTOCOL_SCHEMA = "repro.farm_protocol/v1"


def config_kind(config) -> str:
    """Registry name for a config instance (raises FarmError if unknown)."""
    try:
        return kind_for(config).name
    except ConfigError as exc:
        raise FarmError(str(exc)) from exc


def _decoder(hint):
    """What undoes ``config_to_dict`` for a field typed ``hint`` (None when
    the JSON value already is the field value)."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:  # Optional[X]
        alternatives = [a for a in typing.get_args(hint)
                        if a is not type(None)]
        return _decoder(alternatives[0]) if len(alternatives) == 1 else None
    if origin is tuple:  # frozen dataclasses hash their field values
        return tuple
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint  # calling the Enum class looks the value up
    if dataclasses.is_dataclass(hint):
        return functools.partial(_rebuild, hint)
    return None


@functools.lru_cache(maxsize=None)
def _field_decoders(cls: Type) -> Dict[str, Any]:
    """Per-field decoder of a config dataclass, from its own type hints.

    Cached per class: resolving string annotations costs ~100 µs, and the
    scheduler decodes every submitted cell.
    """
    hints = typing.get_type_hints(cls)
    return {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(cls)}


def _rebuild(cls: Type, d: Dict[str, Any]):
    """Rebuild one (frozen) config dataclass from its JSON-safe dict."""
    if not isinstance(d, dict):
        raise FarmError(f"{cls.__name__} config must be an object, "
                        f"got {type(d).__name__}")
    decoders = _field_decoders(cls)
    unknown = sorted(set(d) - set(decoders))
    if unknown:
        raise FarmError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
    kwargs: Dict[str, Any] = {}
    try:
        for name, value in d.items():
            decode = decoders[name]
            kwargs[name] = (value if decode is None or value is None
                            else decode(value))
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # bad field type / enum value
        raise FarmError(f"bad {cls.__name__} config: {exc}") from exc


def config_from_dict(kind: str, d: Dict[str, Any]):
    """Rebuild and validate a config from its wire rendering."""
    try:
        cls = kind_named(kind).config_cls
    except ConfigError as exc:
        raise FarmError(str(exc)) from exc
    config = _rebuild(cls, d)
    try:
        config.validate()
    except ConfigError as exc:
        raise FarmError(f"invalid {kind} config: {exc}") from exc
    return config


def config_to_wire(config) -> Dict[str, Any]:
    """``{"kind": ..., "config": ...}`` wire envelope for one config."""
    return {"kind": config_kind(config), "config": config_to_dict(config)}


def config_from_wire(envelope: Dict[str, Any]):
    """Inverse of :func:`config_to_wire`."""
    if not isinstance(envelope, dict) or "config" not in envelope:
        raise FarmError("config envelope must be {'kind': ..., 'config': ...}")
    return config_from_dict(envelope.get("kind", "cell"), envelope["config"])


# -- socket framing -----------------------------------------------------------


def send_json(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Send one message (a JSON object + newline). Raises FarmError on a
    closed peer."""
    try:
        sock.sendall(json.dumps(message, separators=(",", ":")).encode()
                     + b"\n")
    except (OSError, BrokenPipeError) as exc:
        raise FarmError(f"peer went away mid-send: {exc}") from exc


def recv_json_lines(sock: socket.socket,
                    bufsize: int = 65536) -> Iterator[Dict[str, Any]]:
    """Yield messages from ``sock`` until the peer closes.

    Blocking; used by the client library and the smoke harness. The
    scheduler side uses its own non-blocking buffers inside the
    selector loop.
    """
    buf = b""
    while True:
        try:
            chunk = sock.recv(bufsize)
        except OSError as exc:
            raise FarmError(f"recv failed: {exc}") from exc
        if not chunk:
            if buf.strip():
                raise FarmError("peer closed mid-message")
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise FarmError(f"bad message from peer: {exc}") from exc


def parse_lines(buf: bytearray) -> Tuple[list, bytearray]:
    """Split complete JSON lines out of a receive buffer (scheduler side).

    Returns ``(messages, remainder)``; a malformed line becomes a
    ``{"_malformed": <text>}`` marker so the caller can answer with a
    protocol error instead of killing the connection loop.
    """
    messages = []
    while b"\n" in buf:
        idx = buf.index(b"\n")
        line = bytes(buf[:idx])
        del buf[: idx + 1]
        if not line.strip():
            continue
        try:
            messages.append(json.loads(line))
        except json.JSONDecodeError:
            messages.append({"_malformed": line.decode(errors="replace")})
    return messages, buf


def error_response(message: str, **extra: Any) -> Dict[str, Any]:
    """Uniform error envelope."""
    return {"ok": False, "error": message, **extra}


def make_request(op: str, **fields: Any) -> Dict[str, Any]:
    """Build a request message (clients)."""
    req: Dict[str, Any] = {"op": op}
    req.update(fields)
    return req


def one_shot(socket_path: str, request: Dict[str, Any],
             timeout: Optional[float] = 30.0) -> Dict[str, Any]:
    """Connect, send one request, return the first response line."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        try:
            sock.connect(socket_path)
        except OSError as exc:
            raise FarmError(
                f"cannot reach farm at {socket_path}: {exc} — is "
                f"`repro serve` running?") from exc
        send_json(sock, request)
        for message in recv_json_lines(sock):
            return message
    raise FarmError("farm closed the connection without answering")
