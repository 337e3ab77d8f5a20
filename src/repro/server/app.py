"""The asyncio HTTP/JSON scheduling server.

:class:`ReproServer` is a long-running service over stdlib ``asyncio``
only — ``asyncio.start_server`` plus hand-rolled HTTP/1.1 framing
(request line, headers, ``Content-Length`` bodies, keep-alive), no web
framework dependency.  The moving parts:

* solve requests go through the batched :class:`~repro.server.queue.
  SolveQueue` into an :class:`repro.engine.Engine` (``jobs`` picks
  serial vs process-pool execution) — never onto the event loop;
* stream requests hit the :class:`~repro.server.sessions.StreamSessions`
  table of incremental online runs;
* overload raises :class:`~repro.errors.ServerOverloaded` which maps to
  a 429 + ``Retry-After``; every other failure maps to the structured
  error payload of :mod:`repro.server.protocol`;
* with ``trace=``, the server installs its own
  :class:`~repro.obs.Tracer` process-wide for its lifetime, tags every
  request with a ``server.request`` span (request id, endpoint, status)
  on top of the solver's own spans, and exports the JSONL trace — with a
  :class:`~repro.obs.RunManifest` — on stop, so ``repro obs report``
  works on production traffic.

Every response carries ``x-repro-request-id`` (echoing the client's
header or minting one), and every solve result gains the schema-v3
``request`` block: request id, answering server, execution backend, and
seconds spent waiting in the queue.  A solve result is encoded to JSON
once, after that stamp; the idempotency LRU keeps the encoded bytes, so
a replay sends the very bytes the first answer did.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import logging
import secrets
import threading
import time
from typing import Any

from .. import obs
from ..api import ScheduleResult
from ..chaos.plan import ChaosPlan
from ..engine import Engine
from ..errors import (
    ConfigError,
    DeadlineExceeded,
    ServerOverloaded,
    ServerShutdownError,
)
from ..topology import dispatch_matrix
from .journal import SessionJournal
from .protocol import ERROR_STATUS, REASONS, WIRE_VERSION, error_body
from .queue import BackpressurePolicy, SolveQueue
from .sessions import StreamSessions

__all__ = ["ReproServer"]

_MAX_BODY = 16 * 1024 * 1024  # refuse absurd payloads before buffering them

_log = logging.getLogger("repro.server")


#: A response body: a payload still to encode, or JSON already encoded.
Body = dict[str, Any] | bytes


def _encode(payload: dict[str, Any]) -> bytes:
    return json.dumps(payload).encode()


class _HttpError(Exception):
    """Internal short-circuit: a ready-to-send error response."""

    def __init__(self, status: int, body: Body, headers=()):
        message = ""
        if isinstance(body, dict):
            message = body.get("error", {}).get("message", "")
        super().__init__(message)
        self.status = status
        self.body = body
        self.headers = tuple(headers)


class ReproServer:
    """One scheduling service instance (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int | None = 1,
        max_pending: int = 256,
        max_batch: int = 8,
        tenant_quota: int | None = None,
        max_sessions: int = 64,
        trace: str | None = None,
        journal: str | None = None,
        journal_fsync: bool = True,
        backpressure: BackpressurePolicy | None = None,
        default_deadline_ms: float | None = None,
        request_timeout: float | None = 30.0,
        idempotency_capacity: int = 1024,
        chaos: ChaosPlan | None = None,
    ) -> None:
        self.host = host
        self.port = port  # 0 = ephemeral; resolved by start()
        self.engine = Engine(jobs=jobs)
        policy = backpressure or BackpressurePolicy()
        if chaos is None:
            chaos = ChaosPlan.from_env()
        self.chaos = chaos
        self.queue = SolveQueue(
            self.engine,
            max_pending=max_pending,
            max_batch=max_batch,
            tenant_quota=tenant_quota,
            policy=policy,
            chaos=chaos,
        )
        self.journal = (
            SessionJournal(journal, fsync=journal_fsync)
            if journal is not None
            else None
        )
        self.sessions = StreamSessions(
            max_sessions,
            journal=self.journal,
            retry_after=policy.session_retry_after(),
        )
        self.recovered_sessions = 0
        self.default_deadline_ms = default_deadline_ms
        self.request_timeout = request_timeout
        self._idempotent: collections.OrderedDict[
            str, tuple[int, bytes]
        ] = collections.OrderedDict()
        self._idempotency_capacity = idempotency_capacity
        self._idempotent_bytes = 0
        self._trace_path = trace
        self._tracer: obs.Tracer | None = None
        self._manifest: obs.RunManifest | None = None
        self._obs_swap = None
        self._server: asyncio.base_events.Server | None = None
        self._started_at = 0.0
        self._request_seq = 0
        self._shutdown_counts: dict[str, int] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None

    # ------------------------------------------------------------- #
    # lifecycle
    # ------------------------------------------------------------- #

    async def start(self) -> "ReproServer":
        """Bind the listener and start the queue drainer."""
        self._loop = asyncio.get_running_loop()
        self._started_at = time.perf_counter()
        if self._trace_path is not None:
            self._tracer = obs.Tracer(enabled=True)
            self._obs_swap = obs.use(self._tracer)
            self._obs_swap.__enter__()
            self._manifest = obs.RunManifest.collect(
                "repro serve",
                config={
                    "host": self.host,
                    "jobs": self.engine.jobs,
                    "max_pending": self.queue.max_pending,
                    "max_batch": self.queue.max_batch,
                },
            )
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.journal is not None:
            # Crash recovery: rebuild every journaled stream session by
            # deterministic replay before accepting traffic.
            self.recovered_sessions = self.sessions.recover()
            if self.recovered_sessions:
                _log.info(
                    "recovered %d stream session(s) from journal %s",
                    self.recovered_sessions,
                    self.journal.root,
                )
                if self._tracer is not None:
                    self._tracer.count(
                        "server.sessions.recovered", self.recovered_sessions
                    )
        await self.queue.start()
        return self

    async def stop(self) -> None:
        """Close the listener, drain the queue, export the trace."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        counts = await self.queue.stop()
        self._shutdown_counts = counts
        _log.info(
            "queue stopped: %d request(s) drained over the lifetime, "
            "%d abandoned at shutdown",
            counts["drained"],
            counts["abandoned"],
        )
        if self._tracer is not None:
            self._tracer.count("server.shutdown.drained", counts["drained"])
            self._tracer.count("server.shutdown.abandoned", counts["abandoned"])
        if self._obs_swap is not None:
            self._obs_swap.__exit__(None, None, None)
            self._obs_swap = None
        if self._tracer is not None and self._trace_path is not None:
            if self._manifest is not None:
                self._manifest.finish(time.perf_counter() - self._started_at)
            obs.to_jsonl(self._tracer, self._trace_path, manifest=self._manifest)
            self._tracer = None

    def run(self, *, ready=None) -> None:
        """Serve until interrupted (the blocking ``repro serve`` path)."""

        async def _main() -> None:
            await self.start()
            self._stop_event = asyncio.Event()
            if ready is not None:
                ready(self)
            try:
                await self._stop_event.wait()
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    # -- thread harness (tests, benchmarks, notebooks) ------------- #

    def start_in_thread(self) -> "ReproServer":
        """Run the server on a dedicated event-loop thread; returns once
        the port is bound.  Pair with :meth:`shutdown`."""
        started = threading.Event()
        failure: list[BaseException] = []

        def _runner() -> None:
            async def _main() -> None:
                try:
                    await self.start()
                    self._stop_event = asyncio.Event()
                except BaseException as exc:  # surface bind errors to caller
                    failure.append(exc)
                    started.set()
                    return
                started.set()
                try:
                    await self._stop_event.wait()
                finally:
                    await self.stop()

            asyncio.run(_main())

        self._thread = threading.Thread(
            target=_runner, name="repro-server", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30):
            raise RuntimeError("server did not start within 30s")
        if failure:
            raise failure[0]
        return self

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Stop a :meth:`start_in_thread` server and join its thread.

        A thread that fails to join within ``timeout`` seconds is a
        *failure*, not a shrug: it raises a typed
        :class:`~repro.errors.ServerShutdownError` carrying the drained
        vs. abandoned request counts, instead of silently leaking the
        thread and whatever requests it still holds.
        """
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            drained = self._shutdown_counts.get("drained", self.queue.served)
            abandoned = self._shutdown_counts.get("abandoned", self.queue.pending)
            _log.error(
                "server thread failed to join within %.1fs "
                "(drained=%d, abandoned=%d)",
                timeout,
                drained,
                abandoned,
            )
            raise ServerShutdownError(
                f"server thread did not join within {timeout:.1f}s; "
                f"{drained} request(s) drained, {abandoned} abandoned",
                drained=drained,
                abandoned=abandoned,
            )
        self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- #
    # HTTP framing
    # ------------------------------------------------------------- #

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        """Read one full request off the wire; ``None`` on clean EOF.

        Malformed framing raises :class:`_HttpError` — the caller answers
        it and closes the connection (re-synchronising a broken HTTP/1.1
        byte stream is not worth the ambiguity).
        """
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(
                400, error_body("bad_request", "malformed request line")
            )
        verb, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY:
            raise _HttpError(400, error_body("bad_request", "bad Content-Length"))
        body = await reader.readexactly(length) if length else b""
        return verb, target, headers, body

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    if self.request_timeout is not None:
                        # Slow-loris guard: a peer gets request_timeout
                        # seconds to deliver one complete request (or send
                        # the next one on a keep-alive connection) before
                        # a typed 408 and the door.
                        request = await asyncio.wait_for(
                            self._read_request(reader), self.request_timeout
                        )
                    else:
                        request = await self._read_request(reader)
                except asyncio.TimeoutError:
                    if self._tracer is not None:
                        self._tracer.count("server.request_timeouts")
                    with contextlib.suppress(Exception):
                        await self._respond(
                            writer,
                            ERROR_STATUS["timeout"],
                            error_body(
                                "timeout",
                                "request not received within "
                                f"{self.request_timeout:g}s",
                            ),
                            keep_alive=False,
                        )
                    break
                except _HttpError as exc:
                    await self._respond(
                        writer, exc.status, exc.body, keep_alive=False
                    )
                    break
                if request is None:
                    break
                verb, target, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, extra = await self._dispatch(
                    verb.upper(), target, body, headers
                )
                await self._respond(
                    writer, status, payload, keep_alive=keep_alive, extra=extra
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # Shutdown while a keep-alive connection idles: close it
            # quietly instead of letting the cancellation escape into the
            # loop's exception handler.
            pass
        finally:
            writer.close()
            # CancelledError included: at loop teardown the close waiter
            # itself can be cancelled, and this task has already handled
            # its own cancellation above.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Body,
        *,
        keep_alive: bool,
        extra: tuple[tuple[str, str], ...] = (),
    ) -> None:
        data = payload if isinstance(payload, bytes) else _encode(payload)
        head = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{k}: {v}" for k, v in extra)
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + data)
        await writer.drain()

    # ------------------------------------------------------------- #
    # routing
    # ------------------------------------------------------------- #

    def _request_id(self, headers: dict[str, str]) -> str:
        supplied = headers.get("x-repro-request-id", "").strip()
        if supplied:
            return supplied[:128]
        self._request_seq += 1
        return f"req-{self._request_seq:06d}-{secrets.token_hex(4)}"

    async def _dispatch(
        self, verb: str, target: str, body: bytes, headers: dict[str, str]
    ) -> tuple[int, Body, tuple[tuple[str, str], ...]]:
        request_id = self._request_id(headers)
        t0 = time.perf_counter()
        route = f"{verb} {target}"
        extra: tuple[tuple[str, str], ...] = (("x-repro-request-id", request_id),)
        try:
            status, payload, route = await self._route(
                verb, target, body, headers, request_id
            )
        except _HttpError as exc:
            status, payload = exc.status, exc.body
            extra += exc.headers
        except ServerOverloaded as exc:
            status = ERROR_STATUS["overloaded"]
            payload = error_body(
                "overloaded",
                str(exc),
                retry_after=exc.retry_after,
                **exc.details,
            )
            if exc.retry_after is not None:
                extra += (("Retry-After", f"{exc.retry_after:.3f}"),)
        except DeadlineExceeded as exc:
            status = ERROR_STATUS["deadline"]
            payload = error_body(
                "deadline",
                str(exc),
                deadline_ms=exc.deadline_ms,
                shed=exc.shed,
                **exc.details,
            )
        except KeyError as exc:
            status = ERROR_STATUS["not_found"]
            payload = error_body("not_found", str(exc.args[0]) if exc.args else "")
        except ConfigError as exc:  # before ValueError: ConfigError is one
            status = ERROR_STATUS["config"]
            payload = error_body("config", str(exc))
        except (ValueError, TypeError) as exc:
            status = ERROR_STATUS["bad_request"]
            payload = error_body("bad_request", str(exc))
        except Exception as exc:  # pragma: no cover - defensive catch-all
            status = ERROR_STATUS["internal"]
            payload = error_body("internal", f"{type(exc).__name__}: {exc}")
        if self._tracer is not None:
            self._tracer.record_span(
                "server.request",
                t0,
                request_id=request_id,
                endpoint=route,
                status=status,
            )
            self._tracer.count("server.requests")
            if status >= 400:
                self._tracer.count(f"server.errors.{status}")
        return status, payload, extra

    def _json_body(self, body: bytes) -> dict[str, Any]:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    async def _route(
        self,
        verb: str,
        target: str,
        body: bytes,
        headers: dict[str, str],
        request_id: str,
    ) -> tuple[int, Body, str]:
        path = target.split("?", 1)[0].rstrip("/")
        if path == "/v1/health" and verb == "GET":
            return 200, self._health(), "GET /v1/health"
        if path == "/v1/cells" and verb == "GET":
            return 200, self._cells(), "GET /v1/cells"
        if path == "/v1/solve" and verb == "POST":
            data = self._json_body(body)
            tenant = str(
                data.get("tenant") or headers.get("x-repro-tenant") or "default"
            )
            status, payload = await self._solve(data, tenant, request_id, headers)
            return status, payload, "POST /v1/solve"
        if path == "/v1/streams" and verb == "POST":
            data = self._json_body(body)
            session = self.sessions.create(
                n=data.get("n", 0),
                topology=data.get("topology", "line"),
                policy=data.get("policy", "bfl"),
                options=data.get("options"),
                workload=data.get("workload"),
            )
            if self._tracer is not None:
                self._tracer.count("server.streams.opened")
            return 201, {**session.status(), "wire": WIRE_VERSION}, "POST /v1/streams"
        if path.startswith("/v1/streams/"):
            rest = path[len("/v1/streams/") :]
            sid, _, action = rest.partition("/")
            if not sid:
                raise KeyError("no such stream: ''")
            if verb == "GET" and not action:
                return (
                    200,
                    self.sessions.get(sid).status(),
                    "GET /v1/streams/{sid}",
                )
            if verb == "DELETE" and not action:
                self.sessions.discard(sid)
                return 200, {"deleted": sid}, "DELETE /v1/streams/{sid}"
            if verb == "GET" and action == "decisions":
                # The resume path: everything already finalized (or the
                # whole log once closed), byte-identical across restarts.
                session = self.sessions.get(sid)
                return (
                    200,
                    {
                        "stream": sid,
                        "decisions": [d.to_dict() for d in session.decisions()],
                        "frontier": session.frontier,
                        "seq": session.batches,
                        "closed": session.closed,
                    },
                    "GET /v1/streams/{sid}/decisions",
                )
            if verb == "POST" and action == "arrivals":
                data = self._json_body(body)
                session = self.sessions.get(sid)
                decisions, frontier = session.feed(
                    data.get("messages", []), seq=data.get("seq")
                )
                if self._tracer is not None:
                    self._tracer.count("server.stream.decisions", len(decisions))
                return (
                    200,
                    {
                        "stream": sid,
                        "frontier": frontier,
                        "seq": session.batches,
                        "decisions": [d.to_dict() for d in decisions],
                    },
                    "POST /v1/streams/{sid}/arrivals",
                )
            if verb == "POST" and action == "close":
                # Close is idempotent and does NOT discard the session:
                # it stays in the table (answering repeated closes and
                # decision reads with the same payload) until the client
                # DELETEs it — the exactly-once story for lost responses.
                session = self.sessions.get(sid)
                was_closed = session.closed
                result, remaining = session.close()
                if self._tracer is not None and not was_closed:
                    self._tracer.count("server.streams.closed")
                return (
                    200,
                    {
                        "stream": sid,
                        "decisions": [d.to_dict() for d in remaining],
                        "result": result.to_dict(topology=session.topology),
                    },
                    "POST /v1/streams/{sid}/close",
                )
        raise _HttpError(
            404, error_body("not_found", f"no route for {verb} {target}")
        )

    # ------------------------------------------------------------- #
    # endpoints
    # ------------------------------------------------------------- #

    def _health(self) -> dict[str, Any]:
        from .. import __version__

        return {
            "status": "ok",
            "wire": WIRE_VERSION,
            "version": __version__,
            "result_schema": ScheduleResult.SCHEMA_VERSION,
            "pending": self.queue.pending,
            "streams": len(self.sessions),
            "served": self.queue.served,
            "shed_deadline": self.queue.shed_deadline,
            "journal": str(self.journal.root) if self.journal else None,
            "recovered_sessions": self.recovered_sessions,
            "unrecoverable_sessions": self.sessions.unrecoverable,
            "idempotency_entries": len(self._idempotent),
            "idempotency_bytes": self._idempotent_bytes,
        }

    def _cells(self) -> dict[str, Any]:
        cells = [
            {"topology": topo, "regime": regime, "method": method}
            for (topo, regime), methods in dispatch_matrix().items()
            for method in methods
        ]
        return {"wire": WIRE_VERSION, "cells": cells}

    def _deadline_ms(
        self, headers: dict[str, str], data: dict[str, Any]
    ) -> float | None:
        """Resolve a request's deadline: header, then body, then default."""
        body_value = data.pop("deadline_ms", None)
        raw: Any = headers.get("x-repro-deadline-ms", "").strip() or body_value
        if raw is None or raw == "":
            return self.default_deadline_ms
        try:
            value = float(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"deadline_ms must be a number of milliseconds, got {raw!r}"
            ) from None
        if value <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {value}")
        return value

    def _remember(self, key: str, status: int, payload: Body) -> None:
        """Cache a terminal response's encoded body under its idempotency
        key (LRU); memory is about entries × response size.

        429s are deliberately not cached — overload is transient and a
        retry should get a fresh admission decision, not a replayed shed.
        """
        if not key or status == ERROR_STATUS["overloaded"]:
            return
        body = payload if isinstance(payload, bytes) else _encode(payload)
        old = self._idempotent.pop(key, None)
        if old is not None:
            self._idempotent_bytes -= len(old[1])
        self._idempotent[key] = (status, body)
        self._idempotent_bytes += len(body)
        while len(self._idempotent) > self._idempotency_capacity:
            _, (_, evicted) = self._idempotent.popitem(last=False)
            self._idempotent_bytes -= len(evicted)

    async def _solve(
        self,
        data: dict[str, Any],
        tenant: str,
        request_id: str,
        headers: dict[str, str],
    ) -> tuple[int, Body]:
        idem_key = str(
            headers.get("x-repro-idempotency-key")
            or data.pop("idempotency_key", "")
            or ""
        ).strip()[:128]
        if idem_key:
            cached = self._idempotent.get(idem_key)
            if cached is not None:
                # Exactly-once: a retry of an already-answered request
                # replays the recorded response without re-solving.
                self._idempotent.move_to_end(idem_key)
                if self._tracer is not None:
                    self._tracer.count("server.idempotent_hits")
                status, body = cached
                if status >= 400:
                    raise _HttpError(status, body)
                return status, body
        if "instance" not in data:
            raise ValueError("solve request needs an 'instance' document")
        deadline_ms = self._deadline_ms(headers, data)
        deadline_s = deadline_ms / 1e3 if deadline_ms is not None else None
        try:
            out, queue_seconds = await self.queue.submit(
                data, tenant=tenant, deadline_s=deadline_s
            )
        except DeadlineExceeded as exc:
            status = ERROR_STATUS["deadline"]
            payload = error_body(
                "deadline",
                str(exc),
                deadline_ms=exc.deadline_ms,
                shed=exc.shed,
                **exc.details,
            )
            self._remember(idem_key, status, payload)
            raise _HttpError(status, payload) from exc
        if out["ok"]:
            result = out["result"]
            backend = (result.get("telemetry") or {}).get("backend")
            result["request"] = {
                "id": request_id,
                "server": f"{self.host}:{self.port}",
                "backend": backend,
                "queue_seconds": queue_seconds,
            }
            if self._tracer is not None:
                self._tracer.count("server.solves")
                self._tracer.count("server.queue_seconds", queue_seconds)
            body = _encode(result)
            self._remember(idem_key, 200, body)
            return 200, body
        err = out["error"]
        status = ERROR_STATUS[err["error"]["type"]]
        self._remember(idem_key, status, err)
        raise _HttpError(status, err)
