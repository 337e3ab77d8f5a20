"""``repro.client`` — the synchronous client for :mod:`repro.server`.

A thin, dependency-free HTTP client (stdlib ``http.client``, keep-alive)
whose surface mirrors the local facade: :meth:`ReproClient.solve` takes
the same ``(instance, regime, method, **opts)`` and returns the same
:class:`~repro.api.ScheduleResult` — byte-identical ``to_dict`` output
up to the volatile blocks (``telemetry`` wall times and the
server-stamped ``request`` block).  Structured error payloads come back
as the same typed exceptions a local call would raise:
:class:`~repro.errors.ConfigError` for unknown dispatch cells,
:class:`~repro.errors.BudgetExceeded` for ``on_budget="raise"`` solves
(bounds preserved; the incumbent schedule does not travel),
:class:`~repro.errors.ServerOverloaded` for 429 backpressure,
:class:`~repro.errors.DeadlineExceeded` for 504 deadline misses,
:class:`~repro.errors.SolverBackendError` for 503 MILP backend failures.

Failure handling is a *classification table*, not a blanket retry
(:func:`classify_failure`):

* **connect-level** failures (refused, DNS, a connection object that
  never sent the request) are always retried — the request provably
  never reached the server;
* **ambiguous** failures (reset, broken pipe, a server that hung up
  mid-response, socket timeouts) are retried only when the request is
  *idempotent* — GET/DELETE, solves carrying an idempotency key, stream
  feeds carrying a ``seq`` number, stream closes.  A non-idempotent
  request dying ambiguously raises instead of risking a duplicate side
  effect;
* **HTTP responses are answers, not failures** — except 429, which is a
  "not admitted, come back" and is retried honouring the server's
  ``Retry-After`` hint (capped at 1 s per wait) before the typed
  :class:`~repro.errors.ServerOverloaded` is raised.

A :class:`CircuitBreaker` sits in front of every attempt: after
``threshold`` consecutive connection failures the client fails fast with
:class:`~repro.errors.CircuitOpenError` for ``cooldown`` seconds, then
lets a single half-open probe through.

Usage::

    from repro.client import ReproClient

    with ReproClient("http://127.0.0.1:8787") as client:
        result = client.solve(instance, regime="bufferless", method="bfl")
        fast = client.solve(instance, "bufferless", "bfl", deadline_ms=500)
        with client.open_stream(n=16, policy="bfl") as stream:
            decisions = stream.feed(messages)
            final = stream.close()
"""

from __future__ import annotations

import contextlib
import http.client
import json
import secrets
import socket
import time
from typing import Any, Callable, Iterable

from .api import ScheduleResult
from .budget import SolverBudget
from .errors import (
    BudgetExceeded,
    CircuitOpenError,
    ConfigError,
    DeadlineExceeded,
    ServerError,
    ServerOverloaded,
    SolverBackendError,
)
from .io import message_row
from .online import StreamResult
from .online.stream import Decision
from .topology import topology_of

__all__ = ["ReproClient", "ClientStream", "CircuitBreaker", "classify_failure"]

#: The request provably never reached the server — always safe to retry.
CONNECT_FAILURES = (
    ConnectionRefusedError,
    socket.gaierror,
    http.client.CannotSendRequest,
)

#: The connection died after the request (or part of it) was sent — the
#: server may have processed it, so retrying is safe only when the
#: request is idempotent.
AMBIGUOUS_FAILURES = (
    http.client.RemoteDisconnected,
    http.client.BadStatusLine,
    ConnectionResetError,
    BrokenPipeError,
    TimeoutError,  # covers socket.timeout
)

#: Union the transport layer catches at all (anything else propagates).
_TRANSPORT_FAILURES = CONNECT_FAILURES + AMBIGUOUS_FAILURES

#: Longest single sleep honouring a 429's Retry-After hint.
_MAX_RETRY_AFTER = 1.0


def classify_failure(exc: BaseException, *, idempotent: bool) -> bool:
    """Is retrying after ``exc`` safe?  The client's one retry rule.

    Connect-level failures are always retriable; ambiguous mid-request
    failures only for idempotent requests; everything else — including
    every HTTP-level response — is an answer, not a retry candidate.
    Order matters: connect-level is checked first because
    ``ConnectionRefusedError`` and friends share ancestry with the
    ambiguous ``OSError`` family.
    """
    if isinstance(exc, CONNECT_FAILURES):
        return True
    if isinstance(exc, AMBIGUOUS_FAILURES):
        return bool(idempotent)
    return False


class CircuitBreaker:
    """Fail-fast gate over consecutive connection failures.

    Closed (normal) until ``threshold`` consecutive
    :meth:`record_failure` calls with no intervening
    :meth:`record_success`; then open — :meth:`allow` raises
    :class:`~repro.errors.CircuitOpenError` immediately — for
    ``cooldown`` seconds, after which one half-open probe is let
    through.  The probe's outcome decides: success closes the breaker,
    failure re-opens it for another full cooldown.

    ``clock`` is injectable (tests drive it deterministically); any
    HTTP response — even an error status — counts as success, because
    the breaker guards the *connection*, not the request's outcome.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 1.0,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self) -> None:
        """Raise :class:`~repro.errors.CircuitOpenError` unless a call
        may proceed (closed, or the half-open probe slot)."""
        if self._opened_at is None:
            return
        remaining = self.cooldown - (self._clock() - self._opened_at)
        if remaining <= 0:
            return  # half-open: this call is the probe
        raise CircuitOpenError(
            f"circuit breaker is open after {self._failures} consecutive "
            f"connection failures; retry in {remaining:.3f}s",
            retry_after=remaining,
        )

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = self._clock()


class ReproClient:
    """Synchronous client for one scheduling server.

    Parameters
    ----------
    url:
        ``http://host:port`` of the server (https is not supported — the
        serving tier is plain HTTP behind whatever ingress terminates
        TLS).
    tenant:
        Tenant name sent with every solve (the server's per-tenant
        quotas key on it).  ``None`` = the server's default tenant.
    retries:
        Extra attempts after a retriable failure (see
        :func:`classify_failure`).
    backoff:
        Base of the exponential back-off sleep: attempt ``k`` waits
        ``backoff * 2**k`` seconds.
    timeout:
        Socket timeout per request, in seconds.
    breaker:
        The :class:`CircuitBreaker` guarding every attempt (``None`` =
        a default ``CircuitBreaker()``).
    """

    def __init__(
        self,
        url: str = "http://127.0.0.1:8787",
        *,
        tenant: str | None = None,
        retries: int = 3,
        backoff: float = 0.05,
        timeout: float = 60.0,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if not url.startswith("http://"):
            raise ValueError(f"only http:// URLs are supported, got {url!r}")
        hostport = url[len("http://") :].rstrip("/")
        host, _, port = hostport.partition(":")
        if not host or not port or not port.isdigit():
            raise ValueError(f"expected http://host:port, got {url!r}")
        self.host = host
        self.port = int(port)
        self.tenant = tenant
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.timeout = float(timeout)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------- #
    # plumbing
    # ------------------------------------------------------------- #

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _once(
        self,
        verb: str,
        path: str,
        payload: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, dict[str, Any], Any]:
        """One attempt on the (possibly reused) keep-alive connection."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self._conn.request(verb, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        status = response.status
        data = json.loads(raw) if raw else {}
        if not isinstance(data, dict):
            raise ServerError(
                f"server sent a non-object JSON body for {verb} {path}"
            )
        return status, data, response.headers

    def _request(
        self,
        verb: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
        *,
        idempotent: bool = False,
    ) -> tuple[int, dict[str, Any], Any]:
        payload = json.dumps(body).encode() if body is not None else None
        send_headers = {"Connection": "keep-alive"}
        if payload is not None:
            send_headers["Content-Type"] = "application/json"
        if headers:
            send_headers.update(headers)
        last_exc: Exception | None = None
        for attempt in range(self.retries + 1):
            self.breaker.allow()
            try:
                status, data, resp_headers = self._once(
                    verb, path, payload, send_headers
                )
            except _TRANSPORT_FAILURES as exc:
                self.close()
                self.breaker.record_failure()
                last_exc = exc
                if not classify_failure(exc, idempotent=idempotent):
                    raise ServerError(
                        f"connection failed mid-request and {verb} {path} "
                        f"is not idempotent; not retrying: {exc}"
                    ) from exc
                if attempt < self.retries:
                    time.sleep(self.backoff * 2**attempt)
                continue
            self.breaker.record_success()
            if status == 429 and attempt < self.retries:
                # Backpressure is transient and the request was NOT
                # admitted: honour the hint and try again.  Every other
                # status is an answer.
                hint = resp_headers.get("Retry-After") if resp_headers else None
                try:
                    wait = float(hint) if hint else self.backoff * 2**attempt
                except ValueError:
                    wait = self.backoff * 2**attempt
                time.sleep(min(max(wait, 0.0), _MAX_RETRY_AFTER))
                continue
            return status, data, resp_headers
        raise ServerError(
            f"cannot reach {self.host}:{self.port} after "
            f"{self.retries + 1} attempts: {last_exc}"
        ) from last_exc

    def _call(
        self,
        verb: str,
        path: str,
        body: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None,
        *,
        idempotent: bool | None = None,
    ) -> dict[str, Any]:
        if idempotent is None:
            idempotent = verb in ("GET", "DELETE")
        status, data, resp_headers = self._request(
            verb, path, body, headers, idempotent=idempotent
        )
        if status < 400:
            return data
        raise self._error_for(status, data, resp_headers)

    @staticmethod
    def _error_for(status: int, data: dict[str, Any], headers: Any) -> Exception:
        err = data.get("error") or {}
        etype = err.get("type", "internal")
        message = err.get("message", f"server returned HTTP {status}")
        details = err.get("details") or {}
        if etype == "config":
            return ConfigError(message)
        if etype == "bad_request":
            return ValueError(message)
        if etype == "overloaded":
            retry_after = details.get("retry_after")
            if retry_after is None:
                header = headers.get("Retry-After") if headers else None
                retry_after = float(header) if header else None
            return ServerOverloaded(
                message, retry_after=retry_after, details=details
            )
        if etype == "deadline":
            return DeadlineExceeded(
                message,
                deadline_ms=details.get("deadline_ms"),
                shed=bool(details.get("shed", False)),
                details=details,
            )
        if etype == "budget_exceeded":
            return BudgetExceeded(
                message,
                lower=details.get("lower", 0),
                upper=details.get("upper"),
                incumbent=None,  # schedules do not travel inside errors
                spent=details.get("spent"),
            )
        if etype == "solver_backend":
            return SolverBackendError(message)
        return ServerError(message, error_type=etype, details=details)

    # ------------------------------------------------------------- #
    # endpoints
    # ------------------------------------------------------------- #

    def health(self) -> dict[str, Any]:
        """The server's liveness document (versions, queue depth)."""
        return self._call("GET", "/v1/health")

    def cells(self) -> list[tuple[str, str, str]]:
        """The server's live dispatch matrix as (topology, regime, method)."""
        data = self._call("GET", "/v1/cells")
        return [
            (c["topology"], c["regime"], c["method"]) for c in data.get("cells", [])
        ]

    def solve(
        self,
        instance: Any,
        regime: str = "bufferless",
        method: str = "exact",
        *,
        request_id: str | None = None,
        deadline_ms: float | None = None,
        idempotency_key: str | None = None,
        **opts: Any,
    ) -> ScheduleResult:
        """Solve ``instance`` on the server; the remote twin of
        :func:`repro.api.solve` (same arguments, same result object).

        ``budget=SolverBudget(...)`` serializes onto the wire; the
        returned result additionally carries the server's ``request``
        telemetry block.  ``deadline_ms`` caps the end-to-end latency —
        a solve that cannot finish in time raises a typed
        :class:`~repro.errors.DeadlineExceeded`.  Every solve carries an
        idempotency key (auto-minted unless given), so retries after
        ambiguous connection failures are exactly-once: a re-sent
        request the server already answered replays the recorded
        response instead of re-solving.
        """
        options = dict(opts)
        budget = options.get("budget")
        if isinstance(budget, SolverBudget):
            options["budget"] = {
                "wall_time": budget.wall_time,
                "nodes": budget.nodes,
            }
        body: dict[str, Any] = {
            "instance": topology_of(instance).instance_to_dict(instance),
            "regime": regime,
            "method": method,
            "options": options,
        }
        if self.tenant is not None:
            body["tenant"] = self.tenant
        headers = {
            "x-repro-idempotency-key": idempotency_key
            or f"cl-{secrets.token_hex(16)}"
        }
        if request_id:
            headers["x-repro-request-id"] = request_id
        if deadline_ms is not None:
            headers["x-repro-deadline-ms"] = f"{float(deadline_ms):g}"
        return ScheduleResult.from_dict(
            self._call("POST", "/v1/solve", body, headers, idempotent=True)
        )

    def open_stream(
        self,
        *,
        n: int,
        topology: str = "line",
        policy: str = "bfl",
        workload: dict[str, Any] | None = None,
        recorder: Any | None = None,
        **options: Any,
    ) -> "ClientStream":
        """Open a server-side online stream session.

        ``workload`` attaches trace provenance ({trace_id, shape, seed})
        to the session — the server stamps it onto the close result, so a
        served replay carries the same ``workload`` block a local
        :func:`repro.trace.replay` would.  ``recorder`` (a
        :class:`repro.trace.TraceRecorder`) records every arrival this
        client feeds, turning any live session into a replayable trace.

        Opening is the one non-idempotent POST the client makes: an
        ambiguous connection failure here raises rather than risking a
        second orphaned session.
        """
        body: dict[str, Any] = {
            "n": n,
            "topology": topology,
            "policy": policy,
            "options": options,
        }
        if workload is not None:
            body["workload"] = dict(workload)
        data = self._call("POST", "/v1/streams", body, idempotent=False)
        return ClientStream(
            self,
            data["stream"],
            topology=data["topology"],
            seq=data.get("batches", 0),
            recorder=recorder,
        )

    def resume_stream(self, stream_id: str) -> "ClientStream":
        """Reattach to an existing stream session — after a client crash
        or a server restart that recovered its journal.

        The returned stream's ``seq`` cursor continues from the batches
        the server already applied, so feeding picks up exactly where
        the lost client stopped; :meth:`ClientStream.decisions` re-reads
        everything already finalized.
        """
        status = self._call("GET", f"/v1/streams/{stream_id}")
        stream = ClientStream(
            self,
            stream_id,
            topology=status.get("topology", "line"),
            seq=status.get("batches", 0),
        )
        stream.frontier = status.get("frontier", 0)
        stream.closed = bool(status.get("closed", False))
        return stream


class ClientStream:
    """One open stream session, as seen from the client.

    ``feed`` posts an arrival batch and returns the decisions the server
    finalized with it; ``close`` ends the run and returns the full
    :class:`~repro.online.StreamResult` (with any not-yet-delivered
    decisions folded in — ``result.decisions`` is always the complete
    log).  ``abandon`` deletes the session without a result.

    Every feed carries a ``seq`` number (the count of batches already
    applied), making it exactly-once: a retry after an ambiguous
    connection failure re-sends the same ``seq`` and the server answers
    with the decisions that batch originally finalized instead of
    re-applying it.  ``close`` is idempotent server-side for the same
    reason.
    """

    def __init__(
        self,
        client: ReproClient,
        stream_id: str,
        *,
        topology: str,
        seq: int = 0,
        recorder: Any | None = None,
    ) -> None:
        self.client = client
        self.stream_id = stream_id
        self.topology = topology
        self.frontier = 0
        self.seq = seq
        self.closed = False
        self.recorder = recorder

    def __enter__(self) -> "ClientStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if not self.closed:
            self.abandon()

    def feed(self, messages: Iterable[Any]) -> list[Decision]:
        """Feed arrivals (``Message``/``RingMessage`` objects or dicts);
        returns the newly finalized decisions."""
        rows = [message_row(m) for m in messages]
        data = self.client._call(
            "POST",
            f"/v1/streams/{self.stream_id}/arrivals",
            {"messages": rows, "seq": self.seq},
            idempotent=True,  # the seq number makes retries exactly-once
        )
        if self.recorder is not None:
            # Record only after the server acknowledged: the trace then
            # holds exactly the arrivals the session actually applied.
            self.recorder.add_many(rows)
        self.frontier = data["frontier"]
        self.seq = data.get("seq", self.seq + 1)
        return [Decision.from_dict(d) for d in data["decisions"]]

    def decisions(self) -> list[Decision]:
        """Everything the server has finalized so far (the full log once
        closed) — the resume path after a crash on either side."""
        data = self.client._call(
            "GET", f"/v1/streams/{self.stream_id}/decisions"
        )
        self.frontier = data.get("frontier", self.frontier)
        self.seq = data.get("seq", self.seq)
        return [Decision.from_dict(d) for d in data["decisions"]]

    def close(self, *, purge: bool = True) -> StreamResult:
        """End the stream; returns the completed run.

        ``purge`` (default) also deletes the server-side session — and
        its journal — once the result is safely in hand; pass ``False``
        to leave it readable (``decisions``, repeated closes) until an
        explicit :meth:`abandon`.
        """
        data = self.client._call(
            "POST", f"/v1/streams/{self.stream_id}/close", idempotent=True
        )
        self.closed = True
        if purge:
            with contextlib.suppress(Exception):
                self.client._call("DELETE", f"/v1/streams/{self.stream_id}")
        return StreamResult.from_dict(data["result"])

    def abandon(self) -> None:
        """Delete the session server-side without running to completion."""
        self.client._call("DELETE", f"/v1/streams/{self.stream_id}")
        self.closed = True
