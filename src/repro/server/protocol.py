"""The wire schema of the scheduling service.

One place defines what travels between :mod:`repro.server` and
:mod:`repro.client`:

* ``WIRE_VERSION`` — the protocol version, echoed by ``GET /v1/health``
  and stamped on every error payload.  Result payloads carry their own
  schema version (:data:`repro.api.ScheduleResult.SCHEMA_VERSION`);
  the wire version covers the envelope around them (endpoints, error
  bodies, stream session documents).
* the **error payload**: every non-2xx response has the body
  ``{"error": {"type": ..., "message": ..., "details": {...}},
  "wire": WIRE_VERSION}`` — a structured document, never a bare string,
  so clients can rebuild typed exceptions
  (:func:`repro.client.ReproClient` maps ``"config"`` back to
  :class:`~repro.errors.ConfigError`, ``"budget_exceeded"`` back to
  :class:`~repro.errors.BudgetExceeded`, and so on).
* :data:`ERROR_STATUS` — the HTTP status each error type rides on.

Endpoints (all JSON over HTTP/1.1, keep-alive):

====== ================================ =====================================
verb   path                             body -> response
====== ================================ =====================================
GET    ``/v1/health``                   server liveness + versions
GET    ``/v1/cells``                    the live dispatch matrix
POST   ``/v1/solve``                    one instance -> one schedule result
POST   ``/v1/streams``                  open an online stream session
GET    ``/v1/streams/{sid}``            session status
POST   ``/v1/streams/{sid}/arrivals``   feed arrivals -> finalized decisions
POST   ``/v1/streams/{sid}/close``      close -> the full stream result
GET    ``/v1/streams/{sid}/decisions``  the finalized decision log so far
DELETE ``/v1/streams/{sid}``            abandon the session
====== ================================ =====================================

Durability headers (all optional):

* ``x-repro-deadline-ms`` — end-to-end deadline for a solve; a request
  that cannot finish in time gets the typed ``deadline`` error on a 504
  instead of an unbounded wait.
* ``x-repro-idempotency-key`` — server-side exactly-once for solve
  retries: a repeated key returns the cached terminal response instead
  of re-executing.
* arrival batches may carry a ``seq`` number; re-feeding an
  already-applied batch returns the decisions it originally finalized
  (exactly-once feeds across reconnects and server restarts).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "WIRE_VERSION",
    "ERROR_STATUS",
    "REASONS",
    "error_body",
]

#: Version of the request/response envelope (error bodies, stream
#: documents, endpoint shapes).  Bump on any incompatible change.
WIRE_VERSION = 1

#: Error type -> HTTP status.  ``budget_exceeded`` (422) is raised only
#: by ``on_budget="raise"`` solves; ``on_budget="degrade"`` results are
#: ordinary 200s with ``status="bounded"`` — degradation is an answer,
#: not an error.  ``solver_backend`` (503) is an exact solve whose MILP
#: backend (HiGHS) failed outright.
ERROR_STATUS = {
    "bad_request": 400,
    "config": 400,
    "not_found": 404,
    "timeout": 408,
    "budget_exceeded": 422,
    "overloaded": 429,
    "internal": 500,
    "solver_backend": 503,
    "deadline": 504,
}

#: Reason phrases for the hand-rolled HTTP/1.1 framing.
REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def error_body(error_type: str, message: str, **details: Any) -> dict[str, Any]:
    """The structured error payload for one failure.

    ``error_type`` must be a key of :data:`ERROR_STATUS`; ``details``
    carries machine-readable extras (certified bounds for
    ``budget_exceeded``, ``retry_after`` for ``overloaded``, ...).
    """
    if error_type not in ERROR_STATUS:
        raise ValueError(
            f"unknown error type {error_type!r}; known: {sorted(ERROR_STATUS)}"
        )
    return {
        "error": {
            "type": error_type,
            "message": message,
            "details": dict(details),
        },
        "wire": WIRE_VERSION,
    }
