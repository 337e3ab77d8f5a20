"""Session-scoped online stream state for the scheduling service.

One :class:`OnlineSession` is a server-side run of an online policy
(:mod:`repro.online`) fed incrementally over HTTP: open a stream, POST
arrival batches, read back the policy's irrevocable
:class:`~repro.online.Decision` log as it becomes final, close to get
the full :class:`~repro.online.StreamResult`.

Each session holds one resumable run of its policy — an
:class:`~repro.online.runner.OnlineRunner`, the same object
:func:`repro.online.run_online` drives in a single batch, so there is no
second implementation of any policy.  An online policy's decisions are
irrevocable, and an arrival released at time ``r`` cannot influence
anything the policy did strictly before ``r``.  So each ``feed`` hands
the batch to the runner, which advances through every step before the
frontier (the largest release fed; later batches must not be released
before it, enforced at :meth:`OnlineSession.feed`) and returns exactly
the decisions it made there.  The session appends them to an in-memory
log; ``close`` runs the policy to completion and returns the rest.  A
feed costs time proportional to the batch and the steps it advances,
not to the stream fed so far, and seq retries, :meth:`decisions` and
repeated closes read the log or the cached result without running
anything.

Durability builds on determinism: with a
:class:`~repro.server.journal.SessionJournal` attached, every applied
arrival batch is journaled (fsynced) *before* it is acknowledged — and
only after every arrival in it passed validation, so a bad batch never
reaches the journal — and :meth:`StreamSessions.recover` rebuilds the
table after a crash by re-feeding the journaled batches: the recovered
decision log is byte-identical to the pre-crash one because both are
the same pure function of the same inputs.  Feeds carry an optional
``seq`` number making retries exactly-once (a re-fed batch returns the
decisions it originally finalized), and ``close`` is idempotent: the
session stays in the table, answering repeated closes with the same
result, until the client deletes it.
"""

from __future__ import annotations

import dataclasses
import logging
import secrets
import threading
from typing import Any

from .. import obs
from ..core.instance import Instance
from ..core.message import Message
from ..errors import ConfigError, ServerOverloaded
from ..io import message_row, plain_message_rows, wire_int, wire_message_row
from ..online import ONLINE_POLICIES, StreamResult, start_online
from ..online import run_online  # noqa: F401  (perfbench/launcher.py wraps this name)
from ..online.stream import Decision
from .journal import SessionJournal

__all__ = ["OnlineSession", "StreamSessions"]

_log = logging.getLogger(__name__)

#: Topologies with an online dispatch cell the wire can reach.
STREAM_TOPOLOGIES = ("line", "ring")


def _parse_batch(rows: list[Any], *, topology: str, n: int) -> list[Any]:
    values = plain_message_rows(rows)
    if values is None:
        values = [_checked_row(row) for row in rows]
    if topology == "ring":
        from ..topology.ring import RingMessage

        return [RingMessage(*fields, n=n) for fields in values]
    return [Message(*fields) for fields in values]


def _checked_row(row: Any) -> tuple[int, int, int, int, int]:
    if not isinstance(row, dict):
        raise ValueError(f"each arrival must be a JSON object, got {row!r}")
    try:
        return wire_message_row(row, "arrival")
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in arrival") from exc


def _empty_instance(topology: str, n: int) -> Any:
    if topology == "ring":
        from ..topology.ring import RingInstance

        return RingInstance(n, ())
    return Instance(n, ())


class OnlineSession:
    """One live stream: its online runner and the decisions handed out."""

    def __init__(
        self,
        session_id: str,
        *,
        n: int,
        topology: str = "line",
        policy: str = "bfl",
        options: dict[str, Any] | None = None,
        workload: dict[str, Any] | None = None,
        journal: SessionJournal | None = None,
    ) -> None:
        if topology not in STREAM_TOPOLOGIES:
            raise ConfigError(
                f"streams support topologies {STREAM_TOPOLOGIES}, got {topology!r}"
            )
        if policy not in ONLINE_POLICIES:
            raise ConfigError(
                f"unknown online policy {policy!r}; choose one of {ONLINE_POLICIES}"
            )
        n = wire_int(n, "n", "stream")
        if topology == "ring" and n < 3:
            raise ValueError("a ring stream needs n >= 3")
        if topology == "line" and n < 2:
            raise ValueError("a line stream needs n >= 2")
        if options is not None and not isinstance(options, dict):
            raise ValueError("'options' must be a JSON object")
        if workload is not None and not isinstance(workload, dict):
            raise ValueError("'workload' must be a JSON object")
        self.session_id = session_id
        self.topology = topology
        self.policy = policy
        self.n = n
        self.options = dict(options or {})
        # Built here so unknown or invalid options fail the open (400),
        # before the journal records it.
        self._runner = start_online(
            _empty_instance(topology, n), policy, **self.options
        )
        # Workload provenance ({trace_id, shape, seed}) declared at open;
        # stamped onto the close result so served replays carry the same
        # provenance a local trace replay would.
        self.workload = dict(workload) if workload is not None else None
        self.journal = journal
        self._log: list[Decision] = []  # decisions handed out by feed, in order
        self._result: StreamResult | None = None
        # Per-batch cursor history: _batch_cursors[k] is len(_log) after
        # batch k applied, so a re-fed batch (a retry after an ambiguous
        # failure) returns exactly the decisions it originally finalized.
        self._batch_cursors: list[int] = []

    # ------------------------------------------------------------- #

    @property
    def frontier(self) -> int:
        """The largest release fed so far — decisions strictly before it
        are final."""
        return self._runner.frontier

    @property
    def fed(self) -> int:
        return self._runner.fed

    @property
    def closed(self) -> bool:
        return self._result is not None

    @property
    def batches(self) -> int:
        """Arrival batches applied so far (the next expected ``seq``)."""
        return len(self._batch_cursors)

    # ------------------------------------------------------------- #

    def feed(self, rows: Any, *, seq: int | None = None) -> tuple[list[Decision], int]:
        """Feed one arrival batch; returns ``(new decisions, frontier)``.

        Every arrival's release must be >= the current frontier (the
        stream is revealed in time order — that monotonicity is exactly
        what makes the finalized prefix irrevocable).  The returned
        decisions are the ones that became final with this batch, in
        decision-log order.  A batch with any bad arrival is rejected
        whole, before it is journaled or changes any state.

        ``seq`` (optional) makes feeds exactly-once: it must equal the
        number of batches applied so far.  A ``seq`` *behind* the cursor
        is a retry of an already-applied batch — it is **not** re-applied;
        the decisions it originally finalized are returned again.  A
        ``seq`` ahead of the cursor is a gap and is rejected.
        """
        if self.closed:
            raise ValueError(f"stream {self.session_id} is closed")
        if not isinstance(rows, list):
            raise ValueError("'messages' must be a JSON array of arrivals")
        applied = len(self._batch_cursors)
        if seq is not None:
            seq = wire_int(seq, "seq", "feed")
            if seq < 0:
                raise ValueError(f"'seq' must be >= 0, got {seq}")
            if seq < applied:
                # Retry of an acknowledged batch: hand back the original
                # answer without touching the stream (exactly-once).
                start = self._batch_cursors[seq - 1] if seq else 0
                end = self._batch_cursors[seq]
                return self._log[start:end], self.frontier
            if seq > applied:
                raise ValueError(
                    f"'seq' {seq} skips ahead: stream has applied "
                    f"{applied} batch(es); feed them in order"
                )
        batch = _parse_batch(rows, topology=self.topology, n=self.n)
        checked = self._runner.check(batch)
        if self.journal is not None:
            # WAL contract: the batch is on disk (fsynced) before any
            # state changes or any acknowledgement leaves the server.
            self.journal.append_feed(
                self.session_id, applied, [message_row(m) for m in batch]
            )
        frontier = max([self.frontier, *(m.release for m in batch)])
        new = self._runner.apply(checked, frontier)
        self._log.extend(new)
        self._batch_cursors.append(len(self._log))
        return new, frontier

    def close(self) -> tuple[StreamResult, list[Decision]]:
        """End the stream: run to completion, return the result plus the
        decisions not yet handed out by :meth:`feed`.

        Idempotent: closing an already-closed session returns the same
        ``(result, remaining)`` from the cached result, so a client
        retrying a close whose response was lost gets the original answer.
        """
        if self._result is None:
            if self.journal is not None:
                self.journal.append_close(self.session_id)
            result = self._runner.close()
            if self.workload is not None:
                result = dataclasses.replace(result, workload=dict(self.workload))
            self._result = result
        return self._result, list(self._result.decisions[len(self._log) :])

    def decisions(self) -> list[Decision]:
        """The finalized decision log so far (all decisions once closed).

        The resume path: a client reconnecting after a crash — its own or
        the server's — reads this to re-sync with the decisions already
        handed out, byte-identical to what the pre-crash server sent.
        """
        if self._result is not None:
            return list(self._result.decisions)
        return list(self._log)

    def status(self) -> dict[str, Any]:
        out = {
            "stream": self.session_id,
            "topology": self.topology,
            "policy": self.policy,
            "n": self.n,
            "fed": self.fed,
            "batches": self.batches,
            "frontier": self.frontier,
            "finalized": len(self._log),
            "closed": self.closed,
        }
        if self.workload is not None:
            out["workload"] = dict(self.workload)
        return out


class StreamSessions:
    """The server's session table (thread-safe, capacity-capped).

    With ``journal=`` every session is crash-durable: opens and feeds
    are journaled before acknowledgement, :meth:`recover` rebuilds the
    table by deterministic replay, and :meth:`discard` forgets the WAL.
    ``retry_after`` is the backpressure hint sent when the table is full.
    """

    def __init__(
        self,
        max_sessions: int = 64,
        *,
        journal: SessionJournal | None = None,
        retry_after: float = 1.0,
    ) -> None:
        self.max_sessions = max_sessions
        self.journal = journal
        self.retry_after = retry_after
        self._sessions: dict[str, OnlineSession] = {}
        self._lock = threading.Lock()
        #: Journaled sessions :meth:`recover` had to skip.
        self.unrecoverable = 0

    def create(self, **kwargs: Any) -> OnlineSession:
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise ServerOverloaded(
                    f"stream session table is full ({self.max_sessions} live "
                    "sessions); close or abandon one first",
                    retry_after=self.retry_after,
                    details={"max_sessions": self.max_sessions},
                )
            sid = f"st-{secrets.token_hex(8)}"
            session = OnlineSession(sid, journal=self.journal, **kwargs)
            if self.journal is not None:
                self.journal.open_session(
                    sid,
                    n=session.n,
                    topology=session.topology,
                    policy=session.policy,
                    options=session.options,
                    workload=session.workload,
                )
            self._sessions[sid] = session
            return session

    def recover(self) -> int:
        """Rebuild sessions from the journal; returns how many came back.

        Each journaled session is re-fed batch by batch through the same
        :meth:`OnlineSession.feed` path a live client would use — with
        journaling suppressed — so the recovered frontier, decision log
        and per-batch history are exactly the pre-crash ones, at a cost
        linear in the journal.  A session whose re-feed fails (e.g. a
        journal written against a policy that no longer exists) is
        logged, counted under ``server.sessions.unrecoverable`` and in
        :attr:`unrecoverable`, and skipped: recovery must never take the
        server down.
        """
        if self.journal is None:
            return 0
        recovered = 0
        for sid, records in self.journal.replay():
            head = records[0]
            try:
                session = OnlineSession(
                    sid,
                    n=head["n"],
                    topology=head.get("topology", "line"),
                    policy=head.get("policy", "bfl"),
                    options=head.get("options"),
                    workload=head.get("workload"),
                    journal=None,  # replay must not re-journal
                )
                for record in records[1:]:
                    if record.get("op") == "feed":
                        session.feed(record["rows"], seq=record.get("seq"))
                    elif record.get("op") == "close":
                        session.close()
            except Exception as exc:  # any bad journal: skip, never fatal
                _log.warning("stream session %s is unrecoverable: %r", sid, exc)
                obs.tracer().count("server.sessions.unrecoverable")
                self.unrecoverable += 1
                continue
            session.journal = self.journal
            with self._lock:
                self._sessions[sid] = session
            recovered += 1
        return recovered

    def get(self, session_id: str) -> OnlineSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(f"no such stream: {session_id}") from None

    def discard(self, session_id: str) -> None:
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise KeyError(f"no such stream: {session_id}")
        if self.journal is not None:
            self.journal.delete(session_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)
