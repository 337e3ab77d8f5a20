"""The resumable form every online policy takes: start → feed → close.

An online policy's decisions are irrevocable once taken, so a run can
stop at any time ``f`` and resume later: nothing a message released at
``r >= f`` reveals can change what the policy did strictly before ``f``.
An :class:`OnlineRunner` is one policy as such a step machine:

* built by :func:`repro.online.start_online` from an instance with no
  messages, which fixes the network (``n``, topology, buffer capacity);
* :meth:`~OnlineRunner.feed` reveals a batch of arrivals and advances
  the policy through every time step ``t < frontier``, returning exactly
  the decisions it made there — in decision-log order, so the
  concatenated feeds are a prefix of the final log.  It is
  :meth:`~OnlineRunner.check` (validate, no state change) then
  :meth:`~OnlineRunner.apply`, which a caller can split to act in
  between — a served session journals the batch there;
* :meth:`~OnlineRunner.close` runs to completion and returns the
  :class:`~repro.online.stream.StreamResult`.

:func:`repro.online.run_online` is the single-batch case (feed
everything at frontier 0, then close), so a served stream session and a
one-shot run execute the same code.  Subclasses implement ``_add``
(reveal validated messages), ``_advance(until)`` (step, returning the
new decisions), ``_finish`` (build the result) and ``steps``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Iterable

from .. import obs
from .stream import Decision, StreamResult

__all__ = ["OnlineRunner"]


class OnlineRunner:
    """One online policy run, fed in batches; see the module docstring."""

    #: Policy name stamped on the result (``StreamResult.policy``).
    name: str

    def __init__(self, instance: Any) -> None:
        if len(instance):
            raise ValueError(
                "an online run starts from an instance with no messages; "
                "feed the arrivals instead"
            )
        self.instance = instance
        self.frontier = 0
        self._ids: set[int] = set()
        self._result: StreamResult | None = None
        self._busy_s = 0.0

    @property
    def fed(self) -> int:
        """Messages fed so far."""
        return len(self._ids)

    @property
    def steps(self) -> int:
        """Time steps the policy has processed so far."""
        raise NotImplementedError

    def check(self, messages: Iterable[Any]) -> Any:
        """Validate a batch without changing any state; returns it as an
        instance of the run's shape.

        Raises ``ValueError`` for a message released before the frontier,
        an id fed before or repeated in the batch, or anything the
        instance type or the policy rejects (endpoints off the network,
        right-to-left traffic on a line, ...).
        """
        batch = tuple(messages)
        for m in batch:
            if m.release < self.frontier:
                raise ValueError(
                    f"arrival {m.id} released at {m.release}, before the "
                    f"stream frontier {self.frontier}; feed arrivals in "
                    "nondecreasing release order"
                )
            if m.id in self._ids:
                raise ValueError(f"duplicate message id {m.id} in stream")
        # The instance type checks in-batch duplicates and endpoints.
        batch_instance = dataclasses.replace(self.instance, messages=batch)
        self._check(batch_instance)
        return batch_instance

    def _check(self, batch: Any) -> None:
        """Policy-specific validation of a batch instance."""

    def feed(self, messages: Iterable[Any], frontier: int) -> list[Decision]:
        """Reveal ``messages``, then advance through every step ``t <
        frontier``; returns the decisions made in those steps.

        Later batches must not be released before ``frontier``.  The same
        as :meth:`check` followed by :meth:`apply`.
        """
        self._check_open(frontier)
        return self.apply(self.check(messages), frontier)

    def apply(self, batch: Any, frontier: int) -> list[Decision]:
        """:meth:`feed` for a batch :meth:`check` has already returned,
        validated against the current state; does not validate again."""
        self._check_open(frontier)
        tr = obs.tracer()
        t0 = time.perf_counter() if tr.enabled else 0.0
        steps0 = self.steps
        self._ids.update(m.id for m in batch)
        self._add(batch)
        self.frontier = frontier
        new = self._advance(frontier)
        if tr.enabled:
            tr.count("online.steps", self.steps - steps0)
            self._busy_s += time.perf_counter() - t0
        return new

    def _check_open(self, frontier: int) -> None:
        if self._result is not None:
            raise ValueError("the online run is closed")
        if frontier < self.frontier:
            raise ValueError(
                f"frontier {frontier} is behind the run's frontier {self.frontier}"
            )

    def close(self) -> StreamResult:
        """Run to completion and return the result (idempotent)."""
        if self._result is not None:
            return self._result
        tr = obs.tracer()
        t0 = time.perf_counter() if tr.enabled else 0.0
        steps0 = self.steps
        self._advance(None)
        out = self._result = self._finish()
        if tr.enabled:
            launches = sum(1 for d in out.decisions if d.kind == "launch")
            tr.count("online.runs")
            tr.count("online.launches", launches)
            tr.count("online.drops.policy", len(out.policy_dropped_ids))
            tr.count("online.drops.fault", len(out.fault_dropped_ids))
            tr.count("online.steps", out.steps - steps0)
            # the span's length is the run's compute time across every
            # feed and the close, ending now
            tr.record_span(
                "online.run",
                t0 - self._busy_s,
                policy=self.name,
                n=self.instance.n,
                k=self.fed,
                delivered=out.throughput,
            )
        return out

    # -- the policy's step machine ------------------------------------ #

    def _add(self, batch: Any) -> None:
        raise NotImplementedError

    def _advance(self, until: int | None) -> list[Decision]:
        raise NotImplementedError

    def _finish(self) -> StreamResult:
        raise NotImplementedError
