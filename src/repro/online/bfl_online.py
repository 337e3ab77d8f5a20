"""``online_bfl`` — incremental scan-line admission for streamed arrivals.

The offline BFL kernel (:mod:`repro.core.bfl_fast`) sweeps every scan
line of a fully known instance.  The online variant cannot: messages are
revealed at their release times and a launch is irrevocable the moment a
message boards a line.  The rule implemented here is *replan-at-arrival*:

* the admission state is a set of per-line **reservations** — the
  ``[source, dest)`` diagonal segments of every message already launched
  (those are physically committed; a bufferless message cannot leave its
  line);
* whenever new messages arrive, the planner re-runs the BFL sweep over
  the currently *pending* (revealed, unlaunched, unexpired) messages,
  with two modifications to the offline kernel's ao-parameter
  bookkeeping: a message's entry line is capped at ``source - now`` (a
  departure cannot be scheduled in the past), and the per-line
  earliest-right-endpoint greedy skips any segment overlapping an
  existing reservation;
* plan entries are provisional until their departure step: a later
  arrival may revise them.  Commitment happens exactly at departure
  (``t = source - alpha``) — the launch is logged, the segment is
  reserved, and the decision can never be revisited;
* a pending message whose ``latest_departure`` passes without a launch
  is dropped — attributed to the *policy*.

Between events the run fast-forwards (epoch batching): with no pending
work, time jumps to the next release; with a plan standing, to the next
departure/expiry.  Fault runs (``faults=``) step uniformly instead, like
the simulator, because in-flight packets need per-step checks: a launch
into a blocked link is refused (the message stays pending and the plan
is rebuilt), while an in-flight message meeting a dead link, a stalled
node, or the plan's drop coin is lost — a *fault* drop, reported
separately from policy drops.  Reservations of fault-lost messages stay
in place: the line capacity up to the loss point was genuinely spent.

The loop lives in :class:`BflRunner`, a resumable
:class:`~repro.online.runner.OnlineRunner`: a stream session feeds it
batch by batch and it stops short of the frontier, while
:func:`online_bfl` feeds the whole instance at once.

On a **single-release stream** (all messages share one release time) the
first replan sees the entire instance with no reservations, so the plan
— and therefore the delivered set and every delivery line — coincides
exactly with offline :func:`~repro.core.bfl_fast.bfl_fast`, inheriting
BFL's 2-approximation of ``OPT_BL`` (Theorem 3.2).  Property tests
assert both the coincidence and the ½·OPT_BL floor.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort

from .. import obs
from ..core.instance import Instance
from ..core.message import Direction, Message
from ..core.schedule import Schedule
from ..core.trajectory import bufferless_trajectory
from ..network.faults import FaultPlan
from .runner import OnlineRunner
from .stream import Decision, StreamResult

__all__ = ["BflRunner", "online_bfl"]


def _fits(occupied: list[tuple[int, int]], start: int, end: int) -> bool:
    """Whether segment ``[start, end)`` avoids every reserved interval."""
    if not occupied:
        return True
    i = bisect_right(occupied, (start,))
    if i > 0 and occupied[i - 1][1] > start:
        return False
    return not (i < len(occupied) and occupied[i][0] < end)


def _plan(
    pending: list[Message],
    now: int,
    reserved: dict[int, list[tuple[int, int]]],
) -> dict[int, int]:
    """One BFL sweep over the pending set; returns ``{message_id: alpha}``.

    Identical to the :func:`~repro.core.bfl_fast.bfl_fast` kernel —
    entry buckets on the first relevant line, key-sorted active set,
    expiry heap, earliest-right-endpoint greedy per line — except that
    entry is capped at ``source - now`` (no departures in the past) and
    segments overlapping a reservation are passed over (they stay active
    for lower lines).
    """
    cols = [
        (m.source, m.dest, m.id, m.alpha_min, min(m.alpha_max, m.source - now))
        for m in pending
        if min(m.alpha_max, m.source - now) >= m.alpha_min
    ]
    k = len(cols)
    if k == 0:
        return {}
    src = [c[0] for c in cols]
    dst = [c[1] for c in cols]
    mid = [c[2] for c in cols]
    amin = [c[3] for c in cols]
    amax = [c[4] for c in cols]

    entry = sorted(range(k), key=lambda j: -amax[j])
    ei = 0
    active: list[tuple[int, int, int, int]] = []  # (dest, -source, id, j)
    live_active = 0
    dead = [False] * k
    expiry: list[tuple[int, int]] = []  # max-heap on alpha_min

    assignment: dict[int, int] = {}
    alpha = amax[entry[0]]
    while True:
        while ei < k and amax[entry[ei]] >= alpha:
            j = entry[ei]
            ei += 1
            insort(active, (dst[j], -src[j], mid[j], j))
            heapq.heappush(expiry, (-amin[j], j))
            live_active += 1

        taken = reserved.get(alpha)
        pos = None
        survivors = []
        for item in active:
            j = item[3]
            if dead[j]:
                continue
            if (pos is None or src[j] >= pos) and (
                taken is None or _fits(taken, src[j], dst[j])
            ):
                assignment[mid[j]] = alpha
                dead[j] = True
                live_active -= 1
                pos = dst[j]
            else:
                survivors.append(item)
        active = survivors

        while expiry and -expiry[0][0] > alpha - 1:
            j = heapq.heappop(expiry)[1]
            if not dead[j]:
                dead[j] = True
                live_active -= 1

        if live_active > 0:
            alpha -= 1
        elif ei < k:
            alpha = amax[entry[ei]]
        else:
            break
    return assignment


class BflRunner(OnlineRunner):
    """``online_bfl``'s event loop as a resumable step machine.

    ``backend`` is accepted for facade uniformity; the replan sweep is
    reservation-aware and has no vectorized twin yet, so a ``"numpy"``
    request falls back to this python implementation (counted under
    ``backend.fallbacks``).
    """

    name = "bfl"

    def __init__(
        self,
        instance: Instance,
        *,
        faults: FaultPlan | None = None,
        backend: str | None = None,
    ) -> None:
        from ..backend import fall_back, resolve_backend

        super().__init__(instance)
        if getattr(instance, "topology", "line") != "line":
            raise ValueError(
                "online bfl schedules line instances only, got topology "
                f"{instance.topology!r}"
            )
        if resolve_backend(backend) == "numpy":
            fall_back("online_bfl")
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError(f"faults must be a FaultPlan or None, got {faults!r}")
        if faults is not None and not faults.active:
            faults = None
        self._faults = faults
        self._drop_rng = (
            faults.drop_rng() if faults is not None and faults.drop_rate > 0 else None
        )
        self._arrivals: dict[int, list[Message]] = {}
        self._pending: dict[int, Message] = {}
        self._planned: dict[int, int] = {}
        self._reserved: dict[int, list[tuple[int, int]]] = {}
        # in-flight (fault runs only): [message, current node, alpha]
        self._in_flight: list[list] = []
        self._decisions: list[Decision] = []
        self._trajectories: list = []
        self._delivered: list[int] = []
        self._dropped: dict[int, str] = {}
        self._replans = self._blocked_launches = self._wait_steps = 0
        self._steps = 0
        self._need_replan = False
        self._t = 0

    @property
    def steps(self) -> int:
        return self._steps

    def _check(self, batch: Instance) -> None:
        for m in batch:
            if m.direction != Direction.LEFT_TO_RIGHT:
                raise ValueError(
                    f"message {m.id} travels right-to-left; split directions first"
                )

    def _add(self, batch: Instance) -> None:
        arrivals = self._arrivals
        touched = set()
        for m in batch:
            arrivals.setdefault(m.release, []).append(m)
            touched.add(m.release)
        for release in touched:
            arrivals[release].sort(key=lambda m: m.id)

    def _advance(self, until: int | None) -> list[Decision]:
        tr = obs.tracer()
        faults = self._faults
        drop_rng = self._drop_rng
        arrivals = self._arrivals
        pending = self._pending
        planned = self._planned
        reserved = self._reserved
        in_flight = self._in_flight
        decisions = self._decisions
        trajectories = self._trajectories
        delivered = self._delivered
        dropped = self._dropped
        first = len(decisions)
        t = self._t

        def drop(m: Message, at: int, reason: str) -> None:
            dropped[m.id] = reason
            decisions.append(Decision(m.id, "drop", at, reason=reason))

        while arrivals or pending or in_flight:
            step = t
            if faults is None:
                # Epoch batching: jump straight to the next event — a
                # release, a planned departure, or a pending message
                # expiring.
                nxt = []
                if arrivals:
                    nxt.append(min(arrivals))
                for i, alpha in planned.items():
                    nxt.append(pending[i].source - alpha)
                nxt.extend(
                    m.latest_departure + 1
                    for i, m in pending.items()
                    if i not in planned
                )
                step = max(t, min(nxt))
            if until is not None and step >= until:
                # Arrivals not fed yet are released at or after ``until``
                # and may move the next event; stop short of it.
                break
            t = step
            self._steps += 1

            # In-flight traversal (fault runs): each live packet crosses
            # the link at its current node during [t, t+1] — unless the
            # plan took the link down, stalled the node, or the drop coin
            # fires.
            if in_flight:
                keep = []
                for rec in in_flight:
                    m, node, alpha = rec
                    if faults.link_down(node, t) or faults.node_stalled(node, t):
                        drop(m, t, "fault")  # bufferless: it cannot wait out the outage
                    elif drop_rng is not None and drop_rng.random() < faults.drop_rate:
                        drop(m, t, "fault")  # lost on the crossing itself
                    elif node + 1 == m.dest:
                        delivered.append(m.id)
                        trajectories.append(bufferless_trajectory(m, alpha))
                    else:
                        rec[1] = node + 1
                        keep.append(rec)
                in_flight[:] = keep

            for m in arrivals.pop(t, ()):
                if not m.feasible:
                    drop(m, t, "policy")  # revealed already hopeless
                else:
                    pending[m.id] = m
                    self._need_replan = True

            for i in [i for i, m in pending.items() if m.latest_departure < t]:
                drop(pending.pop(i), t, "policy")
                planned.pop(i, None)

            if self._need_replan:
                planned = self._planned = _plan(list(pending.values()), t, reserved)
                self._replans += 1
                self._need_replan = False

            # Commit every plan entry whose departure step is now.  Higher
            # lines first — the same commitment order the offline sweep
            # uses.
            due = sorted(
                (i for i, alpha in planned.items() if pending[i].source - alpha == t),
                key=lambda i: (-planned[i], i),
            )
            for i in due:
                m = pending[i]
                if faults is not None and faults.sending_blocked(m.source, t):
                    # Refused launch, not a loss: the message stays pending
                    # and the planner reroutes it next step.
                    del planned[i]
                    self._blocked_launches += 1
                    self._need_replan = True
                    continue
                alpha = planned.pop(i)
                del pending[i]
                insort(reserved.setdefault(alpha, []), (m.source, m.dest))
                self._wait_steps += t - m.release
                decisions.append(Decision(m.id, "launch", t, alpha=alpha))
                if tr.enabled:
                    tr.event(
                        "online.admit", message=m.id, alpha=alpha, wait=t - m.release
                    )
                if faults is not None:
                    in_flight.append([m, m.source, alpha])
                else:
                    delivered.append(m.id)
                    trajectories.append(bufferless_trajectory(m, alpha))

            t += 1
        self._t = t
        return decisions[first:]

    def _finish(self) -> StreamResult:
        tr = obs.tracer()
        if tr.enabled:
            tr.count("online.replans", self._replans)
        return StreamResult(
            policy="bfl",
            schedule=Schedule(tuple(self._trajectories)),
            delivered_ids=frozenset(self._delivered),
            dropped=self._dropped,
            decisions=tuple(self._decisions),
            steps=self._steps,
            stats={
                "replans": self._replans,
                "blocked_launches": self._blocked_launches,
                "admission_wait_steps": self._wait_steps,
            },
        )


def online_bfl(
    instance: Instance,
    *,
    faults: FaultPlan | None = None,
    backend: str | None = None,
) -> StreamResult:
    """Stream ``instance`` through the incremental scan-line admitter
    (:class:`BflRunner`, fed the whole instance as one batch)."""
    from . import run_online

    return run_online(instance, "bfl", faults=faults, backend=backend)
