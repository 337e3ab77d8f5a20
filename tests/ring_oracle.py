"""Reference implementations the ring tests check the production code against.

* :func:`reference_ring_bfl` is the ring greedy as first written: one
  :class:`RingTrajectory` per (message, departure) candidate, sorted by
  ``(arrive, span, id, depart)``, taken when none of its ``(link, time)``
  slots is in the set of slots taken so far.  ``ring_bfl`` replaces the
  slot set by one int per helix and must choose the same trajectories in
  the same order.
* :func:`reference_slot_check` is ``RingSchedule``'s check as first
  written: one owner per ``(link, time)`` slot, raising on the first
  repeated id or shared slot.  ``RingSchedule`` runs the line's scan-line
  check (``repro.core.schedule._disjoint_segments``, with the helix
  ``source - depart`` mod ``n`` as the line) first and must accept and
  reject exactly the same schedules, with the same error text.
"""

from __future__ import annotations

from repro.topology.ring import RingInstance, RingSchedule, RingTrajectory


def reference_ring_bfl(instance: RingInstance) -> RingSchedule:
    candidates: list[tuple[int, int, int, RingTrajectory]] = []
    for m in instance:
        if not m.feasible:
            continue
        for depart in range(m.release, m.latest_departure + 1):
            traj = RingTrajectory(
                message_id=m.id,
                source=m.source,
                depart=depart,
                span=m.span,
                n=instance.n,
            )
            candidates.append((traj.arrive, m.span, m.id, traj))
    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3].depart))

    occupied: set[tuple[int, int]] = set()
    scheduled: dict[int, RingTrajectory] = {}
    for _, _, mid, traj in candidates:
        if mid in scheduled:
            continue
        slots = list(traj.edges())
        if any(slot in occupied for slot in slots):
            continue
        occupied.update(slots)
        scheduled[mid] = traj
    return RingSchedule(tuple(scheduled.values()))


def reference_slot_check(trajectories) -> None:
    owner: dict[tuple[int, int], int] = {}
    ids: set[int] = set()
    for traj in trajectories:
        if traj.message_id in ids:
            raise ValueError(f"message {traj.message_id} scheduled twice")
        ids.add(traj.message_id)
        for slot in traj.edges():
            if slot in owner:
                raise ValueError(
                    f"messages {owner[slot]} and {traj.message_id} share "
                    f"link {slot[0]} at time {slot[1]}"
                )
            owner[slot] = traj.message_id
