"""The scan-line kernel: Algorithm BFL without per-line rescans.

Produces *bit-identical* output to :func:`repro.core.bfl.bfl` with the
default (paper) tie-break — trajectory for trajectory, in the same order —
while replacing the reference implementation's per-line O(k) rescan of
every pending message with event-driven bookkeeping:

* messages are bucketed by ``alpha_max`` once (one O(k log k) sort) and
  *enter* the sweep exactly when it reaches their first relevant line;
* an **active set** — the pending messages whose window contains the
  current line — is kept sorted by the greedy key ``(dest, -source, id)``,
  so each line's earliest-right-endpoint greedy walks only the segments
  actually on that line;
* a max-heap on ``alpha_min`` *expires* messages the moment the sweep
  passes below their window, and makes the next-line computation O(1)
  amortised: while anything stays active the next line is ``α - 1``,
  otherwise the sweep jumps straight to the next entry bucket.

Total cost is O(k log k) for the sorts and heap traffic plus O(1) per
*relevant* (line, segment) pair — the sum the greedy must inspect anyway —
independent of how many pending-but-irrelevant messages exist.  The
readable ``bfl`` remains the validated reference; the equivalence is
enforced property-by-property in ``tests/test_bfl_fast.py``.
"""

from __future__ import annotations

import heapq
import time
from bisect import insort

from .. import obs
from .instance import Instance
from .message import Direction
from .schedule import Schedule
from .trajectory import Trajectory

__all__ = ["bfl_fast", "assign_lines"]


def kernel_columns(
    instance: Instance, *, clip_slack: bool = False
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The ``(src, dst, mid, amin, amax)`` columns the scan-line consumes.

    Infeasible messages are dropped and slacks optionally clipped, as
    :func:`repro.core.bfl.bfl` preprocesses its input.
    """
    if clip_slack:
        work = instance.drop_infeasible().clipped_slack().messages
    else:
        work = [m for m in instance.messages if m.feasible]
    k = len(work)
    src = [0] * k
    dst = [0] * k
    mid = [0] * k
    amin = [0] * k
    amax = [0] * k
    for j, m in enumerate(work):
        src[j] = m.source
        dst[j] = m.dest
        mid[j] = m.id
        amin[j] = m.alpha_min
        amax[j] = m.alpha_max
    return src, dst, mid, amin, amax


def assign_lines(
    src: list[int],
    dst: list[int],
    mid: list[int],
    amin: list[int],
    amax: list[int],
) -> tuple[list[tuple[int, int]], int, int]:
    """The event-driven assignment core: columns in, launches out.

    Returns ``(assignment, lines_swept, segments_scanned)`` where
    ``assignment`` is the ordered list of ``(j, alpha)`` launch decisions
    — index into the columns plus the scan line boarded — in the exact
    order the sweep commits them (line descending, then the per-line
    greedy's walk order).  This is the part of :func:`bfl_fast` the
    vectorized backend replaces; both backends share the
    schedule-construction step that follows it.
    """
    k = len(src)
    assignment: list[tuple[int, int]] = []
    if k == 0:
        return assignment, 0, 0

    # Entry buckets: messages join the sweep at their alpha_max, largest
    # (earliest in time) first.
    entry = sorted(range(k), key=lambda j: -amax[j])
    ei = 0

    # Active set, sorted by the paper's greedy key; `dead` marks members
    # that were scheduled or expired and await physical removal.
    active: list[tuple[int, int, int, int]] = []  # (dest, -source, id, j)
    live_active = 0
    dead = [False] * k
    expiry: list[tuple[int, int]] = []  # max-heap on alpha_min: (-alpha_min, j)

    lines_swept = 0
    segments_scanned = 0
    alpha = amax[entry[0]]
    while True:
        # Admit every message whose window has begun at this line.
        while ei < k and amax[entry[ei]] >= alpha:
            j = entry[ei]
            ei += 1
            insort(active, (dst[j], -src[j], mid[j], j))
            heapq.heappush(expiry, (-amin[j], j))
            live_active += 1

        # Earliest-right-endpoint greedy over this line's segments.  The
        # active list is already in key order; `pos` is the right end of
        # the last chosen segment (rights are non-decreasing along the
        # walk, so "fits" is exactly `left >= pos`).  Chosen and dead
        # entries drop out of the list as it is rebuilt.
        lines_swept += 1
        segments_scanned += len(active)
        pos = None
        survivors = []
        for item in active:
            j = item[3]
            if dead[j]:
                continue
            if pos is None or src[j] >= pos:
                assignment.append((j, alpha))
                dead[j] = True
                live_active -= 1
                pos = dst[j]
            else:
                survivors.append(item)
        active = survivors

        # Expire windows the sweep is about to pass below.
        while expiry and -expiry[0][0] > alpha - 1:
            j = heapq.heappop(expiry)[1]
            if not dead[j]:
                dead[j] = True
                live_active -= 1

        # Next line: consecutive while anything stays relevant, otherwise
        # jump to the next entry bucket; done when neither exists.
        if live_active > 0:
            alpha -= 1
        elif ei < k:
            alpha = amax[entry[ei]]
        else:
            break
    return assignment, lines_swept, segments_scanned


def bfl_fast(instance: Instance, *, clip_slack: bool = False) -> Schedule:
    """Scan-line-kernel Algorithm BFL (paper tie-break only).

    See :func:`repro.core.bfl.bfl` for parameter semantics; this fast path
    supports only the default nearest-destination rule and returns the
    same schedule, trajectory for trajectory.
    """
    for m in instance:
        if m.direction != Direction.LEFT_TO_RIGHT:
            raise ValueError(
                f"message {m.id} travels right-to-left; split directions first"
            )
    tr = obs.tracer()
    t0 = time.perf_counter() if tr.enabled else 0.0
    src, dst, mid, amin, amax = kernel_columns(instance, clip_slack=clip_slack)
    if not src:
        if tr.enabled:
            tr.count("bfl.launches")
            tr.record_span("bfl.fast", t0, n=instance.n, k=0, delivered=0)
        return Schedule()

    assignment, lines_swept, segments_scanned = assign_lines(
        src, dst, mid, amin, amax
    )
    # Each launch is the straight line of its columns' message on line
    # `alpha`: departure src - alpha, one hop per step to dst.
    trajectories = []
    for j, alpha in assignment:
        if not amin[j] <= alpha <= amax[j]:
            raise ValueError(
                f"scan line {alpha} outside message {mid[j]}'s window "
                f"[{amin[j]}, {amax[j]}]"
            )
        t0 = src[j] - alpha
        trajectories.append(
            Trajectory(mid[j], src[j], tuple(range(t0, t0 + dst[j] - src[j])))
        )

    if tr.enabled:
        tr.count("bfl.launches")
        tr.count("bfl.lines_swept", lines_swept)
        tr.count("bfl.segments_scanned", segments_scanned)
        tr.count("bfl.delivered", len(trajectories))
        tr.record_span(
            "bfl.fast", t0, n=instance.n, k=len(src), delivered=len(trajectories)
        )
    return Schedule(tuple(trajectories))
