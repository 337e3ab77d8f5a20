"""Whole-instance scheduling: both directions at once.

The paper reduces the two-directional problem to two independent
one-directional ones (full-duplex links, dual-ported nodes: superposing
optimal solutions of the halves is optimal for the whole).
:class:`BidirectionalSchedule` holds the stitched result; the reduction
itself lives in :func:`repro.api.solve_bidirectional`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .instance import Instance
from .schedule import Schedule

__all__ = ["BidirectionalSchedule"]

# A scheduler takes a purely left-to-right instance and returns a schedule.
Scheduler = Callable[[Instance], Schedule]


@dataclass(frozen=True)
class BidirectionalSchedule:
    """Results for the two independent directions of one instance.

    ``rl`` trajectories are expressed in *mirrored* coordinates (the RL
    half is solved as an LR problem on the reflected line); use
    :meth:`rl_trajectory_nodes` for original-coordinate paths.
    """

    instance: Instance
    lr: Schedule
    rl: Schedule  # in mirrored coordinates

    @property
    def throughput(self) -> int:
        return self.lr.throughput + self.rl.throughput

    @property
    def delivered_ids(self) -> frozenset[int]:
        return self.lr.delivered_ids | self.rl.delivered_ids

    def rl_trajectory_nodes(self, message_id: int) -> list[tuple[int, int]]:
        """(node, time) hops of an RL message in original coordinates."""
        traj = self.rl[message_id]
        n = self.instance.n
        out = []
        for j, t in enumerate(traj.crossings):
            # mirrored node v corresponds to original node n - 1 - v; the
            # hop v -> v+1 mirrors to (n-1-v) -> (n-2-v), i.e. leftwards.
            out.append((n - 1 - (traj.source + j), t))
        return out

