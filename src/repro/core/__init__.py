"""Core model and the paper's algorithms.

The primary public surface:

* :class:`~repro.core.message.Message`, :class:`~repro.core.instance.Instance`
  — the problem model;
* :func:`~repro.core.bfl.bfl` — Algorithm BFL, the centralized bufferless
  2-approximation (Theorem 3.2);
* :func:`~repro.core.dbfl.dbfl` — Algorithm D-BFL, the distributed online
  buffered equivalent (Theorem 5.2);
* :class:`~repro.core.schedule.Schedule` and
  :func:`~repro.core.validate.validate_schedule` — results and their checks.
"""

from .bfl import bfl
from .bfl_fast import bfl_fast
from .geometry import Parallelogram, Segment
from .solve import BidirectionalSchedule
from .instance import Instance, make_instance
from .message import Direction, Message
from .schedule import ConflictError, Schedule
from .trajectory import Trajectory, buffered_trajectory, bufferless_trajectory
from .validate import ScheduleError, schedule_problems, validate_schedule

__all__ = [
    "Message",
    "Direction",
    "Instance",
    "make_instance",
    "Parallelogram",
    "Segment",
    "Trajectory",
    "bufferless_trajectory",
    "buffered_trajectory",
    "Schedule",
    "ConflictError",
    "ScheduleError",
    "schedule_problems",
    "validate_schedule",
    "bfl",
    "bfl_fast",
    "BidirectionalSchedule",
]

