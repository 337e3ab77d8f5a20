"""Baseline schedulers BFL is benchmarked against (experiment E9).

Bufferless (assign each message one scan line or drop it):

* :func:`first_fit` — messages in arrival order, earliest free line;
* :func:`edf_bufferless` — messages in deadline order, earliest free line;
* :func:`min_laxity_first` — messages in slack order, earliest free line;
* :func:`random_assignment` — random order / random line (the floor).

Buffered (local policies for the network simulator):

* :class:`EDFPolicy` — earliest deadline first per link (Liu–Layland);
* :class:`MinLaxityPolicy` — least laxity first (the window protocol of
  Zhao–Stankovic–Ramamritham uses this idea);
* :class:`FCFSPolicy` — oldest packet first;
* :class:`NearestDestPolicy` — BFL's tie-break without the scan-line logic;
* :func:`lui_zaks_feasible` — the closest-deadline-first greedy of
  Lui & Zaks for routing a static set *without* drops.
"""

from .bufferless import (
    edf_bufferless,
    first_fit,
    min_laxity_first,
    random_assignment,
)
from .buffered_greedy import (
    EDFPolicy,
    FCFSPolicy,
    MinLaxityPolicy,
    NearestDestPolicy,
)
from .lui_zaks import lui_zaks_feasible

__all__ = [
    "first_fit",
    "edf_bufferless",
    "min_laxity_first",
    "random_assignment",
    "EDFPolicy",
    "FCFSPolicy",
    "MinLaxityPolicy",
    "NearestDestPolicy",
    "lui_zaks_feasible",
]
