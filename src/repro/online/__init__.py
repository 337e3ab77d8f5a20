"""Online streaming scheduling — messages revealed at release time.

The offline layers solve an :class:`~repro.core.instance.Instance` with
full knowledge.  This package is the *online* regime: the instance is
consumed as a time-ordered arrival stream (:func:`arrival_stream`), every
admit / launch / drop decision is irrevocable once taken, and policies
are measured by empirical competitive ratio against the offline optima
(computed by the facade, ``repro.api.solve(..., regime="online")``).

Three policies:

* ``"bfl"`` — :func:`online_bfl`: incremental scan-line admission.
  Replans a BFL sweep over the revealed-but-unlaunched messages at every
  arrival, honouring the segments already committed; coincides exactly
  with offline BFL on single-release streams (and hence is ½·OPT_BL
  there, Theorem 3.2).
* ``"dbfl"`` — :func:`online_dbfl`: the paper's distributed rule
  (Section 5), driven through the network simulator.
* ``"greedy"`` — :func:`online_greedy`: buffered per-link heuristics
  (EDF / FCFS / least-laxity / nearest-destination).

All three tolerate an active :class:`~repro.network.faults.FaultPlan`
mid-stream and report fault-attributed drops separately from policy
drops (:class:`StreamResult.fault_dropped_ids` vs
``policy_dropped_ids``).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.instance import Instance
from .bfl_online import BflRunner, online_bfl
from .runner import OnlineRunner
from .simulated import (
    GREEDY_POLICIES,
    SimulatedRunner,
    _greedy_policy,
    online_dbfl,
    online_greedy,
)
from .stream import Decision, StreamResult, arrival_stream

__all__ = [
    "Decision",
    "StreamResult",
    "OnlineRunner",
    "ONLINE_POLICIES",
    "GREEDY_POLICIES",
    "arrival_stream",
    "online_bfl",
    "online_dbfl",
    "online_greedy",
    "run_online",
    "start_online",
]

ONLINE_POLICIES = ("bfl", "dbfl", "greedy")


def start_online(instance: Any, policy: str = "bfl", /, **opts: Any) -> OnlineRunner:
    """Start one online policy by name as a resumable run.

    ``instance`` has no messages and fixes the network (``n``, topology,
    buffer capacity); feed the arrivals with
    :meth:`~repro.online.runner.OnlineRunner.feed`.  ``opts`` are the
    policy's keyword options (``faults``, ``backend``, and for the
    simulator policies ``buffer_capacity`` and ``admission``; for
    ``"greedy"`` also its sub-policy ``policy``).  Unknown or invalid
    options raise here, before anything is fed.
    """
    if policy == "bfl":
        return BflRunner(instance, **opts)
    if policy == "dbfl":
        from ..core.dbfl import DBFLPolicy

        return SimulatedRunner("dbfl", instance, DBFLPolicy(), **opts)
    if policy == "greedy":
        name, rule = _greedy_policy(opts.pop("policy", "edf"))
        return SimulatedRunner(f"greedy:{name}", instance, rule, **opts)
    raise ValueError(f"unknown online policy {policy!r}; choose one of {ONLINE_POLICIES}")


def run_online(instance: Instance, policy: str = "bfl", /, **opts: Any) -> StreamResult:
    """Run one online policy by name over a whole instance: the runner
    fed every message as one batch, then closed.

    (The facade, ``repro.api.solve(instance, "online", method)``, wraps
    this and adds the competitive-ratio baseline.)
    """
    runner = start_online(dataclasses.replace(instance, messages=()), policy, **opts)
    runner.feed(instance.messages, 0)
    return runner.close()
