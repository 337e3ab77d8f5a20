"""The discrete-time network simulator (any registered topology).

One step of the synchronous network, at time ``t``:

1. **Arrivals** — packets that crossed a link during ``[t-1, t]`` join the
   downstream node's buffer (or are delivered if that node is their
   destination).  With a finite ``buffer_capacity``, a packet arriving at a
   full intermediate buffer triggers the admission contest of
   :mod:`repro.buffers` — under the default ``"drop-new"`` policy the
   arrival itself is dropped (``drop_reason="buffer_full"``); the
   eviction policies may instead displace a buffered transit packet.
2. **Control delivery** — control values emitted at ``t-1`` reach the next
   node (policy hook).
3. **Releases** — messages with ``release == t`` materialise at their
   sources.
4. **Drops** — packets that can no longer meet their deadline even moving
   at full speed (``t > Packet.last``) are discarded (the paper's model
   drops a message as soon as it becomes hopeless).
5. **Selection** — every node independently asks the policy for at most one
   packet per outgoing link to forward; chosen packets are in flight until
   step 1 of time ``t + 1``.  A key-ordered policy (one that keeps the
   base :meth:`~repro.network.policy.Policy.select`, ``select_at`` and
   ``emit_control``) forwards the minimum of the buffer by its ``key``;
   on a fault-free line or ring the loop does that directly, skipping
   empty nodes.  Every other policy is asked through
   :meth:`~repro.network.policy.Policy.select_at` at every node, handed
   the live buffer; the base builds the
   :class:`~repro.network.policy.NodeView` there and calls ``select``,
   and D-BFL decides on the buffer without one.

The step loop itself is topology-free: node/link structure and routing
come from the instance's :class:`~repro.topology.Topology` (line, ring or
mesh), so one loop — and one :class:`~repro.network.faults.FaultPlan` /
``drop_reason`` / ``drop_events`` machinery — serves every shape.  On
lines the simulator handles left-to-right traffic; run a mirrored
instance for the other direction (:func:`simulate` does not do this
implicitly to keep schedules directly comparable with the LR-only
algorithms).  On rings it is the clockwise direction; counter-clockwise
is again a mirrored run.

Uniform-route topologies (every packet leaving a node uses the same link:
line, ring) get a precomputed successor plan; the mesh asks
``Topology.next_hop`` per packet and runs one selection per outgoing
link, preserving "one packet per directed link per step".

When the network is completely idle (no packets buffered or in flight, no
control value in transit) and the policy declares ``idle_skippable``, the
run loop jumps directly to the next release time instead of stepping
through the gap — sparse workloads with long quiet periods simulate in
time proportional to the activity, not the horizon.

The python loop is resumable: :meth:`LinearNetworkSimulator.start`
builds the run state, :meth:`~LinearNetworkSimulator.add` reveals more
messages to a started run, :meth:`~LinearNetworkSimulator.advance` steps
it up to a given time and :meth:`~LinearNetworkSimulator.finish`
assembles the result.  The online stream runners
(:mod:`repro.online.simulated`) drive it one arrival batch at a time;
:meth:`~LinearNetworkSimulator.run` is the one-shot form.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Any, Hashable

from .. import obs
from ..backend import resolve_backend
from ..buffers import DEFAULT_ADMISSION, admission_victim, check_admission, check_capacity
from .faults import FaultPlan
from .packet import Packet, PacketStatus
from .policy import Policy
from .stats import SimulationStats

__all__ = ["LinearNetworkSimulator", "SimulationResult", "simulate"]


@dataclass(frozen=True)
class SimulationResult:
    """Everything a run produced.

    ``schedule`` is the topology's schedule type (``Schedule`` on lines,
    ``RingSchedule`` on rings, ``MeshSchedule`` on meshes).
    ``drop_events`` attributes every drop: ``(message_id, time, reason)``
    with reason ``"deadline"`` (hopeless / past the horizon),
    ``"buffer_full"`` (finite buffer full — rejected or evicted by the
    admission contest) or ``"fault"`` (lost to the fault plan), in drop
    order.  ``launch_events`` lists ``(message_id, time)`` of every
    packet's first link crossing — delivered or later dropped — ordered
    by ``(time, message_id)``.
    """

    schedule: Any
    delivered_ids: frozenset[int]
    dropped_ids: frozenset[int]
    stats: SimulationStats
    drop_events: tuple[tuple[int, int, str], ...] = ()
    launch_events: tuple[tuple[int, int], ...] = ()

    @property
    def throughput(self) -> int:
        return len(self.delivered_ids)


class LinearNetworkSimulator:
    """Synchronous, dual-ported, full-duplex network (one direction).

    Parameters
    ----------
    instance:
        The workload.  Its ``topology`` attribute picks the network shape
        (``Instance`` → line, ``RingInstance`` → ring, ``MeshInstance`` →
        mesh); line instances must be left-to-right only (infeasible
        messages count as dropped at their release time).
    policy:
        The forwarding policy (see :mod:`repro.network.policy`).
    buffer_capacity:
        Max packets buffered per *intermediate* node; ``None`` defers to
        the instance's own ``buffer_capacity`` (itself ``None`` — the
        paper's unbounded setting — unless the workload sets it).  Source
        buffers are always unbounded — a node can hold its own outgoing
        traffic — but source-resident packets do count toward the
        occupancy an arriving transit packet sees.
    admission:
        What happens when a packet arrives at a full buffer — one of
        :data:`repro.buffers.ADMISSION_POLICIES` (default
        ``"drop-new"``, the historical behaviour).
    faults:
        Optional :class:`~repro.network.faults.FaultPlan`.  During a link
        failure window the link carries nothing — no packet is selected at
        its tail node and no control value crosses; during a node stall
        the node cannot forward packets but control still flows; with a
        positive ``drop_rate`` each link crossing independently loses the
        packet with that probability (drawn from the plan's own seeded
        generator, so runs replay exactly).  Fault runs never use the
        idle fast-forward, keeping step accounting uniform.
    topology:
        Override the topology (a name or :class:`~repro.topology.Topology`
        object); default reads it off the instance.
    backend:
        Execution backend for the step loop: ``"python"`` (the reference
        loop below), ``"numpy"`` (the vectorized loop in
        :mod:`repro.network.simulator_vec`, bit-identical results), or
        ``None`` to resolve from the ambient backend
        (:func:`repro.backend.resolve_backend` — context manager, then
        ``REPRO_BACKEND``, then the default).  Runs outside the
        vectorized envelope fall back to python automatically.
    """

    def __init__(
        self,
        instance: Any,
        policy: Policy,
        *,
        buffer_capacity: int | None = None,
        admission: str = DEFAULT_ADMISSION,
        faults: FaultPlan | None = None,
        topology: Any = None,
        backend: str | None = None,
    ) -> None:
        from .. import topology as topology_pkg

        if topology is None:
            topo = topology_pkg.topology_of(instance)
        elif isinstance(topology, str):
            topo = topology_pkg.get_topology(topology)
        else:
            topo = topology
        topo.validate_sim_instance(instance)
        if buffer_capacity is None:
            buffer_capacity = getattr(instance, "buffer_capacity", None)
        check_capacity(buffer_capacity)
        check_admission(admission)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise TypeError(f"faults must be a FaultPlan or None, got {faults!r}")
        self.instance = instance
        self.topology = topo
        self.policy = policy
        self.buffer_capacity = buffer_capacity
        self.admission = admission
        self.faults = faults if faults is not None and faults.active else None
        self.backend = backend

    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        if resolve_backend(self.backend) == "numpy":
            from . import simulator_vec

            result = simulator_vec.try_run_vec(self)
            if result is not None:
                return result
        self.start()
        self.advance()
        return self.finish()

    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Build the run state for the instance's messages (time 0)."""
        tr = obs.tracer()
        t0 = time.perf_counter() if tr.enabled else 0.0
        inst = self.instance
        topo = self.topology
        nodes = list(topo.nodes(inst))
        num_nodes = len(nodes)
        self.policy.reset(num_nodes)
        self._nodes = nodes
        self._stats = SimulationStats()
        self._packets: list[Packet] = []
        self._releases: dict[int, list[Packet]] = {}
        self._added: list[Any] = []  # messages revealed after start
        self._live = 0
        self._horizon = 0
        self._t = 0
        self._add_packets(inst)

        # Buffers are indexed by node id: a plain list when node ids are
        # the contiguous ints ``0..n-1`` (line, ring — list indexing is the
        # hot path), else a dict (mesh's ``(row, col)`` ids).  Both support
        # ``buffers[v]``; ``buffer_values`` stays live across rebinds (it
        # is the list itself, or a dynamic dict view).
        int_nodes = nodes == list(range(num_nodes))
        self._buffers: Any = (
            [[] for _ in nodes] if int_nodes else {v: [] for v in nodes}
        )
        self._buffer_values = self._buffers if int_nodes else self._buffers.values()
        # Per-node hop and peak-occupancy counts for contiguous int node
        # ids, flushed into ``stats`` by ``finish`` (the faulted and mesh
        # branches write ``stats`` directly, so the flush merges).
        self._busy: list[int] | None = [0] * num_nodes if int_nodes else None
        self._peaks: list[int] | None = [0] * num_nodes if int_nodes else None
        self._in_flight: list[Packet] = []
        self._control: list[tuple[Any, Hashable]] = []  # (dest node, value)
        self._delivered: list[Packet] = []
        self._dropped: list[Packet] = []
        self._launched: list[Packet] = []
        faults = self.faults
        self._drop_rng = (
            faults.drop_rng() if faults is not None and faults.drop_rate > 0 else None
        )

        # Per-node selection plan.  Uniform-route topologies (line, ring)
        # forward every packet over one precomputed link; the mesh routes
        # per packet and selects once per outgoing link.
        if topo.uniform_route:
            self._sel_plan = [
                (v, link, nxt, topo.control_next(inst, v))
                for v, (link, nxt) in topo.successors(inst).items()
            ]
        else:
            self._sel_nodes = [
                (v, topo.control_next(inst, v)) for v in topo.out_nodes(inst)
            ]
        self._busy_s = time.perf_counter() - t0 if tr.enabled else 0.0

    @property
    def time(self) -> int:
        """The next step a started run will process (its ``stats.steps``)."""
        return self._t

    def add(self, batch: Any) -> None:
        """Reveal ``batch`` (an instance of the same shape) to a started run.

        Its messages join the release schedule and extend the horizon;
        none may be released before the run's current time.
        """
        self.topology.validate_sim_instance(batch)
        for m in batch:
            if m.release < self._t:
                raise ValueError(
                    f"message {m.id} released at {m.release}, before the "
                    f"simulation time {self._t}"
                )
        self._added.extend(batch)
        self._add_packets(batch)

    def _add_packets(self, messages: Any) -> None:
        releases = self._releases
        for m in messages:
            p = Packet(m)
            self._packets.append(p)
            releases.setdefault(m.release, []).append(p)
            self._live += 1
        self._horizon = max(self._horizon, self.topology.sim_horizon(messages))

    def advance(self, until: int | None = None) -> tuple[list[Packet], list[Packet]]:
        """Step the network through every time ``t < until`` (to the end
        when ``None``); returns the packets launched (first link crossing)
        and dropped during the call, in event order.

        An idle fast-forward whose target lies past ``until`` is deferred
        to the next call — messages revealed by then may move the target.
        """
        tr = obs.tracer()
        t0 = time.perf_counter() if tr.enabled else 0.0
        # Hoist the run state into locals (written back on exit): the
        # per-step attribute lookups otherwise dominate the hot loop.
        inst = self.instance
        topo = self.topology
        policy = self.policy
        nodes = self._nodes
        stats = self._stats
        steps0 = stats.steps
        releases = self._releases
        buffers = self._buffers
        buffer_values = self._buffer_values
        busy = self._busy
        peaks = self._peaks
        in_flight = self._in_flight
        control_in_flight = self._control
        delivered = self._delivered
        dropped = self._dropped
        launched = self._launched
        launched0, dropped0 = len(launched), len(dropped)
        released_n = stats.released
        delivered_n = stats.delivered
        dropped_n = stats.dropped
        total_latency = stats.total_latency
        overflow_n = stats.buffer_overflow_drops
        fault_n = stats.fault_drops
        total_wait = 0
        live = self._live
        t = self._t
        faults = self.faults
        drop_rng = self._drop_rng
        uniform = self.topology.uniform_route
        if uniform:
            sel_plan = self._sel_plan
        else:
            sel_nodes = self._sel_nodes
        buffer_capacity = self.buffer_capacity
        admission = self.admission
        select_at = policy.select_at
        policy_emit = policy.emit_control
        # A key-ordered policy (base ``select``, ``select_at`` and
        # ``emit_control``) is described by its key alone: it forwards the
        # minimum by key, and a node with an empty buffer forwards and
        # emits nothing, so the fault-free loop below skips such nodes.
        cls = type(policy)
        key = (
            policy.key
            if cls.select is Policy.select
            and cls.select_at is Policy.select_at
            and cls.emit_control is Policy.emit_control
            else None
        )

        stop = self._horizon if until is None else min(self._horizon, until)
        while t < stop and (live > 0 or in_flight):
            # Fast-forward: when the network is completely quiet (nothing in
            # flight, nothing buffered, no control traffic) every step until
            # the next release is a no-op, so jump straight there.  Gated on
            # the policy: D-BFL-style policies drive the control channel each
            # step and must be polled even when idle.
            if (
                faults is None
                and not in_flight
                and not control_in_flight
                and releases
                and policy.idle_skippable
                and t not in releases
                and all(not b for b in buffer_values)
            ):
                nxt = min(releases)
                if until is not None and nxt > until:
                    break
                t = nxt
                stats.steps = t
                stats.idle_fast_forwards += 1
                continue

            # 1. arrivals (the packet's node was advanced at selection)
            for p in in_flight:
                if drop_rng is not None and drop_rng.random() < faults.drop_rate:
                    # the crossing happened but the packet was lost on it
                    p.mark_dropped(t, "fault")
                    dropped.append(p)
                    dropped_n += 1
                    fault_n += 1
                    policy.on_drop(p, t)
                    live -= 1
                elif p.status is PacketStatus.DELIVERED:
                    delivered.append(p)
                    delivered_n += 1
                    total_latency += (p.crossings[-1] + 1) - p.message.release
                    policy.on_deliver(p, t)
                    live -= 1
                elif (
                    buffer_capacity is not None
                    and len(buffers[p.node]) >= buffer_capacity
                ):
                    victim = admission_victim(
                        buffers[p.node], p, admission, policy.eviction_key
                    )
                    if victim is not p:
                        buffers[p.node].remove(victim)
                        buffers[p.node].append(p)
                    victim.mark_dropped(t, "buffer_full")
                    dropped.append(victim)
                    dropped_n += 1
                    overflow_n += 1
                    policy.on_drop(victim, t)
                    live -= 1
                else:
                    buffers[p.node].append(p)
            in_flight = []

            # 2. control delivery
            for dest_node, value in control_in_flight:
                policy.receive_control(dest_node, t, value)
            control_in_flight = []

            # 3. releases
            for p in releases.pop(t, ()):
                p.status = PacketStatus.IN_NETWORK
                released_n += 1
                buffers[p.message.source].append(p)
                policy.on_release(p, t)

            # 4. drops (hopeless packets: past their latest departure);
            # a buffer is rebuilt only when it holds one
            for v in nodes:
                buf = buffers[v]
                if not buf:
                    continue
                hopeless = False
                for p in buf:
                    if t > p.last:
                        hopeless = True
                        break
                if hopeless:
                    keep: list[Packet] = []
                    for p in buf:
                        if t > p.last:
                            p.mark_dropped(t)
                            dropped.append(p)
                            dropped_n += 1
                            policy.on_drop(p, t)
                            live -= 1
                        else:
                            keep.append(p)
                    buffers[v] = buf = keep
                if peaks is not None:
                    if len(buf) > peaks[v]:
                        peaks[v] = len(buf)
                else:
                    stats.record_buffer(v, len(buf))

            # 5. selection + control emission
            if uniform:
                if faults is None:
                    # fault-free fast path: no per-node fault checks, the
                    # forward inlined
                    for v, link, nxt, ctrl_next in sel_plan:
                        buf = buffers[v]
                        if key is not None:
                            if not buf:
                                continue
                            chosen = min(buf, key=key)
                        else:
                            chosen = select_at(v, t, buf)
                        if chosen is not None:
                            if chosen not in buf:
                                raise RuntimeError(
                                    "policy returned a packet not buffered "
                                    f"at node {v}"
                                )
                            buf.remove(chosen)
                            crossings = chosen.crossings
                            if crossings:
                                total_wait += t - (crossings[-1] + 1)
                            else:
                                launched.append(chosen)
                            chosen.record_hop(t, nxt)
                            if busy is not None:
                                busy[v] += 1
                            else:
                                stats.record_hop(v)
                            in_flight.append(chosen)
                        if key is None:
                            value = policy_emit(v, t)
                            if value is not None and ctrl_next is not None:
                                control_in_flight.append((ctrl_next, value))
                else:
                    for v, link, nxt, ctrl_next in sel_plan:
                        if faults.link_down(link, t):
                            # a dead link carries neither packets nor control
                            stats.link_down_blocks += 1
                            continue
                        if faults.node_stalled(v, t):
                            stats.stall_blocks += 1
                            chosen = None
                        else:
                            chosen = select_at(v, t, buffers[v])
                        if chosen is not None:
                            self._forward(
                                chosen, v, nxt, t, buffers, in_flight, launched, stats
                            )
                        value = policy_emit(v, t)
                        if value is not None and ctrl_next is not None:
                            control_in_flight.append((ctrl_next, value))
            else:
                for v, ctrl_next in sel_nodes:
                    buf = buffers[v]
                    if buf:
                        if faults is not None and faults.node_stalled(v, t):
                            stats.stall_blocks += 1
                        else:
                            # one independent selection per outgoing link
                            groups: dict[Any, tuple[Any, list[Packet]]] = {}
                            for p in buf:
                                link, nxt = topo.next_hop(inst, v, p.message)
                                if link in groups:
                                    groups[link][1].append(p)
                                else:
                                    groups[link] = (nxt, [p])
                            for link, (nxt, cands) in groups.items():
                                if faults is not None and faults.link_down(link, t):
                                    stats.link_down_blocks += 1
                                    continue
                                chosen = select_at(v, t, cands)
                                if chosen is not None:
                                    self._forward(
                                        chosen,
                                        v,
                                        nxt,
                                        t,
                                        buffers,
                                        in_flight,
                                        launched,
                                        stats,
                                    )
                    value = policy.emit_control(v, t)
                    if value is not None and ctrl_next is not None:
                        control_in_flight.append((ctrl_next, value))

            t += 1
            stats.steps = t

        self._t = t
        self._live = live
        self._in_flight = in_flight
        self._control = control_in_flight
        stats.released = released_n
        stats.delivered = delivered_n
        stats.dropped = dropped_n
        stats.total_latency = total_latency
        stats.total_wait_steps += total_wait
        stats.buffer_overflow_drops = overflow_n
        stats.fault_drops = fault_n
        if tr.enabled:
            tr.count("sim.steps", stats.steps - steps0)
            self._busy_s += time.perf_counter() - t0
        return launched[launched0:], dropped[dropped0:]

    def finish(self) -> SimulationResult:
        """Close the run (call after a final ``advance()``): anything still
        undelivered is dropped, and the result is assembled over every
        message the run saw."""
        tr = obs.tracer()
        t0 = time.perf_counter() if tr.enabled else 0.0
        topo = self.topology
        stats = self._stats
        inst = self.instance
        if self._added:
            inst = dataclasses.replace(
                inst, messages=tuple(inst.messages) + tuple(self._added)
            )
        delivered = self._delivered
        dropped = self._dropped
        # anything still pending/buffered after the horizon is undeliverable
        for p in self._packets:
            if p.status in (PacketStatus.PENDING, PacketStatus.IN_NETWORK):
                p.mark_dropped(self._t)
                dropped.append(p)
                stats.dropped += 1

        if self._busy is not None:
            lbs = stats.link_busy_steps
            for v, c in enumerate(self._busy):
                if c:
                    lbs[v] = lbs.get(v, 0) + c
        if self._peaks is not None:
            pb = stats.peak_buffer
            for v, occ in enumerate(self._peaks):
                if occ > pb.get(v, 0):
                    pb[v] = occ

        schedule = topo.sim_schedule(
            inst, tuple(topo.sim_trajectory(inst, p) for p in delivered)
        )
        launches = sorted(
            (p.crossings[0], p.id) for p in self._launched
        )
        if tr.enabled:
            tr.count("sim.runs")
            tr.count("sim.idle_fast_forwards", stats.idle_fast_forwards)
            tr.count("sim.delivered", stats.delivered)
            tr.count("sim.expired", stats.dropped)
            if self.faults is not None:
                tr.count("sim.faulted_runs")
                tr.count("sim.fault_drops", stats.fault_drops)
                tr.count("sim.link_down_blocks", stats.link_down_blocks)
                tr.count("sim.stall_blocks", stats.stall_blocks)
            # the span's length is the run's compute time across every
            # start/advance/finish call, ending now
            tr.record_span(
                "sim.run",
                t0 - self._busy_s,
                n=len(self._nodes),
                packets=len(self._packets),
                policy=type(self.policy).__name__,
                steps=stats.steps,
                topology=topo.name,
            )
        return SimulationResult(
            schedule=schedule,
            delivered_ids=frozenset(p.id for p in delivered),
            dropped_ids=frozenset(p.id for p in dropped),
            stats=stats,
            drop_events=tuple((p.id, p.dropped_at, p.drop_reason) for p in dropped),
            launch_events=tuple((mid, at) for at, mid in launches),
        )

    # ------------------------------------------------------------------ #

    @staticmethod
    def _forward(
        chosen: Packet,
        node: Any,
        next_node: Any,
        t: int,
        buffers: Any,  # list (int nodes) or dict, indexed by node id
        in_flight: list[Packet],
        launched: list[Packet],
        stats: SimulationStats,
    ) -> None:
        buf = buffers[node]
        if chosen not in buf:
            raise RuntimeError(f"policy returned a packet not buffered at node {node}")
        buf.remove(chosen)
        if chosen.crossings:
            stats.total_wait_steps += t - (chosen.crossings[-1] + 1)
        else:
            launched.append(chosen)
        chosen.record_hop(t, next_node)
        stats.record_hop(node)
        in_flight.append(chosen)


def simulate(
    instance: Any,
    policy: Policy,
    *,
    buffer_capacity: int | None = None,
    admission: str = DEFAULT_ADMISSION,
    faults: FaultPlan | None = None,
    topology: Any = None,
    backend: str | None = None,
) -> SimulationResult:
    """Convenience wrapper: build and run a simulator in one call."""
    return LinearNetworkSimulator(
        instance,
        policy,
        buffer_capacity=buffer_capacity,
        admission=admission,
        faults=faults,
        topology=topology,
        backend=backend,
    ).run()
