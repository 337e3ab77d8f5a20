"""Vectorized (numpy) step loop for the network simulator.

This is the ``backend="numpy"`` twin of
:meth:`repro.network.simulator.LinearNetworkSimulator.run`.  It replays
the python loop's five phases — arrivals, control, releases, hopeless
drops, selection — over flat arrays instead of per-node python lists, and
is **bit-identical** to the reference: same ``SimulationResult`` down to
trajectory order, ``drop_events`` order, fault counters and per-node
``peak_buffer`` aggregates.  The parity suite
``tests/test_backends.py::TestSimulatorParity`` enforces this across line
and ring, with and without a :class:`~repro.network.faults.FaultPlan`.

How the per-node policy ``min()`` becomes an array op
-----------------------------------------------------

The four shipped buffered policies (EDF, FCFS, min-laxity,
nearest-destination) all pick ``min(candidates, key=...)`` where the key
is a lexicographic tuple ending in the unique packet id.  Each such key
collapses into one integer priority per packet:

* EDF ``(deadline, id)`` and FCFS ``(release, id)`` are static;
* nearest-destination ``(dest, -source, id)`` is static;
* min-laxity ``(laxity(t), deadline, id)`` looks time-varying, but within
  one step ``t`` shifts every candidate's laxity equally, so the order is
  that of ``(deadline - remaining_hops, deadline, id)`` — constant
  between hops and recomputed only when a packet re-enters a buffer.

Buffered packets live in arrays sorted by ``node * PRIOM + priority``;
each step's selection is then just "first element of every node run".
A global entry-sequence number per buffered stint reproduces the
reference's buffer *insertion* order, which fixes the order of same-step
deadline drops.

Bounded buffers are inside the envelope: every admission policy of
:mod:`repro.buffers` (drop-new, drop-farthest-deadline,
evict-lowest-priority) is reproduced bit-identically, the eviction
contests reusing the same integer priority encodings.  Everything outside
the envelope — D-BFL and other control-channel policies, custom
``Policy`` subclasses, the mesh topology, packets whose priority keys
would overflow ``int64`` — falls back to the pure-python loop via :func:`repro.backend.fall_back`, which counts the event under
``backend.fallbacks`` so a benchmark can tell a fast run from a silently
degraded one.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

import numpy as np

from .. import obs
from ..backend import fall_back
from .stats import SimulationStats

if TYPE_CHECKING:  # pragma: no cover
    from .simulator import LinearNetworkSimulator, SimulationResult

__all__ = ["try_run_vec", "vec_supported"]

_I64_MAX = 2**62  # headroom under int64 for composite sort keys

# drop_events reason codes used internally (arrays beat string lists)
_FAULT, _OVERFLOW, _DEADLINE = 0, 1, 2
_REASONS = ("fault", "buffer_full", "deadline")


def _policy_classes() -> dict[type, str]:
    # imported lazily: baselines imports simulator, which imports us
    from ..baselines.buffered_greedy import (
        EDFPolicy,
        FCFSPolicy,
        MinLaxityPolicy,
        NearestDestPolicy,
    )

    return {
        EDFPolicy: "edf",
        FCFSPolicy: "fcfs",
        MinLaxityPolicy: "laxity",
        NearestDestPolicy: "nearest",
    }


def vec_supported(sim: "LinearNetworkSimulator") -> bool:
    """Whether the run is inside the vectorized envelope (cheap checks)."""
    return (
        sim.topology.name in ("line", "ring")
        and type(sim.policy) in _policy_classes()
    )


def try_run_vec(sim: "LinearNetworkSimulator") -> "SimulationResult | None":
    """Run ``sim`` vectorized, or return ``None`` after counting a fallback."""
    if not vec_supported(sim):
        fall_back("simulator")
        return None
    try:
        return _run_vec(sim)
    except _Unvectorizable:
        fall_back("simulator")
        return None


class _PacketShim:
    """Duck-typed stand-in for a delivered :class:`Packet`.

    ``Topology.sim_trajectory`` only reads ``.message`` and
    ``.crossings``; handing it this shim keeps trajectory construction
    inside the topology layer (the vectorized loop never materialises
    real per-packet objects).
    """

    __slots__ = ("message", "crossings")


class _Unvectorizable(Exception):
    """Raised when a late check (key overflow) forces the python path."""


def _priorities(
    kind: str,
    n: int,
    mid: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    rel: np.ndarray,
    dl: np.ndarray,
    span: np.ndarray,
):
    """``(static_prio, prio_of, prio_bound)`` for one policy kind.

    ``static_prio`` is a full-length priority array for the three static
    policies (``None`` for min-laxity); ``prio_of(sel)`` computes the
    priorities of the packet indices ``sel`` from live state and is what
    insertions use; ``prio_bound`` is an exclusive upper bound used for
    the composite-key overflow check.
    """
    idn = mid - int(mid.min()) if mid.size else mid
    idm = int(idn.max()) + 1 if idn.size else 1
    dlb = int(dl.max()) + 1 if dl.size else 1
    relb = int(rel.max()) + 1 if rel.size else 1

    if kind == "edf":
        prio = dl * idm + idn
        return prio, (lambda s, hops: prio[s]), dlb * idm
    if kind == "fcfs":
        prio = rel * idm + idn
        return prio, (lambda s, hops: prio[s]), relb * idm
    if kind == "nearest":
        # (dest, -source, id): larger source wins ties, so invert it
        prio = (dst * (n + 1) + (n - src)) * idm + idn
        return prio, (lambda s, hops: prio[s]), (n * (n + 1) + n + 1) * idm
    if kind == "laxity":
        # (laxity + t, deadline, id) == (deadline - remaining, deadline, id)
        def prio_of(s: np.ndarray, hops: np.ndarray) -> np.ndarray:
            a = dl[s] - span[s] + hops[s]
            return (a * dlb + dl[s]) * idm + idn[s]

        return None, prio_of, dlb * dlb * idm
    raise ValueError(f"unknown policy kind {kind!r}")  # pragma: no cover


def _merge_sorted(
    act: tuple[np.ndarray, ...], ins: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, ...]:
    """Merge already-sorted parallel arrays ``ins`` into sorted ``act``.

    The first array of each tuple is the sort key (strictly increasing on
    both sides, globally unique).
    """
    at = np.searchsorted(act[0], ins[0])
    size = act[0].size + ins[0].size
    epos = at + np.arange(ins[0].size)
    keepm = np.ones(size, dtype=bool)
    keepm[epos] = False
    out = []
    for a, b in zip(act, ins):
        merged = np.empty(size, dtype=a.dtype)
        merged[epos] = b
        merged[keepm] = a
        out.append(merged)
    return tuple(out)


def _run_vec(sim: "LinearNetworkSimulator") -> "SimulationResult":
    from .simulator import SimulationResult

    tr = obs.tracer()
    t0 = time.perf_counter() if tr.enabled else 0.0
    inst = sim.instance
    topo = sim.topology
    policy = sim.policy
    ring = topo.name == "ring"
    num_nodes = topo.num_nodes(inst)
    policy.reset(num_nodes)
    kind = _policy_classes()[type(policy)]

    msgs = list(inst)
    K = len(msgs)
    i64 = np.int64
    mid = np.fromiter((m.id for m in msgs), dtype=i64, count=K)
    src = np.fromiter((m.source for m in msgs), dtype=i64, count=K)
    dst = np.fromiter((m.dest for m in msgs), dtype=i64, count=K)
    rel = np.fromiter((m.release for m in msgs), dtype=i64, count=K)
    dl = np.fromiter((m.deadline for m in msgs), dtype=i64, count=K)
    span = np.fromiter((m.span for m in msgs), dtype=i64, count=K)

    static_prio, prio_of, prio_bound = _priorities(
        kind, num_nodes, mid, src, dst, rel, dl, span
    )
    priom = prio_bound + 1
    if num_nodes * priom >= _I64_MAX:
        raise _Unvectorizable

    # releases sorted by (time, instance order) — the reference's
    # `releases` dict groups in exactly this order
    rorder = np.argsort(rel, kind="stable")
    rel_sorted = rel[rorder]
    rel_list = rel_sorted.tolist()
    ri = 0

    # live packet state
    hops = np.zeros(K, dtype=i64)
    node = src.copy()
    last_cross = np.zeros(K, dtype=i64)

    # buffered packets: parallel arrays sorted by key = node*priom + prio
    act_key = np.empty(0, dtype=i64)
    act_idx = np.empty(0, dtype=i64)
    act_seq = np.empty(0, dtype=i64)
    act_meet = np.empty(0, dtype=i64)  # deadline - remaining hops
    seq_next = 0

    fly = np.empty(0, dtype=i64)  # in flight, ascending tail node

    faults = sim.faults
    capacity = sim.buffer_capacity
    admission = sim.admission
    if admission == "drop-farthest-deadline":
        # the (deadline, id) contest as one injective integer, mirroring
        # the priority encodings of _priorities
        idn_c = mid - int(mid.min()) if mid.size else mid
        idm_c = int(idn_c.max()) + 1 if idn_c.size else 1
        contest_prio = dl * idm_c + idn_c
        contest_of = lambda s_: contest_prio[s_]  # noqa: E731
    else:
        # evict-lowest-priority: the policy's own order (Policy.eviction_key
        # == the select order == prio_of, including laxity's hops term)
        contest_of = lambda s_: prio_of(s_, hops)  # noqa: E731
    drop_rate = faults.drop_rate if faults is not None else 0.0
    drop_rng = faults.drop_rng() if faults is not None and drop_rate > 0 else None
    lf_windows = faults.link_failures if faults is not None else ()
    ns_windows = faults.node_stalls if faults is not None else ()
    n_out = num_nodes if ring else num_nodes - 1  # out links/nodes are 0..n_out-1

    horizon = topo.sim_horizon(inst)
    idle_skippable = policy.idle_skippable

    # accumulators (flushed into SimulationStats at the end)
    steps = 0
    released_n = delivered_n = dropped_n = 0
    idle_ffs = 0
    total_wait = total_latency = 0
    overflow_n = fault_n = link_down_blocks = stall_blocks = 0
    busy = np.zeros(max(num_nodes, 1), dtype=i64)
    peaks = np.zeros(max(num_nodes, 1), dtype=i64)
    delivered_chunks: list[np.ndarray] = []
    drop_chunks: list[tuple[int, np.ndarray, np.ndarray]] = []  # (t, idx, codes)
    hop_ts: list[int] = []
    hop_sel: list[np.ndarray] = []

    live = K
    t = 0
    while t < horizon and (live > 0 or fly.size):
        if (
            faults is None
            and fly.size == 0
            and act_key.size == 0
            and ri < K
            and idle_skippable
            and rel_list[ri] != t
        ):
            t = rel_list[ri]
            steps = t
            idle_ffs += 1
            continue

        # 1. arrivals — the reference walks `in_flight` once, so fault
        # drops, deliveries and overflow drops all interleave in fly order
        tobuf = _EMPTY
        if fly.size:
            codes = None
            arrived = hops[fly] == span[fly]
            if drop_rng is not None:
                faultm = drop_rng.random(fly.size) < drop_rate
                if faultm.any():
                    codes = np.where(faultm, _FAULT, -1).astype(np.int8)
                    fault_n += int(faultm.sum())
                    arrived &= ~faultm
                    landing = ~faultm & ~arrived
                else:
                    landing = ~arrived
            else:
                landing = ~arrived
            dels = fly[arrived]
            if dels.size:
                delivered_chunks.append(dels)
                delivered_n += dels.size
                total_latency += int((t - rel[dels]).sum())
            tobuf = fly[landing]
            drop_src = None
            if capacity is not None and tobuf.size:
                nd = node[tobuf]  # ascending: fly is ordered by tail node
                occ = np.bincount(
                    act_key // priom, minlength=num_nodes
                ) if act_key.size else np.zeros(num_nodes, dtype=i64)
                h = np.empty(tobuf.size, dtype=bool)
                h[0] = True
                np.not_equal(nd[1:], nd[:-1], out=h[1:])
                starts = np.flatnonzero(h)
                cc = np.arange(tobuf.size) - starts[np.cumsum(h) - 1]
                ovf = cc >= capacity - occ[nd]
                if ovf.any():
                    if codes is None:
                        codes = np.full(fly.size, -1, dtype=np.int8)
                    fpos = np.flatnonzero(landing)[ovf]
                    overflow_n += int(ovf.sum())
                    if admission == "drop-new":
                        codes[fpos] = _OVERFLOW
                        tobuf = tobuf[~ovf]
                    else:
                        # Admission contests (repro.buffers semantics).  On
                        # line/ring at most one packet arrives per node per
                        # step, so each contest is independent and rare —
                        # a per-conflict loop, not an array pass.  The
                        # dropped packet replaces the arrival at its fly
                        # position so drop_events keep the reference order.
                        codes[fpos] = _OVERFLOW
                        drop_src = fly.copy()
                        admit = np.ones(tobuf.size, dtype=bool)
                        dead_act: list[int] = []
                        for k, fp in zip(
                            np.flatnonzero(ovf).tolist(), fpos.tolist()
                        ):
                            inc = int(tobuf[k])
                            ndk = int(nd[k])
                            lo = int(np.searchsorted(act_key, ndk * priom))
                            hi = int(
                                np.searchsorted(act_key, (ndk + 1) * priom)
                            )
                            pos = np.arange(lo, hi)
                            # only transit packets are evictable
                            pos = pos[hops[act_idx[pos]] > 0]
                            cand = np.append(act_idx[pos], inc)
                            w = int(np.argmax(contest_of(cand)))
                            if w == cand.size - 1:  # the arrival loses
                                admit[k] = False
                            else:
                                drop_src[fp] = int(cand[w])
                                dead_act.append(int(pos[w]))
                        if dead_act:
                            keepm = np.ones(act_key.size, dtype=bool)
                            keepm[dead_act] = False
                            act_key = act_key[keepm]
                            act_idx = act_idx[keepm]
                            act_seq = act_seq[keepm]
                            act_meet = act_meet[keepm]
                        tobuf = tobuf[admit]
            if codes is not None:
                dm = codes >= 0
                dsrc = fly if drop_src is None else drop_src
                drop_chunks.append((t, dsrc[dm], codes[dm]))
                live -= int(dm.sum())
            live -= dels.size
            fly = _EMPTY

        # 2. control delivery — the supported policies never emit

        # 3. releases
        newr = _EMPTY
        if ri < K and rel_list[ri] == t:
            rj = int(np.searchsorted(rel_sorted, t, side="right"))
            newr = rorder[ri:rj]
            released_n += newr.size
            ri = rj

        ins = (
            np.concatenate((tobuf, newr))
            if tobuf.size and newr.size
            else (tobuf if tobuf.size else newr)
        )
        if ins.size:
            ins_prio = prio_of(ins, hops)
            ins_key = node[ins] * priom + ins_prio
            ins_seq = seq_next + np.arange(ins.size)
            seq_next += ins.size
            ins_meet = dl[ins] - span[ins] + hops[ins]
            order = np.argsort(ins_key)
            ins_sorted = (
                ins_key[order], ins[order], ins_seq[order], ins_meet[order]
            )
            if act_key.size:
                act_key, act_idx, act_seq, act_meet = _merge_sorted(
                    (act_key, act_idx, act_seq, act_meet), ins_sorted
                )
            else:
                act_key, act_idx, act_seq, act_meet = ins_sorted

        # 4. hopeless drops (ordered by node, then buffer-insertion order)
        # + per-node peak occupancy, measured after the drops
        gpos = None
        rem_key, rem_idx = act_key, act_idx
        if act_key.size:
            bad = act_meet < t
            if bad.any():
                bpos = np.flatnonzero(bad)
                bnode = act_key[bpos] // priom
                border = np.lexsort((act_seq[bpos], bnode))
                bidx = act_idx[bpos][border]
                drop_chunks.append(
                    (t, bidx, np.full(bidx.size, _DEADLINE, dtype=np.int8))
                )
                live -= bidx.size
                dropped_n += bidx.size
                gpos = np.flatnonzero(~bad)
                rem_key = act_key[gpos]
                rem_idx = act_idx[gpos]
        if rem_key.size:
            nodes_rem = rem_key // priom
            np.maximum(
                peaks, np.bincount(nodes_rem, minlength=num_nodes), out=peaks
            )

        # 5. selection: first buffered packet of every node run is that
        # node's policy minimum; fault windows block whole nodes
        blocked = None
        if faults is not None:
            down = {
                f.link
                for f in lf_windows
                if f.start <= t < f.end
                and isinstance(f.link, int)
                and 0 <= f.link < n_out
            }
            stalled = {
                s.node
                for s in ns_windows
                if s.start <= t < s.end
                and isinstance(s.node, int)
                and 0 <= s.node < n_out
                and s.node not in down
            }
            link_down_blocks += len(down)
            stall_blocks += len(stalled)
            if down or stalled:
                blocked = np.fromiter(down | stalled, dtype=i64)
        if rem_key.size:
            h = np.empty(rem_key.size, dtype=bool)
            h[0] = True
            np.not_equal(nodes_rem[1:], nodes_rem[:-1], out=h[1:])
            hpos = np.flatnonzero(h)
            if blocked is not None:
                hpos = hpos[~np.isin(nodes_rem[hpos], blocked)]
            if hpos.size:
                sel = rem_idx[hpos]
                selnode = nodes_rem[hpos]
                hs = hops[sel]
                waited = hs > 0
                if waited.any():
                    total_wait += int(((t - 1) - last_cross[sel][waited]).sum())
                hop_ts.append(t)
                hop_sel.append(sel)
                busy[selnode] += 1
                last_cross[sel] = t
                hops[sel] = hs + 1
                nxt = selnode + 1
                if ring:
                    nxt %= num_nodes
                node[sel] = nxt
                fly = sel
                keep = np.ones(rem_key.size, dtype=bool)
                keep[hpos] = False
                if gpos is not None:
                    act_key = rem_key[keep]
                    act_idx = rem_idx[keep]
                    act_seq = act_seq[gpos][keep]
                    act_meet = act_meet[gpos][keep]
                else:
                    act_key = act_key[keep]
                    act_idx = act_idx[keep]
                    act_seq = act_seq[keep]
                    act_meet = act_meet[keep]
            elif gpos is not None:
                act_key, act_idx = rem_key, rem_idx
                act_seq = act_seq[gpos]
                act_meet = act_meet[gpos]
        elif gpos is not None:
            act_key, act_idx = rem_key, rem_idx
            act_seq = act_seq[gpos]
            act_meet = act_meet[gpos]

        t += 1
        steps = t

    # anything still pending/buffered after the horizon is undeliverable
    leftovers = np.concatenate((act_idx, rorder[ri:]))
    if leftovers.size:
        leftovers = np.sort(leftovers)  # reference drops in instance order
        drop_chunks.append(
            (t, leftovers, np.full(leftovers.size, _DEADLINE, dtype=np.int8))
        )
        dropped_n += leftovers.size

    # ---------------------------------------------------------------- #
    # reassemble python-object results from the array logs
    # ---------------------------------------------------------------- #
    dropped_total = sum(c[1].size for c in drop_chunks)
    stats = SimulationStats(
        steps=steps,
        released=released_n,
        delivered=delivered_n,
        dropped=dropped_total,
        idle_fast_forwards=idle_ffs,
        link_busy_steps={
            int(v): int(c) for v, c in enumerate(busy.tolist()) if c
        },
        peak_buffer={int(v): int(p) for v, p in enumerate(peaks.tolist()) if p},
        total_wait_steps=total_wait,
        total_latency=total_latency,
        buffer_overflow_drops=overflow_n,
        fault_drops=fault_n,
        link_down_blocks=link_down_blocks,
        stall_blocks=stall_blocks,
    )

    mid_l = mid.tolist()
    delivered_idx = (
        np.concatenate(delivered_chunks) if delivered_chunks else _EMPTY
    )

    # per-packet crossing times, grouped from the per-step hop logs
    trajectories: list[Any] = []
    launch_events: tuple[tuple[int, int], ...] = ()
    if hop_sel:
        all_sel = np.concatenate(hop_sel)
        all_t = np.repeat(
            np.asarray(hop_ts, dtype=i64),
            np.fromiter((s.size for s in hop_sel), dtype=i64, count=len(hop_sel)),
        )
        # the logs run in time order, so a packet's first entry is its launch
        first_sel, first_at = np.unique(all_sel, return_index=True)
        launch_mid, launch_t = mid[first_sel], all_t[first_at]
        by_time = np.lexsort((launch_mid, launch_t))
        launch_events = tuple(
            zip(launch_mid[by_time].tolist(), launch_t[by_time].tolist())
        )
    if delivered_idx.size:
        order = np.lexsort((all_t, all_sel))
        sel_sorted = all_sel[order]
        t_list = all_t[order].tolist()
        starts = np.searchsorted(sel_sorted, delivered_idx, side="left").tolist()
        ends = np.searchsorted(sel_sorted, delivered_idx, side="right").tolist()
        if ring:
            # via the generic topology hook (the network layer stays
            # topology-agnostic); the shim quacks like a delivered Packet
            shim = _PacketShim()
            for i, s, e in zip(delivered_idx.tolist(), starts, ends):
                shim.message = msgs[i]
                shim.crossings = t_list[s:e]
                trajectories.append(topo.sim_trajectory(inst, shim))
        else:
            from ..core.trajectory import Trajectory

            src_l = src.tolist()
            for i, s, e in zip(delivered_idx.tolist(), starts, ends):
                trajectories.append(
                    Trajectory(mid_l[i], src_l[i], tuple(t_list[s:e]))
                )

    if ring:
        schedule = topo.sim_schedule(inst, tuple(trajectories))
    else:
        # Schedule construction still performs the conflict/duplicate
        # checks; the per-trajectory instance checks of validate_schedule
        # are replayed as array comparisons (they can only fire on an
        # internal simulator bug, but stay load-bearing for parity of
        # behaviour, not just of results).
        from ..core.schedule import Schedule
        from ..core.validate import ScheduleError

        schedule = Schedule(tuple(trajectories))
        if delivered_idx.size:
            depart = np.fromiter(
                (tr.crossings[0] for tr in trajectories),
                dtype=i64,
                count=len(trajectories),
            )
            arrive = np.fromiter(
                (tr.crossings[-1] + 1 for tr in trajectories),
                dtype=i64,
                count=len(trajectories),
            )
            d = delivered_idx
            if (
                bool((depart < rel[d]).any())
                or bool((arrive > dl[d]).any())
                or bool((dst[d] > inst.n - 1).any())
            ):  # pragma: no cover - simulator invariant
                raise ScheduleError(
                    "vectorized simulator produced an invalid schedule"
                )

    drop_events = []
    for when, idxs, codes in drop_chunks:
        for i, c in zip(idxs.tolist(), codes.tolist()):
            drop_events.append((mid_l[i], when, _REASONS[c]))

    if tr.enabled:
        tr.count("sim.runs")
        tr.count("sim.vec_runs")
        tr.count("sim.steps", stats.steps)
        tr.count("sim.idle_fast_forwards", stats.idle_fast_forwards)
        tr.count("sim.delivered", stats.delivered)
        tr.count("sim.expired", stats.dropped)
        if faults is not None:
            tr.count("sim.faulted_runs")
            tr.count("sim.fault_drops", stats.fault_drops)
            tr.count("sim.link_down_blocks", stats.link_down_blocks)
            tr.count("sim.stall_blocks", stats.stall_blocks)
        tr.record_span(
            "sim.run",
            t0,
            n=num_nodes,
            packets=K,
            policy=type(policy).__name__,
            steps=stats.steps,
            topology=topo.name,
        )
    return SimulationResult(
        schedule=schedule,
        delivered_ids=frozenset(int(mid_l[i]) for i in delivered_idx.tolist()),
        dropped_ids=frozenset(e[0] for e in drop_events),
        stats=stats,
        drop_events=tuple(drop_events),
        launch_events=launch_events,
    )


_EMPTY = np.empty(0, dtype=np.int64)
