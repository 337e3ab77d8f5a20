"""``bfl_vec`` — the scan-line kernel as batched numpy array ops.

Bit-identical to :func:`repro.core.bfl_fast.bfl_fast` (the golden
reference): same trajectories, in the same order, for every instance.
The parity is checked on seeded instances, one at a time and batched,
by ``tests/test_backends.py::TestKernelParity``.

Why a *batched lockstep* sweep
------------------------------
The per-line greedy is inherently sequential (each pick moves the
``pos`` frontier), so vectorizing one line at a time would drown in
numpy call overhead.  The formulation here exploits two facts:

* **The swept lines are data-independent.**  ``bfl_fast`` visits a
  subset of the union of the messages' ``[alpha_min, alpha_max]``
  windows; sweeping the *whole* union (descending) yields the identical
  assignment in the identical order, because a line none of the
  reference's live messages occupy schedules nothing.  The union — and
  therefore every message's *entry round* and *exit round* — is
  computable up front with sorts and ``searchsorted``.
* **Instances are independent.**  A batch of B instances advances in
  lockstep: round ``r`` processes every instance's ``r``-th relevant
  line at once, so each numpy operation amortizes over the whole batch.
  The per-line greedy becomes a short inner loop of *chain iterations*
  (one per pick depth, typically 2–4): each iteration selects, for every
  instance simultaneously, the first eligible candidate — eligibility
  being ``source >= pos`` and key-rank above the last pick — via masked
  first-occurrence extraction.

The candidate pool is one global array of key ranks (instances
interleaved in ``(instance, dest, -source, id)`` order), merged with
precomputed per-round entrants and compacted against precomputed exit
rounds, so per-round work is O(pool) with a handful of numpy calls.

``bfl_kernel`` is the backend dispatcher: ``backend="numpy"`` runs this
kernel, anything else (or a fallback) the pure-python reference.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from .. import obs
from ..backend import fall_back, resolve_backend
from .instance import Instance
from .message import Direction
from .schedule import Schedule
from .trajectory import bufferless_trajectory
from .bfl_fast import bfl_fast, kernel_columns

__all__ = ["bfl_vec", "bfl_vec_batch", "bfl_kernel", "assign_lines_batch"]


def assign_lines_batch(
    columns: Sequence[
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ],
) -> list[list[tuple[int, int]]]:
    """Run the batched lockstep sweep over per-instance column tuples.

    ``columns[i]`` is ``(src, dst, mid, amin, amax)`` for instance ``i``
    (int64 arrays, preprocessed — infeasible messages already dropped),
    exactly :func:`repro.core.bfl_fast.kernel_columns`.  Returns, per
    instance, the ordered ``(j, alpha)`` launch decisions, matching
    :func:`repro.core.bfl_fast.assign_lines` exactly.
    """
    B = len(columns)
    sizes = np.array([len(c[0]) for c in columns], dtype=np.int64)
    K = int(sizes.sum())
    if K == 0:
        return [[] for _ in range(B)]

    instv = np.repeat(np.arange(B, dtype=np.int64), sizes)
    srcv = np.concatenate([np.asarray(c[0], dtype=np.int64) for c in columns])
    dstv = np.concatenate([np.asarray(c[1], dtype=np.int64) for c in columns])
    midv = np.concatenate([np.asarray(c[2], dtype=np.int64) for c in columns])
    aminv = np.concatenate([np.asarray(c[3], dtype=np.int64) for c in columns])
    amaxv = np.concatenate([np.asarray(c[4], dtype=np.int64) for c in columns])
    jlocv = np.concatenate(
        [np.arange(int(s), dtype=np.int64) for s in sizes]
    )

    # ---------------------------------------------------------------- #
    # Relevant lines: the per-instance union of [amin, amax] windows,
    # as merged intervals (no per-cell blowup), then materialized both
    # ascending (for searchsorted) and descending (sweep order).
    # ---------------------------------------------------------------- #
    order_iv = np.lexsort((aminv, instv))
    s = aminv[order_iv]
    e = amaxv[order_iv] + 1  # half-open
    gi = instv[order_iv]
    min_line = int(aminv.min())
    max_line = int(amaxv.max())
    shift = (max_line + 1) - min_line + 1
    # Running max of interval ends within each instance (group-reset trick:
    # lift each group into its own disjoint value band before accumulating).
    run_e = np.maximum.accumulate((e - min_line) + gi * shift) - gi * shift + min_line
    first_of_group = np.ones(K, dtype=bool)
    first_of_group[1:] = gi[1:] != gi[:-1]
    new_seg = first_of_group.copy()
    new_seg[1:] |= s[1:] > run_e[:-1]
    seg_pos = np.flatnonzero(new_seg)
    seg_start = s[seg_pos]
    seg_inst = gi[seg_pos]
    seg_last = np.append(seg_pos[1:], K) - 1
    seg_end = run_e[seg_last]
    seg_len = seg_end - seg_start
    nseg = len(seg_pos)

    c = np.bincount(seg_inst, weights=seg_len, minlength=B).astype(np.int64)
    line_off = np.concatenate(([0], np.cumsum(c)))
    total = int(seg_len.sum())
    seg_off = np.concatenate(([0], np.cumsum(seg_len)))
    cell_seg = np.repeat(np.arange(nseg, dtype=np.int64), seg_len)
    asc = seg_start[cell_seg] + (np.arange(total, dtype=np.int64) - seg_off[cell_seg])
    cell_inst = seg_inst[cell_seg]
    p = np.arange(total, dtype=np.int64)
    desc = asc[(2 * line_off[cell_inst] + c[cell_inst] - 1) - p]

    # Entry/exit rounds: a message participates in rounds [r_entry, r_exit]
    # of its instance's descending line list; both bounds are positions of
    # its own window endpoints, which are always present in the union.
    span2 = max_line - min_line + 1
    key_cells = cell_inst * span2 + (asc - min_line)
    entry_pos = np.searchsorted(key_cells, instv * span2 + (amaxv - min_line))
    exit_pos = np.searchsorted(key_cells, instv * span2 + (aminv - min_line))
    r_entry = (c[instv] - 1) - (entry_pos - line_off[instv])
    r_exit = (c[instv] - 1) - (exit_pos - line_off[instv])

    # ---------------------------------------------------------------- #
    # Rank space: messages globally sorted by (instance, dest, -source,
    # id) — the greedy key.  The candidate pool holds ranks, so it is
    # simultaneously instance-segmented and key-sorted.
    # ---------------------------------------------------------------- #
    ordmsg = np.lexsort((midv, -srcv, dstv, instv))
    src_r = srcv[ordmsg]
    dst_r = dstv[ordmsg]
    inst_r = instv[ordmsg]
    jloc_r = jlocv[ordmsg]
    rexit_r = r_exit[ordmsg]
    rentry_r = r_entry[ordmsg]

    # Entrants per round, each group pre-sorted by rank; exit counts per
    # round let quiet rounds skip the pool-compaction pass entirely.
    ent_order = np.argsort(rentry_r, kind="stable")
    R = int(c.max())
    eb = np.searchsorted(rentry_r[ent_order], np.arange(R + 1)).tolist()
    ent_ranks = ent_order.astype(np.int64)
    exits_at = np.bincount(rexit_r, minlength=R).tolist()

    pool = np.empty(0, dtype=np.int64)
    sched = np.zeros(K, dtype=bool)
    pos = np.empty(B, dtype=np.int64)
    picks_ranks: list[np.ndarray] = []
    picks_meta: list[tuple[int, int]] = []  # (round, pick count)

    for r in range(R):
        lo, hi = eb[r], eb[r + 1]
        if lo == hi:
            if pool.size == 0:
                continue
        else:
            entr = ent_ranks[lo:hi]
            if pool.size == 0:
                pool = entr.copy()
            else:
                at = np.searchsorted(pool, entr)
                merged = np.empty(pool.size + entr.size, dtype=np.int64)
                epos = at + np.arange(entr.size)
                merged[epos] = entr
                keepm = np.ones(merged.size, dtype=bool)
                keepm[epos] = False
                merged[keepm] = pool
                pool = merged

        # Per-line greedy, all instances in lockstep.  `cand` (ranks,
        # instance-major and key-sorted) shrinks monotonically: each
        # iteration picks every instance's first remaining candidate —
        # the walk's next launch — then drops everything at or before the
        # pick and everything the new frontier `pos = dest` rules out.
        # Both filters are permanent within a line, so each candidate is
        # touched O(#picks it survives) times, not O(pool) per pick.
        cand = pool
        ci = inst_r[pool]
        cs = src_r[pool]
        picked = 0
        while cand.size:
            n_c = cand.size
            head = np.empty(n_c, dtype=bool)
            head[0] = True
            np.not_equal(ci[1:], ci[:-1], out=head[1:])
            selpos = np.flatnonzero(head)
            pr = cand[selpos]
            sched[pr] = True
            picks_ranks.append(pr)
            picks_meta.append((r, pr.size))
            picked += pr.size
            # Each pick IS its segment's head, so dropping "everything at
            # or before the pick" is just clearing the heads; the frontier
            # constraint reads back through a B-sized `pos` scratch that
            # every surviving instance rewrote this very iteration.
            pos[ci[selpos]] = dst_r[pr]
            keep = cs >= pos[ci]
            keep[selpos] = False
            cand = cand[keep]
            ci = ci[keep]
            cs = cs[keep]

        if picked or exits_at[r]:
            keep = ~sched[pool]
            if exits_at[r]:
                keep &= rexit_r[pool] > r
            pool = pool[keep]

    out: list[list[tuple[int, int]]] = [[] for _ in range(B)]
    if not picks_ranks:
        return out
    all_ranks = np.concatenate(picks_ranks)
    all_rounds = np.repeat(
        np.array([r for r, _ in picks_meta], dtype=np.int64),
        np.array([cnt for _, cnt in picks_meta], dtype=np.int64),
    )
    all_inst = inst_r[all_ranks]
    order_out = np.lexsort((all_ranks, all_rounds, all_inst))
    all_ranks = all_ranks[order_out]
    all_rounds = all_rounds[order_out]
    all_inst = all_inst[order_out]
    alphas = desc[line_off[all_inst] + all_rounds]
    jl = jloc_r[all_ranks]
    bounds = np.searchsorted(all_inst, np.arange(B + 1))
    for i in range(B):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        out[i] = list(zip(jl[lo:hi].tolist(), alphas[lo:hi].tolist()))
    return out


def _check_directions(instance: Instance) -> None:
    for m in instance:
        if m.direction != Direction.LEFT_TO_RIGHT:
            raise ValueError(
                f"message {m.id} travels right-to-left; split directions first"
            )


def bfl_vec_batch(
    instances: Sequence[Instance], *, clip_slack: bool = False
) -> list[Schedule]:
    """Schedule a whole batch of instances in one lockstep sweep.

    Returns one :class:`Schedule` per instance, each bit-identical to
    ``bfl_fast(instance, clip_slack=clip_slack)``.  Batching is where the
    numpy backend earns its keep: every array operation amortizes over
    all instances at once.
    """
    tr = obs.tracer()
    t0 = time.perf_counter() if tr.enabled else 0.0
    cols = []
    mids = []
    for instance in instances:
        _check_directions(instance)
        src, dst, mid, amin, amax = kernel_columns(instance, clip_slack=clip_slack)
        cols.append(
            (
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(mid, dtype=np.int64),
                np.asarray(amin, dtype=np.int64),
                np.asarray(amax, dtype=np.int64),
            )
        )
        mids.append(mid)
    assignments = assign_lines_batch(cols)
    schedules = []
    for instance, mid, assignment in zip(instances, mids, assignments):
        schedules.append(
            Schedule(
                tuple(
                    bufferless_trajectory(instance[mid[j]], alpha)
                    for j, alpha in assignment
                )
            )
        )
    if tr.enabled:
        tr.count("bfl.launches", len(list(instances)))
        tr.count("bfl.vec.batches")
        tr.count("bfl.delivered", sum(s.throughput for s in schedules))
        tr.record_span(
            "bfl.vec",
            t0,
            batch=len(schedules),
            k=sum(len(c[0]) for c in cols),
            delivered=sum(s.throughput for s in schedules),
        )
    return schedules


def bfl_vec(instance: Instance, *, clip_slack: bool = False) -> Schedule:
    """Array-form Algorithm BFL for one instance (paper tie-break only).

    Bit-identical to :func:`repro.core.bfl_fast.bfl_fast`; prefer
    :func:`bfl_vec_batch` when scheduling many instances — the batch
    sweep is where vectorization pays.
    """
    return bfl_vec_batch([instance], clip_slack=clip_slack)[0]


def bfl_kernel(
    instance: Instance, *, clip_slack: bool = False, backend: str | None = None
) -> Schedule:
    """Backend-dispatched BFL: the facade's kernel entry point.

    ``backend=None`` resolves through :func:`repro.backend.resolve_backend`
    (context, then ``REPRO_BACKEND``, then ``"python"``).  Both backends
    return bit-identical schedules.
    """
    if resolve_backend(backend) == "numpy":
        return bfl_vec(instance, clip_slack=clip_slack)
    return bfl_fast(instance, clip_slack=clip_slack)
