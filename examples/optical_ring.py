#!/usr/bin/env python3
"""Bufferless scheduling on an optical ring.

The paper's bufferless model targets optical networks, where buffering a
packet means an expensive optical-electronic conversion, and notes that
its results extend to rings.  This example schedules wrapping traffic on a
ring with the helix greedy (the ring generalisation of Algorithm BFL) and
compares against the exact optimum.

Run:  python examples/optical_ring.py
"""

import numpy as np

from repro.analysis import Table
from repro.topology.ring import (
    RingInstance,
    RingMessage,
    ring_bfl,
    validate_ring_schedule,
)
from repro.topology.ring_exact import opt_ring_bufferless


def main() -> None:
    n = 10
    rng = np.random.default_rng(11)

    # an all-to-some optical workload: every node talks to a few others,
    # always clockwise, with tight slack (no buffering possible anyway)
    msgs = []
    for src in range(n):
        for _ in range(3):
            span = int(rng.integers(1, n))
            release = int(rng.integers(0, 12))
            slack = int(rng.integers(0, 4))
            msgs.append(
                RingMessage(
                    id=len(msgs),
                    source=src,
                    dest=(src + span) % n,
                    release=release,
                    deadline=release + span + slack,
                    n=n,
                )
            )
    inst = RingInstance(n, tuple(msgs))
    wrapping = sum(1 for m in inst if m.source + m.span >= n)
    print(f"{len(inst)} clockwise packets on a {n}-node ring "
          f"({wrapping} wrap past node 0)")

    greedy = ring_bfl(inst)
    validate_ring_schedule(inst, greedy)
    exact = opt_ring_bufferless(inst)

    table = Table(["scheduler", "delivered", "of", "ratio_vs_exact"])
    table.add(
        scheduler="helix greedy (ring BFL)",
        delivered=greedy.throughput,
        of=len(inst),
        ratio_vs_exact=greedy.throughput / exact.throughput,
    )
    table.add(
        scheduler="exact OPT_BL (MILP)",
        delivered=exact.throughput,
        of=len(inst),
        ratio_vs_exact=1.0,
    )
    print()
    print(table.render())
    print()
    print("the greedy is guaranteed at least half the optimum (Theorem 3.2's")
    print("charging argument survives the wraparound; see DESIGN.md §E11)")

    # show one wrapping trajectory's (link, time) slots
    wrap = next((t for t in greedy.trajectories if t.source + t.span >= n), None)
    if wrap is not None:
        print()
        print(
            f"message {wrap.message_id} wraps: "
            + " -> ".join(f"link{v}@t{t}" for v, t in wrap.edges())
        )


if __name__ == "__main__":
    main()
