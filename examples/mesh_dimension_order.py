#!/usr/bin/env python3
"""Dimension-order routing on a 2-D mesh — the paper's motivating sketch.

The paper studies lines because, in its own words, a mesh can route each
packet with "near-optimal bufferless routing along rows and along columns"
plus "a single optical-electric conversion to change dimensions".  This
example does exactly that: a matrix-transpose permutation on a 6x6 mesh,
scheduled phase-by-phase with BFL, with and without a conversion cost.

Run:  python examples/mesh_dimension_order.py
"""

import numpy as np

from repro.analysis import Table
from repro.topology.mesh import validate_mesh_schedule, xy_schedule
from repro.workloads.meshes import transpose_mesh


def main() -> None:
    rng = np.random.default_rng(3)
    inst = transpose_mesh(rng, n=6, max_release=4, slack=5)
    print(f"matrix transpose on a 6x6 mesh: {len(inst)} packets, "
          f"all of which must turn once")

    table = Table(["conversion_delay", "delivered", "of", "turn_wait", "mean_latency"])
    for conv in (0, 1, 2, 4):
        sched = xy_schedule(inst, conversion_delay=conv)
        validate_mesh_schedule(inst, sched, conversion_delay=conv)
        latencies = [
            sched[m.id].arrive - m.release for m in inst if m.id in sched.delivered_ids
        ]
        table.add(
            conversion_delay=conv,
            delivered=sched.throughput,
            of=len(inst),
            turn_wait=sched.total_turn_wait,
            mean_latency=float(np.mean(latencies)) if latencies else 0.0,
        )
    print()
    print(table.render(title="throughput vs optical-electric conversion cost"))
    print()
    print("one packet's two-phase journey:")
    sched = xy_schedule(inst, conversion_delay=1)
    traj = next(t for t in sched.trajectories if t.row_leg and t.col_leg)
    m = inst[traj.message_id]
    print(
        f"  message {m.id}: {m.source} -> {m.dest}; row phase departs "
        f"t={traj.row_leg.depart}, reaches turn {m.turning_node} at "
        f"t={traj.row_leg.arrive}; waits {traj.turn_wait} step(s) "
        f"(conversion + queueing); column phase arrives t={traj.col_leg.arrive} "
        f"(deadline {m.deadline})"
    )


if __name__ == "__main__":
    main()
