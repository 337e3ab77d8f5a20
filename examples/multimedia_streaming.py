#!/usr/bin/env python3
"""Multimedia streaming over a line — the paper's motivating scenario.

The introduction motivates time-constrained routing with continuous-media
traffic: teleconference audio is worthless after its playout deadline,
video tolerates a little more, bulk transfers are best-effort.  This
example mixes the three classes on a shared backbone, schedules them with
BFL and with the buffered EDF baseline, and reports per-class delivery —
the numbers an operator would actually look at.

Run:  python examples/multimedia_streaming.py
"""

import numpy as np

from repro.analysis import Table
from repro.baselines import EDFPolicy
from repro.core.bfl import bfl
from repro.core.dbfl import dbfl
from repro.network.simulator import simulate
from repro.workloads import multimedia_instance


def per_class_delivery(instance, delivered_ids, class_of) -> dict[str, tuple[int, int]]:
    """class -> (delivered, total)."""
    out: dict[str, list[int]] = {}
    for m in instance:
        cls = class_of[m.id]
        got, total = out.setdefault(cls, [0, 0])
        out[cls][1] += 1
        if m.id in delivered_ids:
            out[cls][0] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def main() -> None:
    rng = np.random.default_rng(7)
    inst, class_of = multimedia_instance(rng, n=32, k=120, horizon=60)
    print(
        f"backbone: {inst.n} nodes; {len(inst)} packets "
        f"({sum(1 for c in class_of.values() if c == 'audio')} audio, "
        f"{sum(1 for c in class_of.values() if c == 'video')} video, "
        f"{sum(1 for c in class_of.values() if c == 'bulk')} bulk)"
    )

    schedulers = {
        "BFL (bufferless)": bfl(inst).delivered_ids,
        "D-BFL (distributed)": dbfl(inst).delivered_ids,
        "EDF (buffered)": simulate(inst, EDFPolicy()).delivered_ids,
    }

    table = Table(["scheduler", "audio", "video", "bulk", "total"])
    for name, delivered in schedulers.items():
        per = per_class_delivery(inst, delivered, class_of)
        table.add(
            scheduler=name,
            audio=f"{per['audio'][0]}/{per['audio'][1]}",
            video=f"{per['video'][0]}/{per['video'][1]}",
            bulk=f"{per['bulk'][0]}/{per['bulk'][1]}",
            total=len(delivered),
        )
    print()
    print(table.render(title="per-class delivered packets"))
    print()
    print(
        "audio packets have slack <= 2, so they are the first casualties of\n"
        "contention; bulk traffic (slack >= 50) almost always survives —\n"
        "exactly the behaviour the deadline model is meant to expose."
    )


if __name__ == "__main__":
    main()
