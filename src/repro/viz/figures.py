"""Regeneration of the paper's figures as text.

* :func:`figure1` — the six-message 22-node example of Section 2 (left
  side of the paper's Fig. 1) plus its defining table, and the BFL
  schedule drawn through the windows;
* :func:`figure2` — the lower-bound family ``I_k`` (Fig. 2) with its
  all-messages buffered schedule;
* :func:`figure3` — one clause gadget of the NP-hardness reduction
  (Fig. 3), as the parallelogram windows of ``p_A .. p_3, p_X``.
"""

from __future__ import annotations

from ..analysis.tables import Table
from ..constructions.lower_bound import (
    lower_bound_buffered_schedule,
    lower_bound_instance,
    lower_bound_optbl_cap,
)
from ..core.bfl_fast import bfl_fast
from ..core.instance import Instance
from ..core.message import Message
from ..hardness.cnf import CNF
from ..hardness.reduction import reduce_3sat
from .lattice import render_instance, render_schedule

__all__ = ["figure1", "figure1_instance", "figure2", "figure3"]


def figure1_instance() -> Instance:
    """The six messages of the paper's Section 2 table (ids 1..6)."""
    rows = [
        (2, 9, 2, 13),
        (2, 12, 5, 23),
        (2, 7, 16, 24),
        (5, 14, 13, 23),
        (10, 18, 0, 15),
        (11, 13, 3, 9),
    ]
    return Instance(
        22, tuple(Message(i + 1, s, d, r, dl) for i, (s, d, r, dl) in enumerate(rows))
    )


def figure1(*, with_schedule: bool = True) -> str:
    """Fig. 1: the message parallelograms on the 22-node line."""
    inst = figure1_instance()
    table = Table(["message", "source", "dest", "release", "deadline", "span", "slack"])
    for m in inst:
        table.add(
            message=m.id,
            source=m.source,
            dest=m.dest,
            release=m.release,
            deadline=m.deadline,
            span=m.span,
            slack=m.slack,
        )
    parts = [
        "Figure 1 — six message parallelograms on the 22-node line",
        "",
        table.render(),
        "",
        render_instance(inst),
    ]
    if with_schedule:
        schedule = bfl_fast(inst)
        parts += [
            "",
            f"Algorithm BFL schedules all {schedule.throughput} messages:",
            "",
            render_schedule(inst, schedule),
        ]
    return "\n".join(parts)


def figure2(k: int = 3) -> str:
    """Fig. 2: the recursive instance I_k and its buffered schedule."""
    inst = lower_bound_instance(k)
    schedule = lower_bound_buffered_schedule(k)
    parts = [
        f"Figure 2 — lower-bound instance I_{k}: "
        f"{len(inst)} messages on {inst.n} nodes, "
        f"OPT_B = {schedule.throughput} (all), OPT_BL <= {lower_bound_optbl_cap(k)}",
        "",
        render_schedule(inst, schedule),
    ]
    return "\n".join(parts)


def figure3() -> str:
    """Fig. 3: one clause structure of the 3-SAT reduction.

    Shows the windows of the clause messages (p_A, p_B, p_C, p_X, p_1,
    p_2, p_3) for the single clause ``(x1 ∨ x2 ∨ x3)``, with the variable
    gadgets and chains of the full reduced instance around them.
    """
    red = reduce_3sat(CNF.of(3, [(1, 2, 3)]))
    clause_ids = [mid for mid, kind in red.kinds.items() if kind.startswith("p")]
    gadget = red.instance.restrict(clause_ids)
    legend = Table(["id", "kind", "source", "dest", "slack"])
    for mid in clause_ids:
        m = red.instance[mid]
        legend.add(id=mid, kind=red.kinds[mid], source=m.source, dest=m.dest, slack=m.slack)
    parts = [
        "Figure 3 — the clause structure for (x1 v x2 v x3)",
        "",
        legend.render(),
        "",
        render_instance(gadget),
    ]
    return "\n".join(parts)
