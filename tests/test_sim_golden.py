"""Golden-result regression: the python step loop's full results are fixed.

Every case of ``tests/data/sim_golden.json.gz`` (see ``tests/sim_golden.py``)
is rerun and its whole ``SimulationResult`` compared with the stored one:
schedule, delivered/dropped ids, ``drop_events``, ``launch_events`` and
every ``SimulationStats`` field.  So a change to the simulator, the
packet or a policy that moves any result on a line, ring or mesh, under
any capacity, admission policy or fault plan, fails here.

One behaviour was changed on purpose after the fixture was made: D-BFL's
``"evict-lowest-priority"`` contest used the EDF order and now uses
D-BFL's own forwarding order.  Those cases are checked against a D-BFL
whose contest keeps the EDF order, which shows that the contest order is
the only thing that moved.
"""

from __future__ import annotations

import pytest

from repro.core.dbfl import DBFLPolicy
from repro.network.simulator import simulate
from repro.topology import topology_of

from . import sim_golden

GOLDEN = sim_golden.load()
CASES = GOLDEN["cases"]


class EDFContestDBFL(DBFLPolicy):
    """D-BFL with the admission contest it had before it stated its key."""

    def eviction_key(self, packet):
        return (packet.deadline, packet.id)


def _policy(case):
    if case["policy"] == "dbfl" and case["admission"] == "evict-lowest-priority":
        return EDFContestDBFL()
    return sim_golden.POLICIES[case["policy"]]()


def test_fixture_covers_the_matrix():
    seen = {
        (c["instance"], c["policy"], c["capacity"], c["admission"], c["faults"] is None)
        for c in CASES
    }
    assert {c[0] for c in seen} == {"line", "ring", "mesh", "bench"}
    assert {c[1] for c in seen} == set(sim_golden.POLICIES)
    assert {c[2] for c in seen} == {None, 1, 2}
    assert len({c[3] for c in seen}) == 3
    assert {c[4] for c in seen} == {True, False}
    assert len(seen) == len(CASES)


@pytest.mark.parametrize("case", CASES, ids=sim_golden.case_id)
def test_result_matches_golden(case):
    inst, kw = sim_golden.case_inputs(GOLDEN, case)
    result = simulate(inst, _policy(case), **kw)
    assert sim_golden.matches(result, topology_of(inst), case["result"])


def test_dbfl_contest_order_moved_results():
    # the own-order contest is a real change on this fixture, not a no-op
    changed = 0
    for case in CASES:
        if case["policy"] == "dbfl" and case["admission"] == "evict-lowest-priority":
            inst, kw = sim_golden.case_inputs(GOLDEN, case)
            result = simulate(inst, DBFLPolicy(), **kw)
            changed += not sim_golden.matches(result, topology_of(inst), case["result"])
    assert changed > 0
