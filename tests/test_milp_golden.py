"""Golden MILP regression: each exact solver poses HiGHS the stored problem.

Every case of ``tests/data/milp_golden.json.gz`` (see
``tests/milp_golden.py``) is rerun with ``repro.exact.milp``'s ``milp``
wrapped, and each call's input digest, the returned schedule and the
``optimal`` flag are compared with the stored ones.  So a change that
moves a row, a column, a bound, the objective or an option of any of the
five MILPs — or the schedule HiGHS returns for it — fails here.
"""

from __future__ import annotations

import pytest

from repro.topology import get_topology

from . import milp_golden

GOLDEN = milp_golden.load()
CASES = GOLDEN["cases"]


def test_fixture_covers_every_milp():
    solvers = {(c["solver"], tuple(sorted(c["options"]))) for c in CASES}
    assert solvers >= {
        ("line_bufferless", ()),
        ("line_bufferless", ("weighted",)),
        ("line_buffered", ()),
        ("line_buffered", ("weighted",)),
        ("ring_bufferless", ()),
        ("ring_buffered", ()),
        ("mesh_xy", ("conversion_delay",)),
    }
    delays = {c["options"].get("conversion_delay") for c in CASES if c["solver"] == "mesh_xy"}
    assert {0, 2} <= delays
    assert all(len(c["calls"]) == 1 for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=milp_golden.case_id)
def test_milp_matches_golden(case):
    got = milp_golden.run(GOLDEN, case)
    assert got["calls"] == case["calls"]
    assert got["optimal"] == case["optimal"]
    topo = get_topology(GOLDEN["instances"][case["instance"]].get("topology", "line"))
    assert topo.schedule_from_dict(got["schedule"]) == topo.schedule_from_dict(
        case["schedule"]
    )


def test_lp_bound_matches_golden():
    assert milp_golden.lp_bounds(GOLDEN) == GOLDEN["lp_bounds"]
