"""Ring benchmarks — the bufferless ring cell at the ``offline`` size.

Times the three layers of a ring BFL request on an n=32, k=270 ring
(``max_release`` 85, ``max_slack`` 8: ``perfbench``'s
``ring-bufferless-bfl`` cell): ``api.parse_instance`` on the instance
document (``columns``, the version-2 form the writer emits, and ``rows``,
the version-1 form still read), the ``ring_bfl`` kernel on the parsed
(table-built) instance, the scan-line check of ``RingSchedule`` on the
kernel's schedule both ways (``segments``, ``RingSchedule.from_segments``
as ``ring_bfl`` and the version-2 reader build it, and ``objects``, the
constructor over ``RingTrajectory`` objects as the exact solvers and the
simulator build it), the schedule document both ways (``columns``,
the version-2 helix segments the writer emits for a bufferless ring
schedule, and ``rows``, the version-1 form it emits for a buffered one),
and the whole facade operation (parse, solve, ``to_dict``, JSON).  Each
case asserts that its schedule equals the one the reference greedy in
``tests/ring_oracle.py`` chooses, so a faster kernel or check that
schedules differently fails here.
``perfbench/run.py --workload offline --trace 1`` reports the cell end to
end as ``solve.ring-bufferless-bfl.ms``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.topology import get_topology, topology_of
from repro.topology.ring import RingSchedule, ring_bfl
from repro.workloads.rings import random_ring_instance


def _oracle_module():
    path = Path(__file__).resolve().parents[1] / "tests" / "ring_oracle.py"
    spec = importlib.util.spec_from_file_location("ring_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ring_oracle = _oracle_module()
MESSAGE_FIELDS = ("id", "source", "dest", "release", "deadline")

INSTANCE = random_ring_instance(
    np.random.default_rng(7), n=32, k=270, max_release=85, max_slack=8
)
EXPECTED = ring_oracle.reference_ring_bfl(INSTANCE)
DOCUMENT = topology_of(INSTANCE).instance_to_dict(INSTANCE)


def _text(form):
    doc = DOCUMENT
    if form == "rows":
        columns = doc["messages"]
        rows = [dict(zip(MESSAGE_FIELDS, row)) for row in zip(*columns.values())]
        doc = {**doc, "version": 1, "messages": rows}
    return json.dumps(doc)


@pytest.mark.parametrize("form", ["rows", "columns"])
def test_parse_instance(benchmark, form):
    parsed = benchmark(api.parse_instance, _text(form))
    assert parsed == INSTANCE
    assert ring_bfl(parsed) == EXPECTED


def test_ring_bfl(benchmark):
    parsed = api.parse_instance(_text("columns"))
    schedule = benchmark(ring_bfl, parsed)
    assert schedule.trajectories == EXPECTED.trajectories


@pytest.mark.parametrize("form", ["segments", "objects"])
def test_ring_schedule(benchmark, form):
    if form == "segments":
        schedule = benchmark(RingSchedule.from_segments, INSTANCE.n, EXPECTED.segments)
        assert set(vars(schedule)) == {"segments", "n"}
    else:
        schedule = benchmark(RingSchedule, EXPECTED.trajectories)
    assert schedule == EXPECTED


def _schedule_rows(schedule):
    """The version-1 ring writer: one object per trajectory."""
    return {
        "format": "repro-ring-schedule",
        "version": 1,
        "n": INSTANCE.n,
        "throughput": schedule.throughput,
        "trajectories": [
            {
                "message_id": t.message_id,
                "source": t.source,
                "depart": t.depart,
                "arrive": t.arrive,
                "span": t.span,
            }
            for t in schedule.trajectories
        ],
    }


RING = get_topology("ring")
_WRITERS = {"rows": _schedule_rows, "columns": RING.schedule_to_dict}


@pytest.mark.parametrize("form", ["rows", "columns"])
def test_schedule_to_dict(benchmark, form):
    schedule = ring_bfl(api.parse_instance(_text("columns")))
    doc = benchmark(_WRITERS[form], schedule)
    assert RING.schedule_from_dict(doc) == EXPECTED


@pytest.mark.parametrize("form", ["rows", "columns"])
def test_schedule_from_dict(benchmark, form):
    doc = json.loads(json.dumps(_WRITERS[form](EXPECTED)))
    parsed = benchmark(RING.schedule_from_dict, doc)
    assert parsed == EXPECTED


def test_offline_operation(benchmark):
    text = _text("columns")

    def operation():
        result = api.solve(api.parse_instance(text), "bufferless", "bfl")
        json.dumps(result.to_dict())
        return result

    result = benchmark(operation)
    assert result.schedule == EXPECTED
