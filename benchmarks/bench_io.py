"""Wire benchmarks — instance and schedule documents on a line.

Times the one parse entrypoint the CLI, the server and the client share
(``api.parse_instance``, on a JSON dict and on JSON text), and the
schedule half of a served BFL solve: ``io.schedule_to_dict`` on the
kernel's schedule, ``io.schedule_from_dict`` and the client's
``ScheduleResult.from_dict``.  Sizes are the served one (n=32, k=200) and
a large one (n=64, k=1000).  The parse cases run on both instance forms:
``columns`` (version 2, what the writer emits) and ``rows`` (version 1,
one object per message, still read).  The ``schedule_to_dict`` and
``schedule_from_dict`` cases run on three schedule forms: ``segments``
(version 3, four int columns, what the writer emits for a bufferless
schedule), ``columns`` (version 2, a crossings array per row, what it
emits for a buffered one) and ``rows`` (version 1, still read), so the
cost of each form shows side by side.  Each case asserts that what it returns equals the
object-built instance or schedule (the readable BFL's), so a fast path
that answers a different problem fails here.
``perfbench/run.py --workload serve --trace 1`` reports the same layers
as ``api.parse_instance.ms``, ``api.to_dict.ms`` and ``client.decode.ms``.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.core.bfl import bfl
from repro.io import schedule_from_dict, schedule_to_dict
from repro.topology import topology_of
from repro.workloads import general_instance

SIZES = [(32, 200), (64, 1000)]
FORMS = ["rows", "columns"]
SCHEDULE_FORMS = ["rows", "columns", "segments"]
MESSAGE_FIELDS = ("id", "source", "dest", "release", "deadline")


def _instance_rows(doc):
    """A version-2 instance document in the version-1 form."""
    rows = [dict(zip(MESSAGE_FIELDS, row)) for row in zip(*doc["messages"].values())]
    return {**doc, "version": 1, "messages": rows}


def _schedule_rows(schedule):
    """The version-1 writer: one object per trajectory."""
    return {
        "format": "repro-schedule",
        "version": 1,
        "trajectories": [
            {"message_id": mid, "source": source, "crossings": list(crossings)}
            for mid, source, crossings in zip(*schedule.table)
        ],
    }


def _schedule_crossings(schedule):
    """The version-2 writer: a crossings array per trajectory."""
    ids, sources, crossings = schedule.table
    return {
        "format": "repro-schedule",
        "version": 2,
        "trajectories": {
            "message_id": list(ids),
            "source": list(sources),
            "crossings": list(map(list, crossings)),
        },
    }


_WRITERS = {"rows": _schedule_rows, "columns": _schedule_crossings, "segments": schedule_to_dict}


def _document(n, k):
    inst = general_instance(
        np.random.default_rng(np.random.SeedSequence([n, k])),
        n=n,
        k=k,
        max_release=2 * n,
        max_slack=8,
    )
    return inst, topology_of(inst).instance_to_dict(inst)


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
@pytest.mark.parametrize("payload_type", ["dict", "text"])
@pytest.mark.parametrize("form", FORMS)
def test_parse_instance(benchmark, n, k, payload_type, form):
    inst, doc = _document(n, k)
    if form == "rows":
        doc = _instance_rows(doc)
    payload = json.dumps(doc) if payload_type == "text" else doc
    parsed = benchmark(api.parse_instance, payload)
    assert parsed == inst
    assert len(parsed) == k


def _solved(n, k):
    """The kernel's (segment-built) result and the readable BFL's
    object-built schedule for the same instance."""
    inst, _ = _document(n, k)
    return api.solve(inst, "bufferless", "bfl"), bfl(inst)


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
@pytest.mark.parametrize("form", SCHEDULE_FORMS)
def test_schedule_to_dict(benchmark, n, k, form):
    result, expected = _solved(n, k)
    doc = benchmark(_WRITERS[form], result.schedule)
    assert doc == _WRITERS[form](expected)


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
@pytest.mark.parametrize("form", SCHEDULE_FORMS)
def test_schedule_from_dict(benchmark, n, k, form):
    _, expected = _solved(n, k)
    doc = json.loads(json.dumps(_WRITERS[form](expected)))
    parsed = benchmark(schedule_from_dict, doc)
    assert parsed == expected


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
def test_result_from_dict(benchmark, n, k):
    result, expected = _solved(n, k)
    doc = json.loads(json.dumps(result.to_dict()))
    decoded = benchmark(api.ScheduleResult.from_dict, doc)
    assert decoded.schedule == expected
    assert decoded.to_dict() == doc
