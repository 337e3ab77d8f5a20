"""Wire benchmarks — instance and schedule documents on a line.

Times the one parse entrypoint the CLI, the server and the client share
(``api.parse_instance``, on a JSON dict and on JSON text), and the
schedule half of a served BFL solve: ``io.schedule_to_dict`` on the
kernel's schedule, ``io.schedule_from_dict`` and the client's
``ScheduleResult.from_dict``.  Sizes are the served one (n=32, k=200) and
a large one (n=64, k=1000).  Each case asserts that what it returns
equals the object-built instance or schedule (the readable BFL's), so a
fast path that answers a different problem fails here.
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
@pytest.mark.parametrize("form", ["dict", "text"])
def test_parse_instance(benchmark, n, k, form):
    inst, doc = _document(n, k)
    payload = json.dumps(doc) if form == "text" else doc
    parsed = benchmark(api.parse_instance, payload)
    assert parsed == inst
    assert len(parsed) == k


def _solved(n, k):
    """The kernel's (table-built) result and the readable BFL's
    object-built schedule for the same instance."""
    inst, _ = _document(n, k)
    return api.solve(inst, "bufferless", "bfl"), bfl(inst)


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
def test_schedule_to_dict(benchmark, n, k):
    result, expected = _solved(n, k)
    doc = benchmark(schedule_to_dict, result.schedule)
    assert doc == schedule_to_dict(expected)


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
def test_schedule_from_dict(benchmark, n, k):
    _, expected = _solved(n, k)
    doc = json.loads(json.dumps(schedule_to_dict(expected)))
    parsed = benchmark(schedule_from_dict, doc)
    assert parsed == expected


@pytest.mark.parametrize("n,k", SIZES, ids=[f"n{n}-k{k}" for n, k in SIZES])
def test_result_from_dict(benchmark, n, k):
    result, expected = _solved(n, k)
    doc = json.loads(json.dumps(result.to_dict()))
    decoded = benchmark(api.ScheduleResult.from_dict, doc)
    assert decoded.schedule == expected
    assert decoded.to_dict() == doc
