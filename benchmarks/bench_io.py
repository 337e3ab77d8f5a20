"""Parse benchmark — ``api.parse_instance`` on line documents.

Times the one parse entrypoint the CLI, the server and the client share,
on a JSON dict and on JSON text, at the served size (n=32, k=200) and a
large one (n=64, k=1000).  Each case asserts that the parsed instance
equals the object-built one it was serialized from, so a fast parse that
answers a different problem fails here.  ``perfbench/run.py --workload
serve --trace 1`` reports the same layer as ``api.parse_instance.ms``.
"""

import json

import numpy as np
import pytest

from repro import api
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
