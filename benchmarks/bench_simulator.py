"""Simulator benchmarks — the python step loop at the offline cells' size.

Times ``simulate`` (python backend) for each built-in buffered policy
(EDF, FCFS, least-laxity, nearest-destination) and D-BFL on an n=32,
k=150 line, the size of ``perfbench``'s ``offline`` simulator cells, at
capacity ``None`` and 2.  Each case asserts that its whole
``SimulationResult`` equals the golden one in
``tests/data/sim_golden.json.gz`` (see ``tests/sim_golden.py``), so a
faster loop that forwards, drops or counts differently fails here.
``perfbench/run.py --workload offline --trace 1`` reports the same cells
end to end as ``solve.line-buffered-bfl.ms`` (D-BFL),
``solve.line-buffered-greedy.ms`` (EDF, capacity 2) and
``solve.line-online-greedy.ms``.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.network.simulator import simulate
from repro.topology import topology_of


def _golden_module():
    path = Path(__file__).resolve().parents[1] / "tests" / "sim_golden.py"
    spec = importlib.util.spec_from_file_location("sim_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sim_golden = _golden_module()
GOLDEN = sim_golden.load()
CASES = [case for case in GOLDEN["cases"] if case["instance"] == "bench"]


@pytest.mark.parametrize("case", CASES, ids=sim_golden.case_id)
def test_simulate(benchmark, case):
    inst, kw = sim_golden.case_inputs(GOLDEN, case)
    policy_cls = sim_golden.POLICIES[case["policy"]]
    result = benchmark(lambda: simulate(inst, policy_cls(), **kw))
    assert sim_golden.matches(result, topology_of(inst), case["result"])
