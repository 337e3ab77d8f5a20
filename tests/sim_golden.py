"""Golden simulator results: the cases, their encoding and the fixture.

``tests/data/sim_golden.json.gz`` holds full ``SimulationResult``s of the
python step loop — schedule, delivered and dropped ids, ``drop_events``,
``launch_events`` and every ``SimulationStats`` field — for each built-in
policy and D-BFL, capacity ``None``/1/2 under every admission policy,
with and without a ``FaultPlan``, on a line, a ring and a mesh, plus the
offline benchmark's simulator cells (``BENCH_CASES``).  The instances
and fault plans are stored in the fixture too, so a later change to a
workload generator cannot move what the results are compared against.

Regenerate (only when a change is *meant* to alter simulator results)::

    PYTHONPATH=src python tests/sim_golden.py --write

``tests/test_sim_golden.py`` and ``benchmarks/bench_simulator.py`` read
it through :func:`load`, :func:`case_inputs` and :func:`matches`.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.baselines.buffered_greedy import (
    EDFPolicy,
    FCFSPolicy,
    MinLaxityPolicy,
    NearestDestPolicy,
)
from repro.buffers import ADMISSION_POLICIES
from repro.core.dbfl import DBFLPolicy
from repro.network.faults import FaultPlan, LinkFailure, NodeStall
from repro.network.simulator import simulate
from repro.topology import get_topology, topology_of
from repro.workloads import general_instance, random_mesh_instance, random_ring_instance

PATH = Path(__file__).parent / "data" / "sim_golden.json.gz"

POLICIES = {
    "edf": EDFPolicy,
    "fcfs": FCFSPolicy,
    "laxity": MinLaxityPolicy,
    "nearest": NearestDestPolicy,
    "dbfl": DBFLPolicy,
}
#: Nearest-destination and D-BFL order by ``-source`` and walk ``v + 1``,
#: which only int node ids support, so the mesh runs the other three.
MESH_POLICIES = ("edf", "fcfs", "laxity")
CAPACITIES = (None, 1, 2)

#: The offline benchmark's simulator cells (``perfbench`` ``offline``:
#: n=32, k=120-150): every built-in policy at capacity ``None`` and 2.
BENCH_CASES = [
    (f"bench-{policy}-cap{cap}", policy, cap)
    for policy in POLICIES
    for cap in (None, 2)
]


def _instances() -> dict[str, Any]:
    def rng(*key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(list(key)))

    return {
        "line": general_instance(rng(21, 1), n=12, k=40, max_release=20, max_slack=6),
        "ring": random_ring_instance(
            rng(21, 2), n=10, k=36, max_release=18, max_slack=6
        ),
        "mesh": random_mesh_instance(
            rng(21, 3), rows=4, cols=4, k=30, max_release=12, max_slack=5
        ),
        "bench": general_instance(rng(21, 4), n=32, k=150, max_release=45, max_slack=8),
    }


def _fault_plan(name: str, inst: Any) -> FaultPlan:
    topo = topology_of(inst)
    links, nodes = list(topo.links(inst)), list(topo.nodes(inst))
    r = np.random.default_rng(np.random.SeedSequence([21, 10 + "lrm".index(name[0])]))

    def pick(seq: list[Any]) -> Any:
        return seq[int(r.integers(0, len(seq)))]

    def window() -> tuple[int, int]:
        start = int(r.integers(0, 15))
        return start, start + int(r.integers(1, 8))

    return FaultPlan(
        link_failures=tuple(LinkFailure(pick(links), *window()) for _ in range(3)),
        node_stalls=tuple(NodeStall(pick(nodes), *window()) for _ in range(3)),
        drop_rate=0.1,
        drop_seed=int(r.integers(0, 10**6)),
    )


def _cases() -> list[dict[str, Any]]:
    cases = []
    for shape in ("line", "ring", "mesh"):
        for policy in MESH_POLICIES if shape == "mesh" else POLICIES:
            for cap in CAPACITIES:
                for admission in ADMISSION_POLICIES:
                    for faulted in (False, True):
                        cases.append(
                            {
                                "instance": shape,
                                "policy": policy,
                                "capacity": cap,
                                "admission": admission,
                                "faults": shape if faulted else None,
                            }
                        )
    for name, policy, cap in BENCH_CASES:
        cases.append(
            {
                "name": name,
                "instance": "bench",
                "policy": policy,
                "capacity": cap,
                "admission": "drop-new",
                "faults": None,
            }
        )
    return cases


# --------------------------------------------------------------------- #
# Encoding (JSON-plain: tuples become lists, dict keys become pairs)
# --------------------------------------------------------------------- #


def _plain(value: Any) -> Any:
    return json.loads(json.dumps(value))


def _tuples(value: Any) -> Any:
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def encode(result: Any, topo: Any) -> dict[str, Any]:
    """A ``SimulationResult`` as plain JSON data, every field included."""
    stats = dataclasses.asdict(result.stats)
    for name in ("link_busy_steps", "peak_buffer"):
        stats[name] = sorted([k, v] for k, v in stats[name].items())
    return _plain(
        {
            "schedule": topo.schedule_to_dict(result.schedule),
            "delivered_ids": sorted(result.delivered_ids),
            "dropped_ids": sorted(result.dropped_ids),
            "drop_events": result.drop_events,
            "launch_events": result.launch_events,
            "stats": stats,
        }
    )


def matches(result: Any, topo: Any, stored: dict[str, Any]) -> bool:
    """Whether ``result`` equals a stored :func:`encode`: the schedule as
    decoded objects (a stored document may be any version its topology
    reads, and line documents changed form), every other field as data."""
    got, stored = encode(result, topo), dict(stored)
    del got["schedule"]
    return topo.schedule_from_dict(stored.pop("schedule")) == result.schedule and got == stored


def _encode_faults(plan: FaultPlan) -> dict[str, Any]:
    return _plain(
        {
            "link_failures": [(f.link, f.start, f.end) for f in plan.link_failures],
            "node_stalls": [(s.node, s.start, s.end) for s in plan.node_stalls],
            "drop_rate": plan.drop_rate,
            "drop_seed": plan.drop_seed,
        }
    )


def _decode_faults(doc: dict[str, Any]) -> FaultPlan:
    return FaultPlan(
        link_failures=tuple(
            LinkFailure(_tuples(link), s, e) for link, s, e in doc["link_failures"]
        ),
        node_stalls=tuple(
            NodeStall(_tuples(node), s, e) for node, s, e in doc["node_stalls"]
        ),
        drop_rate=doc["drop_rate"],
        drop_seed=doc["drop_seed"],
    )


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #


def load() -> dict[str, Any]:
    with gzip.open(PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def case_inputs(golden: dict[str, Any], case: dict[str, Any]) -> tuple[Any, dict]:
    """``(instance, simulate keyword arguments)`` for one fixture case."""
    doc = golden["instances"][case["instance"]]
    inst = get_topology(doc.get("topology", "line")).instance_from_dict(doc)
    kw: dict[str, Any] = {
        "buffer_capacity": case["capacity"],
        "admission": case["admission"],
        "backend": "python",
    }
    if case["faults"] is not None:
        kw["faults"] = _decode_faults(golden["faults"][case["faults"]])
    return inst, kw


def case_id(case: dict[str, Any]) -> str:
    if "name" in case:
        return case["name"]
    faults = "faults" if case["faults"] else "clean"
    return (
        f"{case['instance']}-{case['policy']}-cap{case['capacity']}-"
        f"{case['admission']}-{faults}"
    )


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


def build() -> dict[str, Any]:
    instances = _instances()
    golden: dict[str, Any] = {
        "instances": {
            name: topology_of(inst).instance_to_dict(inst)
            for name, inst in instances.items()
        },
        "faults": {
            name: _encode_faults(_fault_plan(name, instances[name]))
            for name in ("line", "ring", "mesh")
        },
        "cases": [],
    }
    for case in _cases():
        inst, kw = case_inputs(golden, case)
        result = simulate(inst, POLICIES[case["policy"]](), **kw)
        golden["cases"].append({**case, "result": encode(result, topology_of(inst))})
    return golden


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    text = json.dumps(build(), separators=(",", ":"), sort_keys=True)
    with gzip.GzipFile(PATH, "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
