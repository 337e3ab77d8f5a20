"""Golden MILP programs: what every exact solver hands HiGHS, and gets back.

``tests/data/milp_golden.json.gz`` holds, for seeded small instances of
each of the five exact MILPs (line bufferless and buffered, unweighted
and weighted; ring bufferless and buffered; mesh XY at conversion
delays 0 and 2), a digest of every ``milp(...)`` call's inputs — the
objective, the constraint matrix in canonical CSR form, the row bounds,
the integrality, the variable bounds and the options — together with the
schedule the solver returned and its ``optimal`` flag.  It also holds
:func:`~repro.exact.bounds.bufferless_lp_bound`'s value on each line
instance.  The instances are stored in the fixture too, so a change to a
workload generator cannot move what the solvers are compared against.

Regenerate (only when a change is *meant* to alter a MILP)::

    PYTHONPATH=src python tests/milp_golden.py --write

``tests/test_milp_golden.py`` replays every case through :func:`run`.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import scipy.sparse as sp

from repro.budget import SolverBudget
from repro.topology import get_topology, topology_of
from repro.workloads import general_instance, random_mesh_instance, random_ring_instance

PATH = Path(__file__).parent / "data" / "milp_golden.json.gz"

#: Modules whose ``milp`` name is wrapped while a case runs: every
#: ``scipy.optimize.milp`` call of the exact solvers goes through it.
MILP_HOMES = ("repro.exact.milp",)

SEEDS = (1, 2, 3)


def _instances() -> dict[str, Any]:
    def rng(*key: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([24, *key]))

    out: dict[str, Any] = {}
    for seed in SEEDS:
        out[f"line{seed}"] = general_instance(
            rng(1, seed), n=8, k=16, max_release=4, max_slack=3
        )
        out[f"ring{seed}"] = random_ring_instance(
            rng(2, seed), n=6, k=14, max_release=4, max_slack=3
        )
        out[f"mesh{seed}"] = random_mesh_instance(
            rng(3, seed), rows=3, cols=3, k=14, max_release=3, max_slack=4
        )
    return out


def _weights(inst: Any, seed: int) -> dict[int, float]:
    r = np.random.default_rng(np.random.SeedSequence([24, 4, seed]))
    return {m.id: float(r.integers(1, 6)) / 2 for m in inst}


def _cases() -> list[dict[str, Any]]:
    cases: list[dict[str, Any]] = []
    for seed in SEEDS:
        line, ring, mesh = f"line{seed}", f"ring{seed}", f"mesh{seed}"
        cases += [
            {"solver": "line_bufferless", "instance": line, "options": {}},
            {"solver": "line_bufferless", "instance": line, "options": {"weighted": seed}},
            {"solver": "line_buffered", "instance": line, "options": {}},
            {"solver": "line_buffered", "instance": line, "options": {"weighted": seed}},
            {"solver": "ring_bufferless", "instance": ring, "options": {}},
            {"solver": "ring_buffered", "instance": ring, "options": {}},
            {"solver": "mesh_xy", "instance": mesh, "options": {"conversion_delay": 0}},
            {"solver": "mesh_xy", "instance": mesh, "options": {"conversion_delay": 2}},
        ]
    # The limit options must reach HiGHS unchanged (generous: none trips).
    cases += [
        {"solver": "line_bufferless", "instance": "line1", "options": {"budget_nodes": 10**6}},
        {"solver": "line_buffered", "instance": "line2", "options": {"time_limit": 600.0}},
        {"solver": "ring_bufferless", "instance": "ring1", "options": {"time_limit": 600.0}},
        {"solver": "ring_buffered", "instance": "ring2", "options": {"time_limit": 600.0}},
        {"solver": "mesh_xy", "instance": "mesh3", "options": {"time_limit": 600.0}},
    ]
    return cases


def case_id(case: dict[str, Any]) -> str:
    opts = "-".join(f"{k}={v}" for k, v in sorted(case["options"].items()))
    return f"{case['solver']}-{case['instance']}" + (f"-{opts}" if opts else "")


# --------------------------------------------------------------------- #
# Running a case
# --------------------------------------------------------------------- #


def _call(case: dict[str, Any], inst: Any) -> Any:
    from repro.exact.bufferless import _milp_bufferless
    from repro.exact.buffered import opt_buffered
    from repro.topology.mesh_exact import opt_mesh_xy
    from repro.topology.ring_exact import opt_ring_buffered, opt_ring_bufferless

    opts = dict(case["options"])
    kw: dict[str, Any] = {}
    if "weighted" in opts:
        kw["weights"] = _weights(inst, opts.pop("weighted"))
    if "budget_nodes" in opts:
        kw["budget"] = SolverBudget(nodes=opts.pop("budget_nodes"))
    kw.update(opts)
    solver = {
        "line_bufferless": _milp_bufferless,
        "line_buffered": opt_buffered,
        "ring_bufferless": opt_ring_bufferless,
        "ring_buffered": opt_ring_buffered,
        "mesh_xy": opt_mesh_xy,
    }[case["solver"]]
    return solver(inst, **kw)


def _canonical(a: Any) -> sp.csr_matrix:
    m = sp.csr_matrix(a, dtype=np.float64, copy=True)
    m.sum_duplicates()
    m.sort_indices()
    return m


def digest(
    c: Any,
    *,
    integrality: Any = None,
    bounds: Any = None,
    constraints: Any = None,
    options: Any = None,
) -> dict[str, Any]:
    """A ``milp(...)`` call's inputs as a SHA-256 plus the problem's shape.

    Scalars are broadcast to the vectors HiGHS sees and ``-0.0`` reads as
    ``0.0``, so two calls digest alike exactly when they pose one problem.
    """
    c = np.asarray(c, dtype=np.float64) + 0.0
    nvar = c.shape[0]
    h = hashlib.sha256()

    def put(label: str, arr: Any, shape: tuple[int, ...]) -> None:
        arr = np.ascontiguousarray(np.broadcast_to(np.asarray(arr, np.float64), shape))
        h.update(f"{label}{arr.shape}".encode())
        h.update((arr + 0.0).tobytes())

    put("c", c, (nvar,))
    put("integrality", 0 if integrality is None else integrality, (nvar,))
    put("lb", 0 if bounds is None else bounds.lb, (nvar,))
    put("ub", np.inf if bounds is None else bounds.ub, (nvar,))
    if constraints is None:
        constraints = []
    elif not isinstance(constraints, (list, tuple)):
        constraints = [constraints]
    nrow = 0
    for lc in constraints:
        a = _canonical(lc.A)
        rows = a.shape[0]
        nrow += rows
        put("indptr", a.indptr, a.indptr.shape)
        put("indices", a.indices, a.indices.shape)
        put("data", a.data, a.data.shape)
        put("row_lb", lc.lb, (rows,))
        put("row_ub", lc.ub, (rows,))
    h.update(json.dumps(options or {}, sort_keys=True).encode())
    return {"sha256": h.hexdigest(), "variables": nvar, "constraints": nrow}


@contextlib.contextmanager
def recording(homes: tuple[str, ...] = MILP_HOMES) -> Iterator[list[dict[str, Any]]]:
    """Wrap ``milp`` in ``homes``; yields the digests of the calls made."""
    import importlib

    calls: list[dict[str, Any]] = []
    patched = []
    for name in homes:
        module = importlib.import_module(name)
        real = module.milp

        def wrapped(c, _real=real, **kw):
            calls.append(digest(c, **kw))
            return _real(c, **kw)

        module.milp = wrapped
        patched.append((module, real))
    try:
        yield calls
    finally:
        for module, real in patched:
            module.milp = real


def instance_of(golden: dict[str, Any], name: str) -> Any:
    doc = golden["instances"][name]
    return get_topology(doc.get("topology", "line")).instance_from_dict(doc)


def run(
    golden: dict[str, Any], case: dict[str, Any], homes: tuple[str, ...] = MILP_HOMES
) -> dict[str, Any]:
    """One case's record: the ``milp`` call digests, schedule and flag."""
    inst = instance_of(golden, case["instance"])
    with recording(homes) as calls:
        result = _call(case, inst)
    return {
        "calls": calls,
        "schedule": topology_of(inst).schedule_to_dict(result.schedule),
        "optimal": bool(result.optimal),
    }


def lp_bounds(golden: dict[str, Any]) -> dict[str, float]:
    from repro.exact.bounds import bufferless_lp_bound

    return {
        name: bufferless_lp_bound(instance_of(golden, name))
        for name in sorted(golden["instances"])
        if name.startswith("line")
    }


# --------------------------------------------------------------------- #
# Reading and writing
# --------------------------------------------------------------------- #


def load() -> dict[str, Any]:
    with gzip.open(PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def build(homes: tuple[str, ...] = MILP_HOMES) -> dict[str, Any]:
    golden: dict[str, Any] = {
        "instances": {
            name: topology_of(inst).instance_to_dict(inst)
            for name, inst in _instances().items()
        },
        "cases": [],
    }
    for case in _cases():
        golden["cases"].append({**case, **run(golden, case, homes)})
    golden["lp_bounds"] = lp_bounds(golden)
    return json.loads(json.dumps(golden))


def write(golden: dict[str, Any]) -> None:
    text = json.dumps(golden, separators=(",", ":"), sort_keys=True)
    with gzip.GzipFile(PATH, "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    print(f"wrote {PATH}")


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    write(build())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
