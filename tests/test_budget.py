"""Structured solver budgets: typed exhaustion with certified bounds."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import BudgetExceeded, ReproError, SolverBackendError, SolverBudget, api
from repro.core.instance import make_instance
from repro.core.schedule import Schedule
from repro.exact import (
    bounds,
    bufferless,
    bufferless_lp_bound,
    cut_upper_bound,
    opt_buffered,
    opt_buffered_bruteforce,
    opt_bufferless,
    opt_bufferless_bnb,
)
from repro.exact import milp as exact_milp
from repro.topology.mesh_exact import opt_mesh_xy
from repro.topology.ring_exact import opt_ring_buffered, opt_ring_bufferless
from repro.workloads import random_mesh_instance, random_ring_instance

from .conftest import random_lr_instance


@pytest.fixture
def small():
    rng = np.random.default_rng(3)
    return random_lr_instance(rng, n_lo=6, n_hi=6, k_lo=6, k_hi=6, max_slack=3)


class TestBudgetTypes:
    def test_budget_validation(self):
        with pytest.raises(ValueError, match="wall_time and/or nodes"):
            SolverBudget()
        with pytest.raises(ValueError, match="nodes"):
            SolverBudget(nodes=0)
        with pytest.raises(ValueError, match="wall_time"):
            SolverBudget(wall_time=-1.0)

    def test_exception_hierarchy(self):
        # the legacy node-limit contract caught bare RuntimeError; the typed
        # exceptions must keep satisfying it
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(BudgetExceeded, ReproError)
        assert issubclass(SolverBackendError, RuntimeError)
        assert issubclass(SolverBackendError, ReproError)

    def test_meter_counts_nodes(self):
        meter = SolverBudget(nodes=3).meter()
        assert meter.tick() is None
        assert meter.tick() is None
        assert meter.tick() is None  # exactly at the limit: still in budget
        assert meter.tick() == "nodes"
        assert meter.spent()["nodes"] == 4


class TestBnbBudget:
    def test_raise_carries_certified_bounds(self, small):
        opt = opt_bufferless_bnb(small).schedule.throughput
        with pytest.raises(BudgetExceeded, match="exceeded") as excinfo:
            opt_bufferless_bnb(small, budget=SolverBudget(nodes=3))
        exc = excinfo.value
        assert exc.lower <= opt <= exc.upper
        assert exc.spent["nodes"] >= 3
        assert exc.incumbent is not None
        assert exc.incumbent.throughput == exc.lower

    def test_legacy_node_limit_still_budget_typed(self, small):
        with pytest.raises(BudgetExceeded):
            opt_bufferless_bnb(small, node_limit=2)

    def test_unbudgeted_solve_unchanged(self, small):
        budgeted = opt_bufferless_bnb(small, budget=SolverBudget(nodes=10**9))
        plain = opt_bufferless_bnb(small)
        assert budgeted.schedule.delivered_ids == plain.schedule.delivered_ids
        assert budgeted.optimal and plain.optimal


class TestBruteforceBudget:
    def test_raise_carries_certified_bounds(self):
        # four messages contending for link 1 at step 1: OPT = 1, and the
        # fourth subset checked is the second of size 3
        inst = make_instance(4, [(0, 2, 0, 2)] * 3 + [(1, 3, 1, 3)])
        assert opt_buffered_bruteforce(inst).schedule.throughput == 1
        with pytest.raises(BudgetExceeded, match="nodes budget") as excinfo:
            opt_buffered_bruteforce(inst, budget=SolverBudget(nodes=3))
        exc = excinfo.value
        assert exc.lower == 0 and exc.incumbent is None
        assert exc.upper == 3
        assert exc.spent["nodes"] == 4

    def test_wall_time_trips(self, small):
        with pytest.raises(BudgetExceeded, match="wall_time budget"):
            opt_buffered_bruteforce(small, budget=SolverBudget(wall_time=1e-9))

    def test_facade_degrades(self, small):
        opt = opt_buffered_bruteforce(small).schedule.throughput
        res = api.solve(
            small,
            "buffered",
            "exact",
            solver="bruteforce",
            budget=SolverBudget(nodes=1),
            on_budget="degrade",
        )
        assert res.lower <= opt <= res.upper
        assert type(res.schedule) is Schedule
        roomy = api.solve(
            small, "buffered", "exact", solver="bruteforce", budget=SolverBudget(nodes=10**6)
        )
        assert roomy.status == "optimal" and roomy.delivered == opt


class TestApiDegrade:
    def test_bnb_degrade_brackets_opt(self, small):
        opt = opt_bufferless_bnb(small).schedule.throughput
        res = api.solve(
            small,
            method="exact",
            solver="bnb",
            budget=SolverBudget(nodes=3),
            on_budget="degrade",
        )
        assert res.status in ("bounded", "optimal")
        assert res.lower <= opt <= res.upper
        # the returned schedule is the incumbent, hence the lower bound
        assert res.schedule.throughput == res.lower
        assert res.optimal is (res.status == "optimal")
        if res.status == "bounded":
            assert "budget" in res.telemetry

    def test_milp_wall_budget_degrades_both_regimes(self, small):
        opt_bl = opt_bufferless(small).schedule.throughput
        res = api.solve(
            small, budget=SolverBudget(wall_time=1e-6), on_budget="degrade"
        )
        assert res.status in ("bounded", "infeasible", "optimal")
        upper = res.upper if res.upper is not None else float("inf")
        assert res.lower <= opt_bl <= upper

        opt_b = opt_buffered(small).schedule.throughput
        res_b = api.solve(
            small,
            regime="buffered",
            budget=SolverBudget(wall_time=1e-6),
            on_budget="degrade",
        )
        upper_b = res_b.upper if res_b.upper is not None else float("inf")
        assert res_b.lower <= opt_b <= upper_b

    def test_default_on_budget_raises(self, small):
        with pytest.raises(BudgetExceeded):
            api.solve(small, method="exact", solver="bnb", budget=SolverBudget(nodes=2))

    def test_on_budget_value_checked(self, small):
        with pytest.raises(ValueError, match="on_budget"):
            api.solve(small, on_budget="ignore")

    def test_budget_rejected_for_heuristics(self, small):
        with pytest.raises(TypeError, match="budget"):
            api.solve(small, method="bfl", budget=SolverBudget(nodes=5))

    def test_optimal_solve_reports_tight_bounds(self, small):
        res = api.solve(small, method="exact")
        assert res.status == "optimal"
        assert res.lower == res.upper == res.schedule.throughput


class TestCertificateBudget:
    def test_certified_solve_is_optimal_under_budget(self, small):
        res = api.solve(
            small, method="exact", budget=SolverBudget(wall_time=60.0), on_budget="degrade"
        )
        assert res.status == "optimal"
        assert res.lower == res.upper == res.schedule.throughput
        assert res.delivered == cut_upper_bound(small)

    def test_budget_spent_before_the_milp_raises_with_cut_bound(self, monkeypatch):
        # the cut bound (3) is loose here; with no search nodes the call
        # needs the MILP, and the budget is gone before it starts
        monkeypatch.setattr(bufferless, "CERTIFY_NODES", 0)
        inst = make_instance(4, [(0, 2, 0, 3), (0, 1, 1, 2), (1, 3, 1, 3)])
        with pytest.raises(BudgetExceeded, match="wall time") as excinfo:
            opt_bufferless(inst, budget=SolverBudget(wall_time=1e-9))
        exc = excinfo.value
        assert exc.lower <= 2 <= exc.upper == 3
        assert exc.incumbent is not None
        assert exc.incumbent.throughput == exc.lower


def _ring():
    return random_ring_instance(np.random.default_rng(7), n=8, k=10)


def _mesh():
    return random_mesh_instance(np.random.default_rng(3), rows=4, cols=4, k=10)


RING_AND_MESH = [
    pytest.param(_ring, "bufferless", id="ring-bufferless"),
    pytest.param(_ring, "buffered", id="ring-buffered"),
    pytest.param(_mesh, "bufferless", id="mesh-bufferless"),
]


class TestRingMeshBudget:
    @pytest.mark.parametrize("make,regime", RING_AND_MESH)
    @pytest.mark.parametrize(
        "budget", [SolverBudget(wall_time=1e-6), SolverBudget(nodes=1)], ids=["wall", "nodes"]
    )
    def test_degrade_brackets_opt(self, make, regime, budget):
        inst = make()
        opt = api.solve(inst, regime, "exact").delivered
        res = api.solve(inst, regime, "exact", budget=budget, on_budget="degrade")
        assert res.status in ("bounded", "infeasible", "optimal")
        assert res.lower <= opt <= res.upper
        assert res.schedule.throughput == res.lower

    @pytest.mark.parametrize("make,regime", RING_AND_MESH)
    def test_degrade_keeps_the_topology_schedule_type(self, make, regime):
        inst = make()
        res = api.solve(
            inst,
            regime,
            "exact",
            budget=SolverBudget(wall_time=1e-6),
            on_budget="degrade",
        )
        want = type(api.solve(inst, regime, "exact").schedule)
        assert want is not Schedule
        assert type(res.schedule) is want

    @pytest.mark.parametrize("make,regime", RING_AND_MESH)
    def test_limit_hit_with_incumbent_carries_certified_bounds(
        self, make, regime, monkeypatch
    ):
        # HiGHS stops on a limit holding the optimum but proving only
        # ``OPT + 1``: the call raises with the incumbent and both bounds.
        inst = make()
        opt = api.solve(inst, regime, "exact").delivered
        real = exact_milp.milp

        def limited(c, **kw):
            res = real(c, **kw)
            return SimpleNamespace(
                x=res.x, status=1, message="limit", mip_dual_bound=res.fun - 1.5
            )

        monkeypatch.setattr(exact_milp, "milp", limited)
        with pytest.raises(BudgetExceeded, match="before proving optimality") as excinfo:
            api.solve(inst, regime, "exact", budget=SolverBudget(nodes=10))
        exc = excinfo.value
        assert exc.lower == exc.incumbent.throughput == opt
        assert exc.upper == min(opt + 1, sum(1 for m in inst if m.feasible))


def _no_solution(c, **kw):
    return SimpleNamespace(x=None, status=4, message="solver error")


class TestBackendFailure:
    """A HiGHS run with no solution is a typed ``SolverBackendError`` on
    every MILP, and on the LP bound."""

    @pytest.mark.parametrize(
        "solver,make",
        [
            pytest.param(bufferless._milp_bufferless, None, id="line-bufferless"),
            pytest.param(opt_buffered, None, id="line-buffered"),
            pytest.param(opt_ring_bufferless, _ring, id="ring-bufferless"),
            pytest.param(opt_ring_buffered, _ring, id="ring-buffered"),
            pytest.param(opt_mesh_xy, _mesh, id="mesh"),
        ],
    )
    def test_milp_failure_is_typed(self, small, solver, make, monkeypatch):
        monkeypatch.setattr(exact_milp, "milp", _no_solution)
        with pytest.raises(SolverBackendError, match="HiGHS failed"):
            solver(small if make is None else make())

    @pytest.mark.parametrize(
        "make,regime", [pytest.param(None, "buffered", id="line-buffered"), *RING_AND_MESH]
    )
    def test_every_exact_cell_surfaces_it(self, small, make, regime, monkeypatch):
        monkeypatch.setattr(exact_milp, "milp", _no_solution)
        with pytest.raises(SolverBackendError):
            api.solve(
                small if make is None else make(),
                regime,
                "exact",
                budget=SolverBudget(wall_time=60.0),
            )

    def test_lp_bound_failure_is_typed(self, small, monkeypatch):
        monkeypatch.setattr(
            bounds, "linprog", lambda **kw: SimpleNamespace(x=None, message="solver error")
        )
        with pytest.raises(SolverBackendError, match="LP relaxation failed"):
            bufferless_lp_bound(small)
