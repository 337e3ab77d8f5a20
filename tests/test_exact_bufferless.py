"""Tests for exact OPT_BL solvers (certificate, MILP and branch-and-bound)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.core.instance import Instance, make_instance
from repro.core.message import Message
from repro.core.validate import validate_schedule
from repro.exact import bufferless, opt_bufferless, opt_bufferless_bnb
from repro.exact.bufferless import _milp_bufferless
from repro.experiments.e2_bfl_ratio import SIZES
from repro.obs import Tracer
from repro.workloads import general_instance

from .conftest import lr_instances, random_lr_instance


class TestSmallCases:
    def test_empty(self):
        assert opt_bufferless(Instance(4, ())).throughput == 0
        assert opt_bufferless_bnb(Instance(4, ())).throughput == 0

    def test_single_message(self):
        inst = make_instance(6, [(1, 4, 0, 9)])
        assert opt_bufferless(inst).throughput == 1

    def test_two_compatible(self):
        inst = make_instance(8, [(0, 3, 0, 3), (3, 7, 3, 7)])
        assert opt_bufferless(inst).throughput == 2

    def test_forced_conflict(self):
        # both slack 0, same line, overlapping: exactly one deliverable
        inst = make_instance(8, [(0, 4, 0, 4), (2, 6, 2, 6)])
        assert opt_bufferless(inst).throughput == 1
        assert opt_bufferless_bnb(inst).throughput == 1

    def test_slack_allows_both(self):
        inst = make_instance(8, [(0, 4, 0, 4), (2, 6, 2, 7)])
        assert opt_bufferless(inst).throughput == 2

    def test_infeasible_dropped(self):
        inst = make_instance(8, [(0, 6, 0, 2)])
        assert opt_bufferless(inst).throughput == 0

    def test_rejects_rl(self):
        inst = Instance(6, (Message(0, 4, 1, 0, 9),))
        with pytest.raises(ValueError, match="right-to-left"):
            opt_bufferless(inst)
        with pytest.raises(ValueError, match="right-to-left"):
            opt_bufferless_bnb(inst)


class TestThreeWayPileup:
    def test_k_identical_zero_slack(self):
        # k identical zero-slack messages over the same edge: one winner
        rows = [(0, 3, 0, 3)] * 4
        inst = make_instance(5, rows)
        assert opt_bufferless(inst).throughput == 1

    def test_k_identical_with_slack(self):
        # slack k-1 gives each message its own line
        k = 4
        rows = [(0, 3, 0, 3 + k - 1)] * k
        inst = make_instance(5, rows)
        assert opt_bufferless(inst).throughput == k


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(30))
    def test_milp_equals_bnb(self, seed):
        rng = np.random.default_rng(1000 + seed)
        inst = random_lr_instance(rng, k_hi=7, max_slack=4)
        a = _milp_bufferless(inst)
        b = opt_bufferless_bnb(inst)
        assert a.throughput == b.throughput
        validate_schedule(inst, a.schedule, require_bufferless=True)
        validate_schedule(inst, b.schedule, require_bufferless=True)

    def test_schedules_valid_against_unclipped_instance(self):
        # huge slack exercises the clip-then-rebuild path
        inst = make_instance(6, [(0, 2, 0, 1000), (1, 3, 0, 900)])
        res = opt_bufferless(inst)
        assert res.throughput == 2
        validate_schedule(inst, res.schedule, require_bufferless=True)

    def test_bnb_node_limit(self):
        rng = np.random.default_rng(5)
        inst = random_lr_instance(rng, k_lo=6, k_hi=8)
        with pytest.raises(RuntimeError, match="exceeded"):
            opt_bufferless_bnb(inst, node_limit=3)


def _e2_cell(seed: int, index: int) -> Instance:
    """An E2 sweep cell, seeded per (sweep seed, cell index)."""
    n, k = SIZES[index % len(SIZES)]
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return general_instance(rng, n=n, k=k, max_release=8, max_slack=5, max_span=n - 1)


def _assert_matches_milp(inst: Instance) -> None:
    res = opt_bufferless(inst)
    assert res.optimal is True
    assert res.throughput == _milp_bufferless(inst).throughput
    validate_schedule(inst, res.schedule, require_bufferless=True)


class TestCertificate:
    """``opt_bufferless`` proves most answers without HiGHS; the MILP is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(lr_instances(n=8, max_messages=7, max_release=6, max_slack=4))
    def test_matches_milp(self, inst):
        _assert_matches_milp(inst)

    def _corpus_routes(self) -> Counter:
        tr = Tracer(enabled=True)
        with obs.use(tr):
            for index in range(64):
                _assert_matches_milp(_e2_cell(7, index))
        routes = Counter(
            s.attrs["route"] for s in tr.spans if s.name == "exact.certify.bufferless"
        )
        assert sum(routes.values()) == 64
        return routes

    def test_e2_corpus_is_settled_without_milp(self):
        # the search settles every E2 cell well inside its node cap
        assert set(self._corpus_routes()) == {"bfl", "search"}

    def test_e2_corpus_matches_milp_on_every_route(self, monkeypatch):
        monkeypatch.setattr(bufferless, "CERTIFY_NODES", 20)
        assert set(self._corpus_routes()) == {"bfl", "search", "milp"}

    def test_search_lowers_a_loose_cut_bound(self):
        # cut bound 3, OPT_BL 2 (see test_obs): the search proves 3 unreachable
        inst = make_instance(4, [(0, 2, 0, 3), (0, 1, 1, 2), (1, 3, 1, 3)])
        _work, msgs = bufferless._prepare(inst)
        found = bufferless._certify(msgs, lower=0, upper=3, node_limit=100)
        assert found.stop is None and found.upper == 2
        assert found.assign is not None and len(found.assign) == 2
        none = bufferless._certify(msgs, lower=2, upper=3, node_limit=100)
        assert none.stop is None and none.upper == 2 and none.assign is None
