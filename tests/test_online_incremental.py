"""Incremental online runs are the one-shot runs, fed in pieces.

A stream session feeds its policy's :class:`~repro.online.runner.OnlineRunner`
batch by batch, advancing to each frontier; :func:`repro.online.run_online`
feeds the whole instance at once and closes.  The contract under test:
across policy x topology x buffer capacity x admission x backend, the
decisions the feeds return, followed by the close's remainder, are the
one-shot decision log, and the close result serializes byte for byte
like the one-shot result.  Feeds hand arrivals in ahead of their
release and out of release order, and split release instants across
feeds (a later batch released exactly at the frontier).  The tracer's
step counters pin the work: a session steps each policy exactly as
often as the one-shot run, in one run.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.buffers import ADMISSION_POLICIES
from repro.obs import Tracer
from repro.online import GREEDY_POLICIES, run_online, start_online
from repro.server.sessions import OnlineSession
from repro.trace.shapes import shape_trace


def _capacities():
    yield {}
    for capacity in (0, 2):
        for admission in ADMISSION_POLICIES:
            yield {"buffer_capacity": capacity, "admission": admission}


CASES = [("line", "bfl", {})]
CASES += [("line", "dbfl", cap) for cap in _capacities()]
CASES += [
    (topology, "greedy", {"policy": rule, **cap})
    for topology in ("line", "ring")
    for rule in GREEDY_POLICIES
    for cap in _capacities()
]


def _case_id(case):
    topology, policy, opts = case
    return "-".join([topology, policy, *(f"{k}={v}" for k, v in opts.items())])


def _feeds(messages, rng):
    """Random ``(batch, frontier)`` feeds of ``messages``.

    Frontiers are nondecreasing release times of the trace; each message
    goes to a random feed whose predecessor's frontier is not past its
    release.  So batches hand arrivals in ahead of their release and out
    of release order, and split release instants across feeds (a later
    batch released exactly at the frontier).
    """
    releases = sorted({m.release for m in messages})
    frontiers = sorted(rng.choice(releases, size=5).tolist()) + [releases[-1] + 3]
    batches = [[] for _ in frontiers]
    for m in messages:
        eligible = 1 + sum(1 for f in frontiers[:-1] if f <= m.release)
        batches[int(rng.integers(eligible))].append(m)
    return list(zip(batches, frontiers))


def _incremental(instance, feeds, policy, opts):
    runner = start_online(dataclasses.replace(instance, messages=()), policy, **opts)
    fed = []
    for batch, frontier in feeds:
        new = runner.feed(batch, frontier)
        assert all(d.time < frontier for d in new), "a feed decided past its frontier"
        fed.extend(new)
    return fed, runner.close()


def _dump(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_incremental_equals_one_shot(case, backend):
    topology, policy, opts = case
    opts = {**opts, "backend": backend}
    # dense bursts, and sparse arrivals that leave the network idle
    shapes = [("bursty", {}), ("uniform", {"rate": 0.3}), ("diurnal", {})]
    for seed, (shape, params) in enumerate(shapes):
        trace = shape_trace(
            shape, 100 + seed, n=9, messages=36, topology=topology, **params
        )
        feeds = _feeds(trace.to_instance().messages, np.random.default_rng(seed))
        # the one-shot reference sees the messages in the order they were fed
        instance = dataclasses.replace(
            trace.to_instance(), messages=tuple(m for b, _f in feeds for m in b)
        )
        one_shot = run_online(instance, policy, **opts)
        fed, closed = _incremental(instance, feeds, policy, opts)
        assert tuple(fed) == one_shot.decisions[: len(fed)], f"seed {seed}"
        assert closed.decisions == one_shot.decisions, f"seed {seed}"
        assert _dump(closed) == _dump(one_shot), f"seed {seed}"


@pytest.mark.parametrize("policy", ["bfl", "dbfl", "greedy"])
def test_session_steps_like_one_shot_in_one_run(policy):
    trace = shape_trace("bursty", 5, n=12, messages=60)
    instance = trace.to_instance()
    rows = [r.to_dict() for r in trace.records]

    one_shot = Tracer(enabled=True)
    with obs.use(one_shot):
        expected = run_online(instance, policy, backend="python")

    traced = Tracer(enabled=True)
    with obs.use(traced):
        session = OnlineSession("st-count", n=instance.n, policy=policy)
        for i in range(0, len(rows), 7):
            session.feed(rows[i : i + 7])
        result, _ = session.close()

    assert result.decisions == expected.decisions
    assert traced.counters["online.runs"] == 1
    for counter in ("online.steps", "sim.steps"):
        assert traced.counters.get(counter, 0) == one_shot.counters.get(counter, 0)
    assert traced.counters["online.steps"] == expected.steps > 0
