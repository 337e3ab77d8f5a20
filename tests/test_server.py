"""Tests for the serving tier: ``repro.server`` + ``repro.client``.

The contract under test is the ISSUE's headline: a loopback client's
``solve()`` is byte-identical (as ``to_dict``) to the local facade up to
the volatile blocks — ``telemetry`` (wall-clock times) and ``request``
(server-stamped per-call provenance) — across every kind of dispatch
cell, including online; stream sessions finalize exactly the decisions
the equivalent offline replay would; budget-degrade results pass through
as ordinary 200s; backpressure and typed errors surface as the same
exceptions a local call would raise.
"""

import http.client
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro import api, obs
from repro.budget import SolverBudget
from repro.client import ReproClient
from repro.errors import (
    BudgetExceeded,
    ConfigError,
    ServerError,
    ServerOverloaded,
    SolverBackendError,
)
from repro.online import run_online
from repro.server import ReproServer, error_body, solve_cell
from repro.topology import topology_of
from repro.workloads import general_instance
from repro.workloads.meshes import random_mesh_instance
from repro.workloads.rings import random_ring_instance


def _line(seed=42, **kw):
    kw.setdefault("n", 10)
    kw.setdefault("k", 8)
    return general_instance(np.random.default_rng(seed), **kw)


def _ring(seed=7):
    return random_ring_instance(np.random.default_rng(seed), n=8, k=10)


def _mesh(seed=3):
    return random_mesh_instance(np.random.default_rng(3), rows=4, cols=4, k=10)


def _stripped(result):
    """``to_dict`` minus the volatile blocks (wall times, request stamp)."""
    payload = result.to_dict()
    payload.pop("telemetry", None)
    payload.pop("request", None)
    return payload


@pytest.fixture(scope="module")
def server():
    srv = ReproServer(port=0, jobs=1).start_in_thread()
    yield srv
    srv.shutdown()


@pytest.fixture(scope="module")
def client(server):
    with ReproClient(server.url) as c:
        yield c


class TestEndpoints:
    def test_health(self, client):
        doc = client.health()
        assert doc["status"] == "ok"
        assert doc["wire"] == 1
        assert doc["result_schema"] == api.ScheduleResult.SCHEMA_VERSION

    def test_cells_match_live_dispatch(self, client):
        from repro.topology import dispatch_matrix

        expected = {
            (topo, regime, method)
            for (topo, regime), methods in dispatch_matrix().items()
            for method in methods
        }
        assert set(client.cells()) == expected

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServerError) as exc_info:
            client._call("GET", "/v1/nope")
        assert exc_info.value.error_type == "not_found"


# Parity across the matrix: line (all three regimes), ring, mesh — the
# acceptance bar is >= 6 cells including regime="online".
PARITY_CELLS = [
    ("line", "bufferless", "exact", {"solver": "bnb"}),
    ("line", "bufferless", "exact", {}),
    ("line", "bufferless", "bfl", {}),
    ("line", "buffered", "bfl", {}),
    ("line", "online", "bfl", {}),
    ("line", "online", "greedy", {}),
    ("ring", "bufferless", "bfl", {}),
    ("ring", "online", "greedy", {}),
    ("mesh", "bufferless", "greedy", {}),
]


class TestSolveParity:
    @pytest.mark.parametrize(
        "topo,regime,method,opts",
        PARITY_CELLS,
        # the bnb cell came first and keeps the plain exact id
        ids=[
            f"{t}-{r}-{m}" + ("-default" if m == "exact" and not o else "")
            for t, r, m, o in PARITY_CELLS
        ],
    )
    def test_loopback_matches_local(self, client, topo, regime, method, opts):
        inst = {"line": _line, "ring": _ring, "mesh": _mesh}[topo]()
        local = api.solve(inst, regime, method, **opts)
        remote = client.solve(inst, regime, method, **opts)
        assert _stripped(remote) == _stripped(local)

    def test_request_block_is_stamped(self, client, server):
        result = client.solve(_line(), "bufferless", "bfl", request_id="req-parity-1")
        assert result.request is not None
        assert result.request["id"] == "req-parity-1"
        assert result.request["server"].endswith(str(server.port))
        assert result.request["queue_seconds"] >= 0.0

    def test_budget_degrade_passes_through_as_200(self, client):
        inst = _line(5, n=8, k=6)
        result = client.solve(
            inst,
            "bufferless",
            "exact",
            solver="bnb",
            budget=SolverBudget(nodes=2),
            on_budget="degrade",
        )
        assert result.status == "bounded"
        local = api.solve(
            inst,
            "bufferless",
            "exact",
            solver="bnb",
            budget=SolverBudget(nodes=2),
            on_budget="degrade",
        )
        assert (result.lower, result.upper) == (local.lower, local.upper)

    def test_budget_raise_maps_to_budget_exceeded(self, client):
        with pytest.raises(BudgetExceeded) as exc_info:
            client.solve(
                _line(5, n=8, k=6),
                "bufferless",
                "exact",
                solver="bnb",
                budget=SolverBudget(nodes=2),
                on_budget="raise",
            )
        assert exc_info.value.upper is not None
        assert exc_info.value.lower <= exc_info.value.upper


class TestTypedErrors:
    def test_unknown_method_is_config_error_listing_matrix(self, client):
        with pytest.raises(ConfigError) as exc_info:
            client.solve(_line(), "bufferless", "no-such-method")
        assert "line/bufferless" in str(exc_info.value)

    def test_unknown_regime_is_config_error(self, client):
        with pytest.raises(ConfigError):
            client.solve(_line(), "no-such-regime", "bfl")

    def test_missing_instance_is_bad_request(self, client):
        with pytest.raises(ValueError, match="instance"):
            client._call("POST", "/v1/solve", {"regime": "bufferless"})

    def test_malformed_instance_is_bad_request(self, client):
        with pytest.raises(ValueError):
            client._call(
                "POST", "/v1/solve", {"instance": {"format": "not-an-instance"}}
            )

    def test_fractional_release_is_bad_request(self, client):
        doc = topology_of(_line()).instance_to_dict(_line())
        doc["messages"]["release"][2] += 0.5
        mid = doc["messages"]["id"][2]
        status, data, _ = client._request(
            "POST", "/v1/solve", {"instance": doc, "regime": "bufferless", "method": "bfl"}
        )
        assert status == 400
        assert data["error"]["type"] == "bad_request"
        assert f"message {mid}: field 'release' must be an integer" in data["error"]["message"]

    def test_mesh_row_that_is_no_object_is_bad_request(self, client):
        doc = topology_of(_mesh()).instance_to_dict(_mesh())
        doc["messages"][0] = 7
        status, data, _ = client._request(
            "POST", "/v1/solve", {"instance": doc, "regime": "bufferless", "method": "exact"}
        )
        assert status == 400
        assert data["error"]["type"] == "bad_request"
        assert "message at row 0 must be an object" in data["error"]["message"]

    def test_error_body_shape(self):
        body = error_body("config", "boom", hint="x")
        assert body == {
            "error": {"type": "config", "message": "boom", "details": {"hint": "x"}},
            "wire": 1,
        }
        with pytest.raises(ValueError):
            error_body("no-such-type", "boom")

    def test_solve_cell_never_raises(self):
        out = solve_cell({"instance": {"format": "garbage"}})
        assert out["ok"] is False
        assert out["error"]["error"]["type"] == "bad_request"


EXACT_CELLS = [
    pytest.param(_ring, "bufferless", id="ring-bufferless"),
    pytest.param(_ring, "buffered", id="ring-buffered"),
    pytest.param(_mesh, "bufferless", id="mesh-bufferless"),
]


class TestExactDeadlines:
    """A deadline caps every exact solver's budget, so exact cells on every
    topology accept the server's injected ``budget``."""

    @pytest.mark.parametrize("make,regime", EXACT_CELLS)
    def test_solve_cell_with_deadline_succeeds(self, make, regime):
        inst = make()
        out = solve_cell(
            {
                "instance": topology_of(inst).instance_to_dict(inst),
                "regime": regime,
                "method": "exact",
                "_deadline_s": 5.0,
            }
        )
        assert out["ok"], out
        assert out["result"]["status"] == "optimal"

    @pytest.mark.parametrize("make,regime", EXACT_CELLS)
    def test_missed_deadline_is_typed_with_bounds(self, make, regime):
        inst = make()
        out = solve_cell(
            {
                "instance": topology_of(inst).instance_to_dict(inst),
                "regime": regime,
                "method": "exact",
                "_deadline_s": 1e-6,
            }
        )
        if not out["ok"]:  # a tiny program may still finish in time
            err = out["error"]["error"]
            assert err["type"] == "deadline"
            assert err["details"]["lower"] <= err["details"]["upper"]

    @pytest.mark.parametrize("make,regime", EXACT_CELLS)
    def test_served_with_deadline_ms_matches_local(self, client, make, regime):
        inst = make()
        result = client.solve(inst, regime, "exact", deadline_ms=30_000.0)
        assert _stripped(result) == _stripped(api.solve(inst, regime, "exact"))

    def test_bruteforce_takes_the_deadline_budget(self):
        inst = _line(5, n=6, k=5)
        out = solve_cell(
            {
                "instance": topology_of(inst).instance_to_dict(inst),
                "regime": "buffered",
                "method": "exact",
                "options": {"solver": "bruteforce"},
                "_deadline_s": 5.0,
            }
        )
        assert out["ok"], out
        assert out["result"]["status"] == "optimal"
        want = api.solve(inst, "buffered", "exact", solver="bruteforce")
        assert out["result"]["lower"] == want.delivered


class TestBackendFailure:
    """A HiGHS failure on a served exact solve is a typed 503, rebuilt as
    ``SolverBackendError`` by the client."""

    def test_solve_cell_types_it(self, monkeypatch):
        from repro.exact import milp as exact_milp
        from repro.server import ERROR_STATUS

        monkeypatch.setattr(
            exact_milp,
            "milp",
            lambda c, **kw: SimpleNamespace(x=None, status=4, message="solver error"),
        )
        inst = _ring()
        out = solve_cell(
            {
                "instance": topology_of(inst).instance_to_dict(inst),
                "regime": "buffered",
                "method": "exact",
            }
        )
        assert not out["ok"]
        err = out["error"]
        assert err["error"]["type"] == "solver_backend"
        assert "HiGHS failed" in err["error"]["message"]
        assert ERROR_STATUS["solver_backend"] == 503

        exc = ReproClient._error_for(503, err, {})
        assert isinstance(exc, SolverBackendError)
        assert str(exc) == err["error"]["message"]


class TestStreams:
    def test_lifecycle_prefix_stability_and_close_parity(self, client):
        inst = _line(11, n=16, k=30, max_release=16, max_slack=6)
        direct = run_online(inst, "bfl")
        arrivals = sorted(inst, key=lambda m: (m.release, m.id))
        streamed = []
        with client.open_stream(n=16, policy="bfl") as stream:
            for i in range(0, len(arrivals), 7):
                got = stream.feed(arrivals[i : i + 7])
                streamed.extend(got)
                # Every decision handed out so far is a stable prefix of
                # the offline run — nothing ever gets retracted.
                assert tuple(streamed) == direct.decisions[: len(streamed)]
            result = stream.close()
        assert result.decisions == direct.decisions
        assert result.delivered_ids == direct.delivered_ids
        assert result.dropped == direct.dropped

    def test_out_of_order_release_is_rejected(self, client):
        with client.open_stream(n=8, policy="bfl") as stream:
            stream.feed(
                [{"id": 1, "source": 0, "dest": 3, "release": 5, "deadline": 12}]
            )
            with pytest.raises(ValueError, match="release"):
                stream.feed(
                    [{"id": 2, "source": 0, "dest": 3, "release": 2, "deadline": 9}]
                )

    @pytest.mark.parametrize(
        "field,bad", [("release", 1.9), ("deadline", 6.99), ("source", "0"), ("dest", True)]
    )
    def test_non_integer_arrival_is_bad_request(self, client, field, bad):
        row = {"id": 1, "source": 0, "dest": 3, "release": 1, "deadline": 9}
        row[field] = bad
        with client.open_stream(n=8, policy="bfl") as stream:
            status, data, _ = client._request(
                "POST",
                f"/v1/streams/{stream.stream_id}/arrivals",
                {"messages": [row], "seq": stream.seq},
                idempotent=True,
            )
        assert status == 400
        assert data["error"]["type"] == "bad_request"
        assert f"message 1: field {field!r} must be an integer" in data["error"]["message"]

    def test_fractional_stream_size_is_bad_request(self, client):
        with pytest.raises(ValueError, match="stream: field 'n' must be an integer"):
            client.open_stream(n=8.5, policy="bfl")

    def test_abandoned_stream_is_gone(self, client):
        stream = client.open_stream(n=8, policy="bfl")
        stream.abandon()
        with pytest.raises(ServerError) as exc_info:
            client._call("GET", f"/v1/streams/{stream.stream_id}")
        assert exc_info.value.error_type == "not_found"

    def test_unknown_policy_is_config_error(self, client):
        with pytest.raises(ConfigError):
            client.open_stream(n=8, policy="no-such-policy")


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self):
        srv = ReproServer(port=0, jobs=1, max_pending=0).start_in_thread()
        try:
            with ReproClient(srv.url) as c:
                with pytest.raises(ServerOverloaded) as exc_info:
                    c.solve(_line(), "bufferless", "bfl")
                assert exc_info.value.retry_after is not None
                assert exc_info.value.retry_after > 0
                # Health stays answerable while solves are shed.
                assert c.health()["status"] == "ok"
        finally:
            srv.shutdown()

    def test_tenant_quota_sheds_one_tenant_only(self):
        srv = ReproServer(port=0, jobs=1, tenant_quota=0).start_in_thread()
        try:
            with ReproClient(srv.url, tenant="chatty") as c:
                with pytest.raises(ServerOverloaded) as exc_info:
                    c.solve(_line(), "bufferless", "bfl")
                assert exc_info.value.details.get("tenant") == "chatty"
        finally:
            srv.shutdown()

    def test_session_capacity_sheds(self):
        srv = ReproServer(port=0, jobs=1, max_sessions=1).start_in_thread()
        try:
            with ReproClient(srv.url) as c:
                first = c.open_stream(n=8, policy="bfl")
                with pytest.raises(ServerOverloaded):
                    c.open_stream(n=8, policy="bfl")
                first.abandon()
                second = c.open_stream(n=8, policy="bfl")
                second.abandon()
        finally:
            srv.shutdown()


class TestClientResilience:
    def test_retry_after_server_restart(self):
        srv = ReproServer(port=0, jobs=1).start_in_thread()
        port = srv.port
        inst = _line()
        with ReproClient(srv.url, retries=5, backoff=0.02) as c:
            before = c.solve(inst, "bufferless", "bfl")
            srv.shutdown()
            srv2 = ReproServer(port=port, jobs=1).start_in_thread()
            try:
                after = c.solve(inst, "bufferless", "bfl")
            finally:
                srv2.shutdown()
        assert _stripped(after) == _stripped(before)

    def test_unreachable_server_raises_server_error(self):
        with ReproClient("http://127.0.0.1:1", retries=1, backoff=0.01) as c:
            with pytest.raises(ServerError, match="cannot reach"):
                c.health()


class TestObservability:
    def test_trace_export_feeds_obs_report(self, tmp_path):
        trace_path = tmp_path / "serve.jsonl"
        srv = ReproServer(port=0, jobs=1, trace=str(trace_path)).start_in_thread()
        inst = _line()
        with ReproClient(srv.url) as c:
            c.solve(inst, "bufferless", "bfl", request_id="req-traced-1")
            c.solve(inst, "online", "bfl")
            with c.open_stream(n=8, policy="bfl") as stream:
                stream.close()
        srv.shutdown()

        trace = obs.load_trace(trace_path)
        requests = [s for s in trace.spans if s["name"] == "server.request"]
        # 2 solves + stream open + close + the purge DELETE close sends
        assert len(requests) == 5
        ids = {s["attrs"]["request_id"] for s in requests}
        assert "req-traced-1" in ids
        endpoints = {s["attrs"]["endpoint"] for s in requests}
        assert "POST /v1/solve" in endpoints
        assert trace.manifest is not None
        assert trace.manifest.command == "repro serve"
        assert trace.counters["server.requests"] >= 4

        from repro.cli import main

        assert main(["obs", "report", str(trace_path)]) == 0


class TestWireSchema:
    def test_parse_instance_json_and_dict_roundtrip(self):
        for inst in (_line(), _ring(), _mesh()):
            from repro.topology import topology_of

            doc = topology_of(inst).instance_to_dict(inst)
            assert api.parse_instance(doc) == inst
            assert api.parse_instance(json.dumps(doc)) == inst

    def test_parse_instance_rejects_garbage(self):
        with pytest.raises(ValueError):
            api.parse_instance("{not json")
        with pytest.raises(ValueError):
            api.parse_instance(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            api.parse_instance({"format": "repro-instance", "topology": "torus"})

    def test_schedule_result_v2_payload_still_parses(self):
        payload = api.solve(_line(), "bufferless", "bfl").to_dict()
        payload.pop("request", None)  # v2 had no request block
        payload["version"] = 2
        old = api.ScheduleResult.from_dict(payload)
        assert old.request is None
        # Re-emitting upgrades to the current schema version.
        assert old.to_dict()["version"] == api.ScheduleResult.SCHEMA_VERSION

    def test_schedule_result_v3_roundtrip_is_lossless(self, client):
        result = client.solve(_line(), "bufferless", "bfl", request_id="rt-1")
        again = api.ScheduleResult.from_dict(result.to_dict())
        assert again == result
        assert again.request["id"] == "rt-1"

    def test_future_schema_version_is_rejected(self):
        payload = api.solve(_line(), "bufferless", "bfl").to_dict()
        payload["version"] = api.ScheduleResult.SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            api.ScheduleResult.from_dict(payload)


def _raw_solve(server, inst, regime, method, *, key=None, **opts):
    """POST one solve at the HTTP level; returns ``(status, body bytes)``."""
    doc = {
        "instance": topology_of(inst).instance_to_dict(inst),
        "regime": regime,
        "method": method,
        "options": opts,
    }
    headers = {"Content-Type": "application/json"}
    if key is not None:
        headers["x-repro-idempotency-key"] = key
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", "/v1/solve", json.dumps(doc), headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestEncodedResponses:
    """Solve bodies are encoded once and replayed as the same bytes."""

    @pytest.mark.parametrize(
        "inst,regime,method",
        [
            (_line(), "bufferless", "bfl"),
            (_line(seed=5).with_buffer_capacity(2), "buffered", "ca"),
        ],
        ids=["line-bufferless-bfl", "line-buffered-ca-capacity2"],
    )
    def test_body_is_local_to_dict_plus_request(self, server, inst, regime, method):
        status, body = _raw_solve(server, inst, regime, method)
        assert status == 200
        served = json.loads(body)
        expected = api.solve(inst, regime, method).to_dict()
        if inst.buffer_capacity is not None:
            assert "buffers" in expected
        # wall-clock telemetry is the only volatile value; keep its key's
        # place in the order and take the served value
        expected["telemetry"] = served["telemetry"]
        expected["request"] = served["request"]
        assert list(served) == list(expected) and list(served)[-1] == "request"
        assert body == json.dumps(expected).encode()

    def test_idempotent_replay_is_byte_identical(self, server, client):
        status, first = _raw_solve(server, _line(), "bufferless", "bfl", key="enc-1")
        served = client.health()["served"]
        status2, again = _raw_solve(server, _line(), "bufferless", "bfl", key="enc-1")
        assert status == status2 == 200
        assert again == first
        assert client.health()["served"] == served

    def test_error_replay_is_byte_identical(self, server):
        first = _raw_solve(server, _line(), "bufferless", "nope", key="enc-err")
        again = _raw_solve(server, _line(), "bufferless", "nope", key="enc-err")
        assert first[0] == 400
        assert again == first
        assert json.loads(first[1])["error"]["type"] == "config"

    def test_lru_reports_entries_and_bytes(self):
        srv = ReproServer(port=0, jobs=1, idempotency_capacity=4).start_in_thread()
        try:
            bodies = [
                _raw_solve(srv, _line(seed=i), "bufferless", "bfl", key=f"k{i}")[1]
                for i in range(8)
            ]
            with ReproClient(srv.url) as c:
                health = c.health()
            assert health["idempotency_entries"] == 4
            assert health["idempotency_bytes"] == sum(map(len, bodies[-4:]))
        finally:
            srv.shutdown()
