"""Durability tests: the session WAL and crash-recovery by replay.

The contract under test (PR 8): any arrival batch the server
acknowledged is journaled (fsync-before-ack), recovery is a
deterministic replay of the journaled inputs, and therefore the
recovered finalized-decision prefix is **byte-identical** to the
pre-crash one — across clean restarts, torn journal tails, and crashes
at every batch boundary.
"""

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.client import ReproClient
from repro.obs import Tracer
from repro.online import run_online
from repro.server import ReproServer
from repro.server.journal import JOURNAL_VERSION, SessionJournal
from repro.server.sessions import OnlineSession, StreamSessions
from repro.workloads import general_instance
from repro.workloads.rings import random_ring_instance


def _rows(seed, n=8, k=24, topology="line"):
    """A deterministic release-sorted arrival stream as wire rows."""
    rng = np.random.default_rng(seed)
    make = random_ring_instance if topology == "ring" else general_instance
    inst = make(rng, n=n, k=k, max_release=k // 2, max_slack=6)
    return [
        {
            "id": m.id,
            "source": m.source,
            "dest": m.dest,
            "release": m.release,
            "deadline": m.deadline,
        }
        for m in sorted(inst.messages, key=lambda m: (m.release, m.id))
    ]


def _batches(rows, size):
    return [rows[i : i + size] for i in range(0, len(rows), size)]


def _decision_bytes(decisions):
    return json.dumps([d.to_dict() for d in decisions], sort_keys=True)


class TestJournalFile:
    def test_round_trip(self, tmp_path):
        j = SessionJournal(tmp_path, fsync=False)
        j.open_session("st-1", n=8, topology="line", policy="bfl", options={})
        j.append_feed("st-1", 0, [{"id": 1}])
        j.append_close("st-1")
        records = j.load("st-1")
        assert [r["op"] for r in records] == ["open", "feed", "close"]
        assert records[0]["v"] == JOURNAL_VERSION
        assert records[1]["seq"] == 0
        assert j.sessions() == ["st-1"]

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        j = SessionJournal(tmp_path, fsync=False)
        j.open_session("st-1", n=8, topology="line", policy="bfl", options={})
        j.append_feed("st-1", 0, [{"id": 1}])
        with (tmp_path / "st-1.wal").open("a") as fh:
            fh.write('{"op": "feed", "seq": 1, "rows": [{"id"')  # no newline
        records = j.load("st-1")
        assert [r["op"] for r in records] == ["open", "feed"]

    def test_corrupt_line_stops_replay(self, tmp_path):
        j = SessionJournal(tmp_path, fsync=False)
        j.open_session("st-1", n=8, topology="line", policy="bfl", options={})
        with (tmp_path / "st-1.wal").open("a") as fh:
            fh.write("not json at all\n")
        j.append_feed("st-1", 0, [{"id": 1}])  # after the corruption
        records = j.load("st-1")
        assert [r["op"] for r in records] == ["open"]

    def test_incompatible_header_is_skipped(self, tmp_path):
        j = SessionJournal(tmp_path, fsync=False)
        (tmp_path / "st-9.wal").write_text(
            json.dumps({"op": "open", "v": JOURNAL_VERSION + 1, "n": 8}) + "\n"
        )
        assert j.load("st-9") == []
        assert list(j.replay()) == []

    def test_rejects_hostile_session_ids(self, tmp_path):
        j = SessionJournal(tmp_path, fsync=False)
        for sid in ("../escape", "a/b", "", "x" * 65):
            with pytest.raises(ValueError):
                j.open_session(
                    sid, n=8, topology="line", policy="bfl", options={}
                )

    def test_delete_forgets(self, tmp_path):
        j = SessionJournal(tmp_path, fsync=False)
        j.open_session("st-1", n=8, topology="line", policy="bfl", options={})
        j.delete("st-1")
        assert j.sessions() == []
        j.delete("st-1")  # idempotent


class TestSequencedFeeds:
    def test_retry_of_applied_batch_is_exactly_once(self):
        rows = _rows(seed=7)
        batches = _batches(rows, 8)
        session = OnlineSession("st-x", n=8, policy="bfl")
        first, _ = session.feed(batches[0], seq=0)
        second, _ = session.feed(batches[1], seq=1)
        assert session.batches == 2
        # Retrying both acknowledged batches returns the original
        # decisions without re-applying anything.
        again0, _ = session.feed(batches[0], seq=0)
        again1, _ = session.feed(batches[1], seq=1)
        assert _decision_bytes(again0) == _decision_bytes(first)
        assert _decision_bytes(again1) == _decision_bytes(second)
        assert session.batches == 2
        assert session.fed == len(batches[0]) + len(batches[1])

    @pytest.mark.parametrize("policy", ["bfl", "greedy"])
    def test_feed_is_validated_once_then_journaled_then_applied(
        self, tmp_path, policy
    ):
        journal = SessionJournal(tmp_path, fsync=False)
        session = OnlineSession("st-x", n=8, policy=policy, journal=journal)
        runner = session._runner
        calls = []

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        runner.check = spy("check", runner.check)
        runner.apply = spy("apply", runner.apply)
        journal.append_feed = spy("journal", journal.append_feed)
        for i, batch in enumerate(_batches(_rows(seed=7), 8)):
            calls.clear()
            session.feed(batch, seq=i)
            assert calls == ["check", "journal", "apply"]

    def test_gap_in_seq_is_rejected(self):
        session = OnlineSession("st-x", n=8, policy="bfl")
        with pytest.raises(ValueError, match="skips ahead"):
            session.feed([], seq=3)

    def test_close_is_idempotent(self):
        rows = _rows(seed=11)
        session = OnlineSession("st-x", n=8, policy="bfl")
        session.feed(_batches(rows, 10)[0], seq=0)
        result1, rest1 = session.close()
        result2, rest2 = session.close()
        assert _decision_bytes(result1.decisions) == _decision_bytes(
            result2.decisions
        )
        assert _decision_bytes(rest1) == _decision_bytes(rest2)
        assert session.closed


class TestRecovery:
    def _feed_all(self, sessions, batches):
        session = sessions.create(n=8, topology="line", policy="bfl")
        for i, batch in enumerate(batches):
            session.feed(batch, seq=i)
        return session

    def test_recover_rebuilds_identical_state(self, tmp_path):
        journal = SessionJournal(tmp_path, fsync=False)
        sessions = StreamSessions(journal=journal)
        batches = _batches(_rows(seed=3), 8)
        live = self._feed_all(sessions, batches)

        # "Crash": a brand-new table over the same journal directory.
        recovered_table = StreamSessions(
            journal=SessionJournal(tmp_path, fsync=False)
        )
        assert recovered_table.recover() == 1
        rec = recovered_table.get(live.session_id)
        assert rec.status() == live.status()
        assert _decision_bytes(rec.decisions()) == _decision_bytes(
            live.decisions()
        )

    def test_recovered_session_continues_and_re_journals(self, tmp_path):
        journal = SessionJournal(tmp_path, fsync=False)
        sessions = StreamSessions(journal=journal)
        batches = _batches(_rows(seed=5), 8)
        live = sessions.create(n=8, topology="line", policy="bfl")
        live.feed(batches[0], seq=0)

        table2 = StreamSessions(journal=SessionJournal(tmp_path, fsync=False))
        table2.recover()
        rec = table2.get(live.session_id)
        rec.feed(batches[1], seq=1)

        # The post-recovery feed was journaled too: a second crash still
        # recovers both batches.
        table3 = StreamSessions(journal=SessionJournal(tmp_path, fsync=False))
        table3.recover()
        assert table3.get(live.session_id).batches == 2

    def test_closed_session_recovers_closed(self, tmp_path):
        journal = SessionJournal(tmp_path, fsync=False)
        sessions = StreamSessions(journal=journal)
        live = sessions.create(n=8, topology="line", policy="bfl")
        live.feed(_batches(_rows(seed=9), 10)[0], seq=0)
        result, _ = live.close()

        table2 = StreamSessions(journal=SessionJournal(tmp_path, fsync=False))
        table2.recover()
        rec = table2.get(live.session_id)
        assert rec.closed
        rec_result, _ = rec.close()
        assert _decision_bytes(rec_result.decisions) == _decision_bytes(
            result.decisions
        )

    def test_unrecoverable_session_is_skipped_not_fatal(self, tmp_path, caplog):
        journal = SessionJournal(tmp_path, fsync=False)
        journal.open_session(
            "st-bad", n=8, topology="line", policy="no-such-policy", options={}
        )
        sessions = StreamSessions(journal=SessionJournal(tmp_path, fsync=False))
        tracer = Tracer(enabled=True)
        with obs.use(tracer), caplog.at_level(logging.WARNING):
            assert sessions.recover() == 0
        assert len(sessions) == 0
        # logged with the session id, counted, and reported in health
        assert any("st-bad" in r.getMessage() for r in caplog.records)
        assert tracer.counters["server.sessions.unrecoverable"] == 1
        assert sessions.unrecoverable == 1
        srv = ReproServer(
            port=0, jobs=1, journal=str(tmp_path), journal_fsync=False
        ).start_in_thread()
        try:
            with ReproClient(srv.url) as client:
                health = client.health()
        finally:
            srv.shutdown()
        assert health["recovered_sessions"] == 0
        assert health["unrecoverable_sessions"] == 1


class TestCrashPointProperty:
    """50 seeded streams x random crash points, per policy and topology:
    the recovered prefix is byte-identical to the uncrashed control's,
    every time."""

    @pytest.mark.timeout(300)
    def test_recovery_prefix_byte_identical(self, tmp_path):
        self._crash_points(tmp_path, "line", "bfl")

    @pytest.mark.timeout(300)
    @pytest.mark.parametrize("topology", ["line", "ring"])
    def test_recovery_prefix_byte_identical_greedy(self, tmp_path, topology):
        self._crash_points(tmp_path, topology, "greedy")

    @staticmethod
    def _crash_points(tmp_path, topology, policy):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            seed = int(rng.integers(0, 2**31 - 1))
            batch_size = int(rng.integers(3, 9))
            batches = _batches(_rows(seed, n=8, k=20, topology=topology), batch_size)
            crash_after = int(rng.integers(1, len(batches) + 1))

            root = tmp_path / f"trial-{trial}"
            sessions = StreamSessions(journal=SessionJournal(root, fsync=False))
            live = sessions.create(n=8, topology=topology, policy=policy)
            acked = []
            for i, batch in enumerate(batches[:crash_after]):
                new, _ = live.feed(batch, seq=i)
                acked.extend(new)

            # Sometimes the crash also tears the journal tail: chop
            # bytes off the last record — it must cost at most that
            # unacknowledged record, never an acknowledged one.
            wal = root / f"{live.session_id}.wal"
            torn = bool(rng.integers(0, 2))
            if torn:
                raw = wal.read_bytes()
                keep = len(raw) - int(rng.integers(1, 20))
                wal.write_bytes(raw[: max(keep, 0)])

            recovered_table = StreamSessions(
                journal=SessionJournal(root, fsync=False)
            )
            assert recovered_table.recover() == 1, f"trial {trial}"
            rec = recovered_table.get(live.session_id)

            # An uncrashed control fed the same applied batches.
            control = OnlineSession("control", n=8, topology=topology, policy=policy)
            for i, batch in enumerate(batches[: rec.batches]):
                control.feed(batch, seq=i)

            assert rec.batches <= crash_after, f"trial {trial}"
            if not torn:
                assert rec.batches == crash_after, f"trial {trial}"
            assert rec.status()["frontier"] == control.status()["frontier"]
            assert _decision_bytes(rec.decisions()) == _decision_bytes(
                control.decisions()
            ), f"trial {trial} (seed {seed}, crash after {crash_after})"

            # The decisions the pre-crash client saw acknowledged
            # survive whenever their batches did.
            if rec.batches == crash_after:
                assert _decision_bytes(rec.decisions()) == _decision_bytes(acked)


class TestRejectedInput:
    """Bad arrivals and bad options are refused with a 400 before the
    journal records anything, so they cannot poison a session."""

    ROW = {"id": 1, "source": 0, "dest": 3, "release": 2, "deadline": 12}
    BAD = {
        "repeated id": [ROW, ROW],
        "endpoint off the line": [{**ROW, "dest": 8}],
        "right to left": [{**ROW, "source": 5, "dest": 1}],
    }

    @pytest.fixture
    def served(self, tmp_path):
        srv = ReproServer(
            port=0, jobs=1, journal=str(tmp_path), journal_fsync=False
        ).start_in_thread()
        try:
            with ReproClient(srv.url) as client:
                yield client
        finally:
            srv.shutdown()

    @staticmethod
    def _post(client, path, body):
        status, data, _ = client._request("POST", path, body)
        return status, data

    @pytest.mark.parametrize("policy", ["bfl", "greedy"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_bad_feed_changes_nothing(self, served, tmp_path, policy, bad):
        status, opened = self._post(served, "/v1/streams", {"n": 8, "policy": policy})
        assert status == 201
        sid = opened["stream"]
        arrivals = f"/v1/streams/{sid}/arrivals"
        first = {"id": 0, "source": 0, "dest": 4, "release": 1, "deadline": 9}
        assert self._post(served, arrivals, {"messages": [first], "seq": 0})[0] == 200
        wal = tmp_path / f"{sid}.wal"
        journaled = wal.read_bytes()
        before = served._call("GET", f"/v1/streams/{sid}")

        status, data = self._post(
            served, arrivals, {"messages": self.BAD[bad], "seq": 1}
        )
        assert status == 400, data
        assert wal.read_bytes() == journaled
        after = served._call("GET", f"/v1/streams/{sid}")
        assert (after["fed"], after["batches"]) == (before["fed"], before["batches"])

        status, data = self._post(served, arrivals, {"messages": [self.ROW], "seq": 1})
        assert status == 200, data
        table = StreamSessions(journal=SessionJournal(tmp_path, fsync=False))
        assert table.recover() == 1
        assert table.get(sid).status()["batches"] == 2

    @pytest.mark.parametrize(
        "policy, options",
        [("bfl", {"bogus": 1}), ("greedy", {"bogus": 1}),
         ("greedy", {"buffer_capacity": -3}), ("greedy", {"policy": "nope"})],
    )
    def test_bad_options_fail_the_open(self, served, tmp_path, policy, options):
        status, data = self._post(
            served, "/v1/streams", {"n": 8, "policy": policy, "options": options}
        )
        assert status == 400, data
        assert list(tmp_path.glob("*.wal")) == []

    def test_greedy_sub_policy_option(self, served):
        rows = _rows(seed=4)
        status, opened = self._post(
            served,
            "/v1/streams",
            {"n": 8, "policy": "greedy", "options": {"policy": "fcfs"}},
        )
        assert status == 201, opened
        sid = opened["stream"]
        for i, batch in enumerate(_batches(rows, 6)):
            path = f"/v1/streams/{sid}/arrivals"
            assert self._post(served, path, {"messages": batch, "seq": i})[0] == 200
        status, closed = self._post(served, f"/v1/streams/{sid}/close", {})
        assert status == 200
        from repro.core.instance import Instance
        from repro.core.message import Message

        local = run_online(
            Instance(8, tuple(Message(**r) for r in rows)), "greedy", policy="fcfs"
        )
        assert closed["result"]["policy"] == "greedy:fcfs"
        assert closed["result"] == local.to_dict()
