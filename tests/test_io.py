"""Tests for JSON serialization."""

import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.bfl import bfl
from repro.core.instance import Instance
from repro.core.message import Message
from repro.core.schedule import Schedule
from repro.core.trajectory import Trajectory
from repro.io import (
    _instance_from_rows,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_schedule,
    save_instance,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    wire_int,
)
from repro.topology import get_topology, topology_of
from repro.trace import WorkloadTrace
from repro.workloads.meshes import random_mesh_instance
from repro.workloads.rings import random_ring_instance

from .conftest import random_lr_instance


class TestInstanceRoundtrip:
    def test_dict_roundtrip(self, paper_example):
        assert instance_from_dict(instance_to_dict(paper_example)) == paper_example

    def test_file_roundtrip(self, tmp_path, paper_example):
        path = tmp_path / "inst.json"
        save_instance(paper_example, path)
        assert load_instance(path) == paper_example

    def test_file_is_plain_json(self, tmp_path, paper_example):
        path = tmp_path / "inst.json"
        save_instance(paper_example, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-instance"
        assert data["version"] == 2
        assert data["n"] == 22
        assert set(data["messages"]) == {"id", "source", "dest", "release", "deadline"}
        assert all(len(column) == 6 for column in data["messages"].values())

    def test_random_roundtrips(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(10):
            inst = random_lr_instance(rng)
            path = tmp_path / f"i{i}.json"
            save_instance(inst, path)
            assert load_instance(path) == inst


class TestScheduleRoundtrip:
    def test_buffered_roundtrip(self):
        sched = Schedule((Trajectory(3, 1, (0, 4, 5)), Trajectory(7, 0, (2,))))
        again = schedule_from_dict(schedule_to_dict(sched))
        assert again.trajectories == sched.trajectories

    def test_bfl_output_roundtrip(self, tmp_path, paper_example):
        sched = bfl(paper_example)
        path = tmp_path / "s.json"
        save_schedule(sched, path)
        again = load_schedule(path)
        assert again.delivered_ids == sched.delivered_ids
        assert again.delivery_lines() == sched.delivery_lines()


class TestValidation:
    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="expected format"):
            instance_from_dict({"format": "nope", "version": 1})
        with pytest.raises(ValueError, match="expected format"):
            schedule_from_dict({"format": "repro-instance", "version": 1})

    def test_wrong_version_rejected(self, paper_example):
        data = instance_to_dict(paper_example)
        data["version"] = 99
        with pytest.raises(ValueError, match="unsupported version"):
            instance_from_dict(data)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            instance_from_dict(
                {"format": "repro-instance", "version": 1, "n": 4, "messages": [{"id": 0}]}
            )

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            instance_from_dict([1, 2, 3])  # type: ignore[arg-type]

    def test_conflicting_schedule_rejected_on_load(self):
        data = {
            "format": "repro-schedule",
            "version": 1,
            "trajectories": [
                {"message_id": 0, "source": 0, "crossings": [0, 1]},
                {"message_id": 1, "source": 0, "crossings": [0, 1]},
            ],
        }
        with pytest.raises(Exception):  # ConflictError (a ValueError subclass)
            schedule_from_dict(data)


def _doc(messages, n=8, **extra):
    return {"format": "repro-instance", "version": 1, "n": n, "messages": messages, **extra}


def _row(mid=0, source=0, dest=3, release=1, deadline=6):
    return {"id": mid, "source": source, "dest": dest, "release": release, "deadline": deadline}


def _v1_schedule(rows):
    return {"format": "repro-schedule", "version": 1, "trajectories": rows}


def _v2_schedule(**columns):
    return {"format": "repro-schedule", "version": 2, "trajectories": columns}


class TestMalformedRows:
    """A version-1 row or array field of the wrong JSON type is a
    ``ValueError`` naming its row, like every other malformed document."""

    @pytest.mark.parametrize("topology", ["line", "ring"])
    @pytest.mark.parametrize(
        "row,kind", [(7, "int"), ([0, 1, 2, 0, 3], "list"), (None, "NoneType")]
    )
    def test_message_row_that_is_no_object(self, topology, row, kind):
        doc = _doc([_row(), row], topology=topology)
        with pytest.raises(ValueError, match=f"^message at row 1 must be an object, got {kind}$"):
            api.parse_instance(doc)

    def test_line_crossings_that_are_no_array(self):
        doc = _v1_schedule([{"message_id": 5, "source": 1, "crossings": 5}])
        with pytest.raises(
            ValueError,
            match="^trajectory for message 5: field 'crossings' must be an array of "
            "integers, got 5$",
        ):
            schedule_from_dict(doc)

    def test_line_trajectory_row_that_is_no_object(self):
        with pytest.raises(ValueError, match="^trajectory at row 0 must be an object, got int$"):
            schedule_from_dict(_v1_schedule([3]))

    def _ring_schedule(self, rows):
        return {"format": "repro-ring-schedule", "version": 1, "n": 5, "trajectories": rows}

    def test_ring_trajectory_row_that_is_no_object(self):
        with pytest.raises(ValueError, match="^trajectory at row 0 must be an object, got int$"):
            get_topology("ring").schedule_from_dict(self._ring_schedule([3]))

    def test_mesh_message_row_that_is_no_object(self):
        doc = get_topology("mesh").instance_to_dict(
            random_mesh_instance(np.random.default_rng(3), rows=3, cols=3, k=2)
        )
        doc["messages"][1] = 7
        with pytest.raises(ValueError, match="^message at row 1 must be an object, got int$"):
            api.parse_instance(doc)

    def test_mesh_trajectory_row_that_is_no_object(self):
        doc = {"format": "repro-mesh-schedule", "version": 1, "trajectories": [3]}
        with pytest.raises(ValueError, match="^trajectory at row 0 must be an object, got int$"):
            get_topology("mesh").schedule_from_dict(doc)

    def test_ring_hop_times_that_are_no_array(self):
        row = {"message_id": 2, "source": 1, "depart": 0, "span": 2, "hop_times": 5}
        with pytest.raises(
            ValueError,
            match="^trajectory for message 2: field 'hop_times' must be an array of "
            "integers, got 5$",
        ):
            get_topology("ring").schedule_from_dict(self._ring_schedule([row]))
        row["hop_times"] = [0, 2]
        sched = get_topology("ring").schedule_from_dict(self._ring_schedule([row]))
        assert sched.trajectories[0].hop_times == (0, 2)


class TestWireIntegers:
    """Every integer field rejects bools, strings and fractional floats."""

    @pytest.mark.parametrize("field", ["id", "source", "dest", "release", "deadline"])
    @pytest.mark.parametrize("bad", [1.9, 6.99, "7", True, None, [1]])
    def test_parse_instance_rejects(self, field, bad):
        rows = [_row(0), _row(4, source=1, dest=5, release=0, deadline=9)]
        rows[1][field] = bad
        for doc in (_doc(rows), json.dumps(_doc(rows))):
            with pytest.raises(ValueError, match=f"field '{field}' must be an integer") as info:
                api.parse_instance(doc)
            owner = "message at row 1" if field == "id" else "message 4"
            assert str(info.value).startswith(owner)

    def test_integral_floats_are_integers(self):
        rows = [_row(0), _row(4, source=1, dest=5, release=0, deadline=9)]
        floats = [{k: float(v) for k, v in row.items()} for row in rows]
        parsed = api.parse_instance(_doc(floats, n=8.0, buffer_capacity=2.0))
        assert parsed == api.parse_instance(_doc(rows, buffer_capacity=2))
        assert all(type(v) is int for col in parsed.table for v in col)
        assert type(parsed.n) is int and type(parsed.buffer_capacity) is int

    @pytest.mark.parametrize("key,bad", [("n", "8"), ("n", 8.5), ("buffer_capacity", True)])
    def test_header_fields(self, key, bad):
        doc = _doc([_row()])
        doc[key] = bad
        with pytest.raises(ValueError, match=f"field '{key}' must be an integer"):
            api.parse_instance(doc)

    @pytest.mark.parametrize("bad", [[2.7, 3.2], ["2", "3"], [True, 3]])
    def test_schedule_crossings(self, bad):
        doc = _v2_schedule(message_id=[5], source=[1], crossings=[bad])
        with pytest.raises(ValueError, match="trajectory for message 5: field 'crossings'"):
            schedule_from_dict(doc)
        rows = _v1_schedule([{"message_id": 5, "source": 1, "crossings": bad}])
        with pytest.raises(ValueError, match="trajectory for message 5: field 'crossings'"):
            schedule_from_dict(rows)

    @pytest.mark.parametrize("shape", ["ring", "mesh"])
    def test_ring_and_mesh_documents(self, shape):
        if shape == "ring":
            inst = random_ring_instance(np.random.default_rng(7), n=8, k=10)
            key = "depart"
        else:
            inst = random_mesh_instance(np.random.default_rng(3), rows=4, cols=4, k=10)
            key = "turn_wait"
        doc = topology_of(inst).instance_to_dict(inst)
        if shape == "ring":  # version-2 columns, and their version-1 twin
            doc["messages"]["release"][0] += 0.5
            rows = [dict(zip(doc["messages"], row)) for row in zip(*doc["messages"].values())]
            with pytest.raises(ValueError, match="field 'release' must be an integer"):
                api.parse_instance({**doc, "version": 1, "messages": rows})
        else:
            doc["messages"][0]["release"] += 0.5
        with pytest.raises(ValueError, match="field 'release' must be an integer"):
            api.parse_instance(doc)
        result = api.solve(inst, "bufferless", "bfl").to_dict()
        if shape == "ring":  # version-2 columns
            result["schedule"]["trajectories"][key][0] += 0.7
        else:
            result["schedule"]["trajectories"][0][key] += 0.7
        with pytest.raises(ValueError, match=f"field '{key}' must be an integer"):
            api.ScheduleResult.from_dict(result)

    def test_trace_records_and_header(self, paper_example):
        doc = WorkloadTrace.from_instance(paper_example).to_dict()
        bad_record = json.loads(json.dumps(doc))
        bad_record["records"][1]["deadline"] = "20"
        with pytest.raises(ValueError, match="field 'deadline' must be an integer"):
            WorkloadTrace.from_dict(bad_record)
        bad_header = json.loads(json.dumps(doc))
        bad_header["n"] = 22.5
        with pytest.raises(ValueError, match="trace header: field 'n'"):
            WorkloadTrace.from_dict(bad_header)

    def test_schedule_integral_floats(self):
        doc = _v2_schedule(message_id=[5.0], source=[1.0], crossings=[[2.0, 3.0]])
        rows = _v1_schedule([{"message_id": 5.0, "source": 1.0, "crossings": [2.0, 3.0]}])
        for again in map(schedule_from_dict, (doc, rows)):
            assert again.trajectories == (Trajectory(5, 1, (2, 3)),)
            assert all(type(t) is int for t in again.trajectories[0].crossings)


# Values the wire may carry where an integer belongs: mostly small ints (so
# ids collide and endpoints leave 0..n-1), plus every non-integer kind.
_wire_values = st.one_of(
    st.integers(-2, 9),
    st.integers(-2, 9).map(float),
    st.sampled_from([0.5, 6.99, True, False, "3", None, [1], float("nan")]),
)
_wire_rows = st.one_of(
    st.dictionaries(
        st.sampled_from(["id", "source", "dest", "release", "deadline"]),
        _wire_values,
        min_size=4,
        max_size=5,
    ),
    st.sampled_from([[0, 1, 2, 3, 4], 7, "row", None]),
)
_wire_docs = st.fixed_dictionaries(
    {
        "format": st.just("repro-instance"),
        "version": st.just(1),
        "n": st.one_of(st.integers(0, 9), st.sampled_from([8.0, "8", True, None])),
        "messages": st.lists(_wire_rows, max_size=6),
    },
    optional={"buffer_capacity": st.sampled_from([None, 0, 2, -1, 2.0, "2", True])},
)
# Documents whose every field is a plain int, so the bulk checks decide.
_int_rows = st.fixed_dictionaries(
    {k: st.integers(-1, 9) for k in ("id", "source", "dest", "release", "deadline")}
)
_int_docs = st.builds(
    lambda n, rows, cap: _doc(rows, n=n, **({} if cap is None else {"buffer_capacity": cap})),
    st.integers(0, 9),
    st.lists(_int_rows, max_size=8),
    st.one_of(st.none(), st.integers(-1, 3)),
)


def _outcome(parse, doc):
    try:
        return ("ok", parse(doc))
    except Exception as exc:  # the exception itself is the observable
        return ("error", type(exc), str(exc))


class TestBulkParseMatchesReference:
    """The table parser accepts exactly what the per-message loop accepts."""

    def _check(self, doc):
        bulk = _outcome(instance_from_dict, doc)
        ref = _outcome(_instance_from_rows, doc)
        if ref[0] == "error":
            assert bulk == ref
            return
        assert bulk[0] == "ok", bulk
        got, want = bulk[1], ref[1]
        assert got == want
        assert type(got.n) is int
        assert all(type(v) is int for col in got.table for v in col)
        assert got.buffer_capacity == want.buffer_capacity

    @settings(max_examples=300, deadline=None)
    @given(_wire_docs)
    def test_arbitrary_rows(self, doc):
        self._check(doc)

    @settings(max_examples=300, deadline=None)
    @given(_int_docs)
    def test_int_rows(self, doc):
        self._check(doc)

    def test_valid_document_stays_columnar(self, paper_example):
        parsed = instance_from_dict(instance_to_dict(paper_example))
        assert "messages" not in parsed.__dict__
        assert len(parsed) == len(paper_example)
        assert parsed == paper_example


def _reference_schedule_from_dict(data):
    """``schedule_from_dict`` as it read documents before schedules had a
    trajectory table: one checked ``Trajectory`` per row, then the
    object-built ``Schedule``."""
    if not isinstance(data, dict) or data.get("format") != "repro-schedule":
        raise ValueError("bad header")
    try:
        rows = []
        for i, row in enumerate(data["trajectories"]):
            if not isinstance(row, dict):
                raise ValueError(
                    f"trajectory at row {i} must be an object, got {type(row).__name__}"
                )
            rows.append((row["message_id"], row["source"], row["crossings"]))
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in schedule data") from exc
    checked = []
    for i, (mid, source, crossings) in enumerate(rows):
        mid = wire_int(mid, "message_id", f"trajectory at row {i}")
        owner = f"trajectory for message {mid}"
        source = wire_int(source, "source", owner)
        if not isinstance(crossings, list):
            raise ValueError(
                f"{owner}: field 'crossings' must be an array of integers, got {crossings!r}"
            )
        checked.append((mid, source, *(wire_int(t, "crossings", owner) for t in crossings)))
    return Schedule(tuple(Trajectory(row[0], row[1], row[2:]) for row in checked))


_small_ints = st.integers(0, 6)
_wire_trajectory_rows = st.one_of(
    st.fixed_dictionaries(
        {
            "message_id": st.integers(0, 5),
            "source": _small_ints,
            "crossings": st.one_of(
                _small_ints.flatmap(
                    lambda t: st.integers(1, 4).map(lambda k: list(range(t, t + k)))
                ),
                st.lists(_small_ints, max_size=4),
            ),
        }
    ),
    st.dictionaries(
        st.sampled_from(["message_id", "source", "crossings"]),
        st.one_of(_wire_values, st.lists(_wire_values, max_size=3)),
        min_size=2,
        max_size=3,
    ),
    st.sampled_from([[0, 1, [2]], 7, "row", None]),
)
_wire_schedule_docs = st.builds(
    lambda rows: {"format": "repro-schedule", "version": 1, "trajectories": rows},
    st.lists(_wire_trajectory_rows, max_size=6),
)


class TestBulkScheduleParseMatchesReference:
    """The table reader accepts exactly what the per-trajectory read accepts."""

    @settings(max_examples=400, deadline=None)
    @given(_wire_schedule_docs)
    def test_arbitrary_rows(self, doc):
        bulk = _outcome(schedule_from_dict, doc)
        ref = _outcome(_reference_schedule_from_dict, doc)
        if ref[0] == "error":
            assert bulk == ref
            return
        assert bulk[0] == "ok", bulk
        got, want = bulk[1], ref[1]
        assert got == want and got.table == want.table
        assert all(type(v) is int for v in got.table.message_id + got.table.source)
        assert all(type(t) is int for c in got.table.crossings for t in c)

    def test_bfl_document_stays_columnar(self, paper_example):
        sched = bfl(paper_example)
        again = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(sched))))
        assert "trajectories" not in again.__dict__
        assert again == sched


class TestColumnBackedInstance:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(4)
        inst = random_lr_instance(rng)
        return instance_from_dict(instance_to_dict(inst)), inst

    def test_pickle_round_trip(self, pair):
        parsed, twin = pair
        again = pickle.loads(pickle.dumps(parsed))
        assert "messages" not in again.__dict__
        assert again == twin and again == parsed
        assert hash(again) == hash(twin) == hash(parsed)
        assert again.table == twin.table

    def test_pickle_after_messages_built(self, pair):
        parsed, twin = pair
        assert parsed.messages == twin.messages
        state = pickle.loads(pickle.dumps(parsed)).__dict__
        assert "messages" in state and "_table" not in state

    def test_object_built_pickle_omits_derived_table(self, pair):
        _, twin = pair
        twin.table  # derive it
        assert "_table" not in pickle.loads(pickle.dumps(twin)).__dict__

    def test_parent_era_pickle_loads(self):
        # Pickled before instances carried a message table.
        path = Path(__file__).parent / "data" / "instance_parent.pickle"
        plain, bounded = pickle.loads(path.read_bytes())
        assert plain == Instance(
            6,
            (Message(0, 0, 3, 0, 5), Message(1, 1, 4, 2, 9), Message(2, 5, 2, 0, 6)),
        )
        assert plain.table.source == (0, 1, 5)
        assert len(plain) == 3
        assert bounded == Instance(8, (Message(4, 2, 7, 1, 12),), buffer_capacity=2)
        assert bounded[4].deadline == 12

    def test_replace_messages(self, pair):
        parsed, _ = pair
        empty = dataclasses.replace(parsed, messages=())
        assert empty == Instance(parsed.n, ())
        assert len(empty) == 0 and empty.table.id == ()
        assert "messages" not in parsed.__dict__

    def test_repr_and_as_arrays(self, pair):
        parsed, twin = pair
        assert repr(parsed) == repr(twin)
        a, b = parsed.as_arrays(), twin.as_arrays()
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_served_bfl_builds_no_message(self, monkeypatch, paper_example):
        built = []
        original = Message.__post_init__

        def counting(self):
            built.append(self.id)
            original(self)

        monkeypatch.setattr(Message, "__post_init__", counting)
        parsed = api.parse_instance(json.dumps(instance_to_dict(paper_example)))
        result = api.solve(parsed, "bufferless", "bfl")
        result.to_dict()
        assert built == []
        assert "messages" not in parsed.__dict__
        monkeypatch.undo()
        assert result.schedule == bfl(paper_example)
