"""Version-2 line documents: messages and trajectories as columns.

* a version-1 rows document and a version-2 columns document of the same
  instance or schedule parse to equal objects, or raise the same error;
* a version-2 document that fails the bulk check is zipped back into rows,
  so its error names the same message and field as the row read's;
* columns of unequal length are refused, never truncated;
* ring instance documents are columns too, read through the same helpers
  (so their errors are the row read's); ring schedule and mesh documents
  still accept version 1 only;
* documents written before version 2 (``tests/data/v1``) load to the same
  objects as their version-2 re-encodings.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.instance import Instance
from repro.core.message import Message
from repro.core.schedule import Schedule
from repro.core.trajectory import Trajectory
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    message_row,
    schedule_from_dict,
    schedule_to_dict,
    wire_int,
    wire_message_row,
)
from repro.topology import get_topology, topology_of
from repro.topology.ring import RingInstance, RingMessage
from repro.workloads.meshes import random_mesh_instance
from repro.workloads.rings import random_ring_instance

V1 = Path(__file__).parent / "data" / "v1"
MESSAGE_FIELDS = ("id", "source", "dest", "release", "deadline")
TRAJECTORY_FIELDS = ("message_id", "source", "crossings")


def _v1_instance(doc):
    """A version-2 instance document in the version-1 form: one object per
    message, as the writers emitted before columns."""
    columns = doc["messages"]
    rows = [dict(zip(MESSAGE_FIELDS, row)) for row in zip(*(columns[f] for f in MESSAGE_FIELDS))]
    return {**doc, "version": 1, "messages": rows}


def _v1_schedule(doc):
    columns = doc["trajectories"]
    rows = [
        dict(zip(TRAJECTORY_FIELDS, row))
        for row in zip(*(columns[f] for f in TRAJECTORY_FIELDS))
    ]
    return {**doc, "version": 1, "trajectories": rows}


def _v2_instance(doc):
    """A version-1 document whose rows all hold the five fields, as columns."""
    rows = doc["messages"]
    return {
        **doc,
        "version": 2,
        "messages": {f: [row[f] for row in rows] for f in MESSAGE_FIELDS},
    }


def _v2_schedule(doc):
    rows = doc["trajectories"]
    return {
        **doc,
        "version": 2,
        "trajectories": {f: [row[f] for row in rows] for f in TRAJECTORY_FIELDS},
    }


def _outcome(parse, doc):
    try:
        return ("ok", parse(doc))
    except Exception as exc:  # the exception itself is the observable
        return ("error", type(exc), str(exc))


# --------------------------------------------------------------------- #
# Writers
# --------------------------------------------------------------------- #


class TestWriters:
    def test_instance_columns(self):
        inst = Instance(8, (Message(4, 1, 5, 0, 9), Message(2, 6, 0, 3, 12)))
        assert instance_to_dict(inst) == {
            "format": "repro-instance",
            "version": 2,
            "n": 8,
            "messages": {
                "id": [4, 2],
                "source": [1, 6],
                "dest": [5, 0],
                "release": [0, 3],
                "deadline": [9, 12],
            },
        }

    def test_capacity_key_only_when_bounded(self):
        inst = Instance(8, (Message(4, 1, 5, 0, 9),))
        assert "buffer_capacity" not in instance_to_dict(inst)
        assert instance_to_dict(inst.with_buffer_capacity(None)) == instance_to_dict(inst)
        assert instance_to_dict(inst.with_buffer_capacity(0))["buffer_capacity"] == 0

    def test_schedule_columns(self):
        sched = Schedule((Trajectory(3, 1, (0, 4, 5)), Trajectory(7, 0, (2,))))
        assert schedule_to_dict(sched) == {
            "format": "repro-schedule",
            "version": 2,
            "trajectories": {
                "message_id": [3, 7],
                "source": [1, 0],
                "crossings": [[0, 4, 5], [2]],
            },
        }

    def test_empty_documents(self):
        empty = Instance(5, ())
        assert instance_from_dict(instance_to_dict(empty)) == empty
        assert schedule_from_dict(schedule_to_dict(Schedule(()))) == Schedule(())

    def test_writers_build_no_objects(self, paper_example):
        parsed = instance_from_dict(instance_to_dict(paper_example))
        result = api.solve(parsed, "bufferless", "bfl")
        doc = result.to_dict()
        assert "messages" not in vars(parsed)
        assert "trajectories" not in vars(result.schedule)
        assert doc["schedule"]["version"] == 2
        again = api.ScheduleResult.from_dict(json.loads(json.dumps(doc)))
        assert "trajectories" not in vars(again.schedule)
        assert again.schedule == result.schedule

    def test_line_topology_and_client_body(self, paper_example):
        doc = topology_of(paper_example).instance_to_dict(paper_example)
        assert doc["version"] == 2 and doc["topology"] == "line"
        assert api.parse_instance(json.dumps(doc)) == paper_example

    def test_message_row(self):
        m = Message(4, 1, 5, 0, 9)
        assert message_row(m) == {"id": 4, "source": 1, "dest": 5, "release": 0, "deadline": 9}
        row = {"id": 1, "source": 0, "dest": 2, "release": 0, "deadline": 3}
        assert message_row(row) is row


# --------------------------------------------------------------------- #
# rows and columns parse alike
# --------------------------------------------------------------------- #


@st.composite
def line_instances(draw):
    n = draw(st.integers(2, 12))
    k = draw(st.integers(0, 10))
    ids = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True))
    messages = []
    for mid in ids:
        source, dest = draw(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        )
        release = draw(st.integers(0, 15))
        messages.append(Message(mid, source, dest, release, release + draw(st.integers(0, 15))))
    capacity = draw(st.one_of(st.none(), st.integers(0, 3)))
    return Instance(n, tuple(messages), buffer_capacity=capacity)


# Arbitrary int rows: repeated ids, empty and non-increasing crossings and
# overlapping segments all occur, so both forms must also fail alike.
_schedule_rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 6),
        st.one_of(
            st.integers(0, 6).flatmap(
                lambda t: st.integers(1, 4).map(lambda k: list(range(t, t + k)))
            ),
            st.lists(st.integers(0, 8), max_size=4),
        ),
    ),
    max_size=6,
)

# Values the wire may carry where an integer belongs.
_wire_values = st.one_of(
    st.integers(-2, 9),
    st.integers(-2, 9).map(float),
    st.sampled_from([0.5, 7.5, True, False, "3", None, [1], float("nan")]),
)


@st.composite
def ring_instances(draw):
    n = draw(st.integers(3, 12))
    k = draw(st.integers(0, 10))
    ids = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True))
    messages = []
    for mid in ids:
        source = draw(st.integers(0, n - 1))
        dest = (source + draw(st.integers(1, n - 1))) % n
        release = draw(st.integers(0, 15))
        deadline = release + draw(st.integers(0, 15))
        messages.append(RingMessage(mid, source, dest, release, deadline, n))
    capacity = draw(st.one_of(st.none(), st.integers(0, 3)))
    return RingInstance(n, tuple(messages), buffer_capacity=capacity)


def _reference_ring_instance(data):
    """The ring reader as it was before ring documents had columns: one
    checked ``RingMessage`` per row of a version-1 document."""
    try:
        n = wire_int(data["n"], "n", "ring instance")
        messages = tuple(
            RingMessage(*wire_message_row(row, f"message at row {i}"), n=n)
            for i, row in enumerate(data["messages"])
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in ring instance data") from exc
    cap = data.get("buffer_capacity")
    return RingInstance(
        n, messages, None if cap is None else wire_int(cap, "buffer_capacity", "ring instance")
    )


class TestRowsAndColumnsAgree:
    @settings(max_examples=300, deadline=None)
    @given(line_instances())
    def test_instances(self, inst):
        doc = json.loads(json.dumps(instance_to_dict(inst)))
        rows, columns = instance_from_dict(_v1_instance(doc)), instance_from_dict(doc)
        assert rows == columns == inst
        assert rows.table == columns.table == inst.table
        assert rows.canonical_form() == columns.canonical_form() == inst.canonical_form()
        assert rows.buffer_capacity == columns.buffer_capacity == inst.buffer_capacity
        assert instance_to_dict(columns) == doc

    @settings(max_examples=300, deadline=None)
    @given(_schedule_rows)
    def test_schedules(self, rows):
        doc = {
            "format": "repro-schedule",
            "version": 1,
            "trajectories": [dict(zip(TRAJECTORY_FIELDS, row)) for row in rows],
        }
        old = _outcome(schedule_from_dict, doc)
        new = _outcome(schedule_from_dict, _v2_schedule(doc))
        if old[0] == "error":
            assert new == old
            return
        assert new[0] == "ok", new
        got, want = new[1], old[1]
        assert got == want and got.table == want.table
        assert got.delivered_ids == want.delivered_ids
        assert schedule_to_dict(got) == _v2_schedule(doc)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries({f: _wire_values for f in MESSAGE_FIELDS}), max_size=5
        ),
        st.one_of(st.integers(0, 9), st.sampled_from([8.0, "8", True])),
    )
    def test_instance_errors(self, rows, n):
        doc = {"format": "repro-instance", "version": 1, "n": n, "messages": rows}
        assert _outcome(instance_from_dict, _v2_instance(doc)) == _outcome(
            instance_from_dict, doc
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "message_id": _wire_values,
                    "source": _wire_values,
                    "crossings": st.lists(_wire_values, max_size=3),
                }
            ),
            max_size=5,
        )
    )
    def test_schedule_errors(self, rows):
        doc = {"format": "repro-schedule", "version": 1, "trajectories": rows}
        assert _outcome(schedule_from_dict, _v2_schedule(doc)) == _outcome(
            schedule_from_dict, doc
        )

    @settings(max_examples=300, deadline=None)
    @given(ring_instances())
    def test_ring_instances(self, inst):
        doc = json.loads(json.dumps(topology_of(inst).instance_to_dict(inst)))
        rows, columns = api.parse_instance(_v1_instance(doc)), api.parse_instance(doc)
        assert rows == columns == inst
        assert rows.table == columns.table == inst.table
        assert rows.buffer_capacity == columns.buffer_capacity == inst.buffer_capacity
        assert topology_of(columns).instance_to_dict(columns) == doc
        # an integral float sends the document down the row-by-row read
        assert api.parse_instance({**doc, "n": float(inst.n)}) == inst

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.fixed_dictionaries({f: _wire_values for f in MESSAGE_FIELDS}), max_size=5
        ),
        st.one_of(st.integers(0, 9), st.sampled_from([8.0, "8", True])),
        st.one_of(st.none(), st.integers(-1, 2), st.sampled_from([1.0, 1.5, True])),
    )
    def test_ring_instance_errors(self, rows, n, cap):
        doc = {"format": "repro-instance", "version": 1, "topology": "ring"}
        doc.update(n=n, messages=rows)
        if cap is not None:
            doc["buffer_capacity"] = cap
        old = _outcome(api.parse_instance, doc)
        assert _outcome(api.parse_instance, _v2_instance(doc)) == old
        if old[0] == "ok":
            assert old[1] == _reference_ring_instance(doc)
        else:
            assert _outcome(_reference_ring_instance, doc) == old

    def test_solved_schedules(self):
        rng = np.random.default_rng(5)
        from repro.workloads import general_instance

        for _ in range(5):
            inst = general_instance(rng, n=16, k=40, max_release=20, max_slack=5)
            for regime, method in [("bufferless", "bfl"), ("buffered", "greedy")]:
                sched = api.solve(inst, regime, method).schedule
                doc = json.loads(json.dumps(schedule_to_dict(sched)))
                rows, columns = (
                    schedule_from_dict(_v1_schedule(doc)),
                    schedule_from_dict(doc),
                )
                assert rows == columns == sched
                assert rows.table == columns.table == sched.table
                assert rows.delivered_ids == columns.delivered_ids == sched.delivered_ids


# --------------------------------------------------------------------- #
# malformed version-2 documents
# --------------------------------------------------------------------- #


def _instance_doc(**columns):
    base = {
        "id": [0, 4],
        "source": [0, 1],
        "dest": [3, 5],
        "release": [1, 0],
        "deadline": [6, 9],
    }
    base.update(columns)
    return {"format": "repro-instance", "version": 2, "n": 8, "messages": base}


def _schedule_doc(**columns):
    base = {"message_id": [5, 6], "source": [1, 0], "crossings": [[2, 3], [0]]}
    base.update(columns)
    return {"format": "repro-schedule", "version": 2, "trajectories": base}


class TestMalformedColumns:
    def test_well_formed_documents_parse(self):
        assert len(instance_from_dict(_instance_doc())) == 2
        assert schedule_from_dict(_schedule_doc()).delivered_ids == {5, 6}

    @pytest.mark.parametrize("field", MESSAGE_FIELDS)
    def test_ragged_instance_columns(self, field):
        doc = _instance_doc()
        doc["messages"][field] = doc["messages"][field][:1]
        with pytest.raises(ValueError, match="instance columns differ in length") as info:
            instance_from_dict(doc)
        assert f"{field} 1" in str(info.value)
        doc["messages"][field] = [*_instance_doc()["messages"][field], 7]
        with pytest.raises(ValueError, match=f"{field} 3"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
    def test_ragged_schedule_columns(self, field):
        doc = _schedule_doc()
        doc["trajectories"][field] = doc["trajectories"][field][:1]
        with pytest.raises(ValueError, match=f"schedule columns differ in length: .*{field} 1"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("field", MESSAGE_FIELDS)
    def test_missing_instance_column(self, field):
        doc = _instance_doc()
        del doc["messages"][field]
        with pytest.raises(ValueError, match=f"missing field '{field}' in instance data"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", TRAJECTORY_FIELDS)
    def test_missing_schedule_column(self, field):
        doc = _schedule_doc()
        del doc["trajectories"][field]
        with pytest.raises(ValueError, match=f"missing field '{field}' in schedule data"):
            schedule_from_dict(doc)

    def test_missing_table(self):
        doc = _instance_doc()
        del doc["messages"]
        with pytest.raises(ValueError, match="missing field 'messages' in instance data"):
            instance_from_dict(doc)
        doc = _schedule_doc()
        del doc["trajectories"]
        with pytest.raises(ValueError, match="missing field 'trajectories' in schedule data"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("table", [[], [{"id": 0}], "columns", None, 3])
    def test_table_that_is_no_object(self, table):
        doc = {**_instance_doc(), "messages": table}
        with pytest.raises(ValueError, match="'messages' must be an object of arrays"):
            instance_from_dict(doc)
        doc = {**_schedule_doc(), "trajectories": table}
        with pytest.raises(ValueError, match="'trajectories' must be an object of arrays"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("column", ["id", "release"])
    @pytest.mark.parametrize("bad", [(1, 2), "01", 3, None, {"0": 1}])
    def test_column_that_is_no_array(self, column, bad):
        with pytest.raises(ValueError, match=f"instance column '{column}' must be an array"):
            instance_from_dict(_instance_doc(**{column: bad}))

    @pytest.mark.parametrize("field", MESSAGE_FIELDS)
    @pytest.mark.parametrize("bad", [True, "7", 7.5])
    def test_instance_values(self, field, bad):
        doc = _instance_doc()
        doc["messages"][field][1] = bad
        owner = "message at row 1" if field == "id" else "message 4"
        with pytest.raises(
            ValueError, match=f"^{owner}: field '{field}' must be an integer, got {bad!r}"
        ):
            instance_from_dict(doc)
        with pytest.raises(ValueError) as rows:
            instance_from_dict(_v1_instance(doc))
        with pytest.raises(ValueError) as columns:
            api.parse_instance(json.dumps(doc))
        assert str(columns.value) == str(rows.value)

    def test_integral_floats_are_integers(self):
        doc = _instance_doc(release=[1.0, 0.0], deadline=[6.0, 9.0])
        parsed = instance_from_dict({**doc, "n": 8.0, "buffer_capacity": 2.0})
        assert parsed == instance_from_dict({**_instance_doc(), "buffer_capacity": 2})
        assert all(type(v) is int for column in parsed.table for v in column)
        assert type(parsed.n) is int and type(parsed.buffer_capacity) is int

    @pytest.mark.parametrize("key,bad", [("n", "8"), ("n", 8.5), ("buffer_capacity", True)])
    def test_header_fields(self, key, bad):
        with pytest.raises(ValueError, match=f"instance: field '{key}' must be an integer"):
            instance_from_dict({**_instance_doc(), key: bad})

    @pytest.mark.parametrize("field", ["message_id", "source"])
    @pytest.mark.parametrize("bad", [True, "5", 7.5])
    def test_schedule_values(self, field, bad):
        doc = _schedule_doc()
        doc["trajectories"][field][0] = bad
        owner = "trajectory at row 0" if field == "message_id" else "trajectory for message 5"
        with pytest.raises(ValueError, match=f"^{owner}: field '{field}' must be an integer"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("bad", [[True, 3], ["2", "3"], [2, 7.5]])
    def test_crossing_values(self, bad):
        doc = _schedule_doc(crossings=[[0], bad])
        with pytest.raises(
            ValueError, match="^trajectory for message 6: field 'crossings' must be an integer"
        ):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("bad", [[2, 3], "23", 2, None, [[2, 3], 4], [(2, 3), [0]]])
    def test_crossings_not_a_list_of_lists(self, bad):
        doc = _schedule_doc(crossings=bad)
        with pytest.raises(ValueError, match="'crossings' must be an array"):
            schedule_from_dict(doc)

    def test_crossings_row_that_is_no_array(self):
        doc = _schedule_doc(crossings=[[2, 3], 4])
        with pytest.raises(
            ValueError,
            match="^trajectory for message 6: field 'crossings' must be an array of integers",
        ):
            schedule_from_dict(doc)

    def test_overlapping_trajectories(self):
        doc = _schedule_doc(source=[0, 0], crossings=[[0, 1], [0, 1]])
        with pytest.raises(ValueError):  # ConflictError, as for version 1
            schedule_from_dict(doc)


# --------------------------------------------------------------------- #
# versions
# --------------------------------------------------------------------- #


class TestVersions:
    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_line_versions(self, version):
        with pytest.raises(ValueError, match=r"unsupported version .* \(supported: 1\.\.2\)"):
            instance_from_dict({**_instance_doc(), "version": version})
        with pytest.raises(ValueError, match=r"\(supported: 1\.\.2\)"):
            schedule_from_dict({**_schedule_doc(), "version": version})

    def test_version_decides_the_form(self):
        with pytest.raises(ValueError, match="must be an object of arrays"):
            instance_from_dict(_v1_instance(_instance_doc()) | {"version": 2})
        with pytest.raises(ValueError, match="must be an array of objects"):
            instance_from_dict({**_instance_doc(), "version": 1})
        with pytest.raises(ValueError, match="must be an array of objects"):
            schedule_from_dict({**_schedule_doc(), "version": 1})

    def test_mesh_documents_stay_version_1(self):
        inst = random_mesh_instance(np.random.default_rng(3), rows=4, cols=4, k=10)
        topo = topology_of(inst)
        doc = topo.instance_to_dict(inst)
        assert doc["version"] == 1
        assert api.parse_instance(json.dumps(doc)) == inst
        with pytest.raises(ValueError, match=r"unsupported version 2 \(supported: 1\)"):
            api.parse_instance({**doc, "version": 2})
        sched = topo.schedule_to_dict(api.solve(inst, "bufferless", "bfl").schedule)
        assert sched["version"] == 1
        with pytest.raises(ValueError, match=r"unsupported version 2 \(supported: 1\)"):
            topo.schedule_from_dict({**sched, "version": 2})

    def test_ring_instances_are_version_2_and_schedules_version_1(self):
        inst = random_ring_instance(np.random.default_rng(7), n=8, k=10)
        topo = topology_of(inst)
        doc = topo.instance_to_dict(inst)
        assert doc["version"] == 2 and doc["topology"] == "ring"
        assert set(doc["messages"]) == set(MESSAGE_FIELDS)
        assert api.parse_instance(json.dumps(doc)) == inst
        assert api.parse_instance(json.dumps(_v1_instance(doc))) == inst
        for version in (0, 3, "2", None):
            with pytest.raises(ValueError, match=r"unsupported version .* \(supported: 1\.\.2\)"):
                api.parse_instance({**doc, "version": version})
        sched = topo.schedule_to_dict(api.solve(inst, "bufferless", "bfl").schedule)
        assert sched["version"] == 1
        with pytest.raises(ValueError, match=r"unsupported version 2 \(supported: 1\)"):
            topo.schedule_from_dict({**sched, "version": 2})


# --------------------------------------------------------------------- #
# documents written before version 2
# --------------------------------------------------------------------- #


def _load(name):
    return json.loads((V1 / name).read_text())


class TestVersion1Fixtures:
    """Written with ``save_instance``, ``repro solve --out`` and
    ``ScheduleResult.to_dict`` while documents held one object per row."""

    @pytest.mark.parametrize("name", ["instance.json", "instance_bounded.json"])
    def test_instances(self, name):
        doc = _load(name)
        assert doc["version"] == 1 and isinstance(doc["messages"], list)
        old = api.parse_instance(doc)
        again = api.parse_instance(json.dumps(topology_of(old).instance_to_dict(old)))
        assert again == old
        assert again.table == old.table
        assert again.canonical_form() == old.canonical_form()
        assert again.buffer_capacity == old.buffer_capacity
        assert len(old) == len(doc["messages"])

    def test_schedule(self):
        doc = _load("schedule_bfl.json")
        assert doc["version"] == 1 and isinstance(doc["trajectories"], list)
        old = schedule_from_dict(doc)
        again = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(old))))
        assert again == old and again.table == old.table
        assert again.delivered_ids == old.delivered_ids
        inst = api.parse_instance(_load("instance.json"))
        assert old == api.solve(inst, "bufferless", "bfl").schedule

    @pytest.mark.parametrize(
        "name,regime,method",
        [("result_bfl.json", "bufferless", "bfl"), ("result_greedy.json", "buffered", "greedy")],
    )
    def test_results(self, name, regime, method):
        doc = _load(name)
        assert doc["schedule"]["version"] == 1
        old = api.ScheduleResult.from_dict(doc)
        again = api.ScheduleResult.from_dict(json.loads(json.dumps(old.to_dict())))
        assert again.schedule == old.schedule
        assert again.schedule.table == old.schedule.table
        assert again.delivered_ids == old.delivered_ids
        assert again.summary() == old.summary()
        inst = api.parse_instance(_load("instance.json"))
        assert old.schedule == api.solve(inst, regime, method).schedule

    def test_ring_instance(self):
        doc = _load("ring_instance.json")
        assert doc["version"] == 1 and isinstance(doc["messages"], list)
        old = api.parse_instance(doc)
        again = api.parse_instance(json.dumps(topology_of(old).instance_to_dict(old)))
        assert again == old and again.table == old.table
        assert len(old) == len(doc["messages"])
        ring = get_topology("ring")
        want = ring.schedule_from_dict(_load("ring_schedule_bfl.json"))
        for inst in (old, again):
            assert api.solve(inst, "bufferless", "bfl").schedule == want

    def test_buffered_fixture_waits(self):
        # the greedy fixture holds trajectories that wait at a node, so the
        # version-2 crossings column carries gaps
        old = api.ScheduleResult.from_dict(_load("result_greedy.json"))
        assert old.schedule.total_wait > 0
