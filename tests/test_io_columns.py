"""Column documents: line instances and schedules, ring instances and
schedules.

* a version-1 rows document and a version-2 columns document of the same
  instance or schedule parse to equal objects, or raise the same error;
* an all-bufferless line schedule is a version-3 document of scan-line
  segments (``message_id``, ``source``, ``depart``, ``hops``), and an
  all-bufferless ring schedule a version-2 document of helix segments
  (``n`` plus ``message_id``, ``source``, ``depart``, ``span``); buffered
  schedules keep crossings (line, version 2) or rows (ring, version 1);
* a columns document that fails the bulk check is zipped back into rows,
  so its error names the same message and field as the row read's, and a
  segment table that fails the scan-line check raises what the
  object-built schedule raises;
* columns of unequal length are refused, never truncated;
* ring instance documents are columns too, read through the same helpers
  (so their errors are the row read's); mesh documents still accept
  version 1 only;
* documents written before version 3 (``tests/data/v1``,
  ``tests/data/v2``) load to the same objects as a fresh solve, and
  re-encode to the documents a fresh solve writes.
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
from repro.core.schedule import ConflictError, Schedule
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
from repro.topology.ring import (
    BufferedRingTrajectory,
    RingInstance,
    RingMessage,
    RingSchedule,
    RingTrajectory,
)
from repro.workloads.meshes import random_mesh_instance
from repro.workloads.rings import random_ring_instance

V1 = Path(__file__).parent / "data" / "v1"
V2 = Path(__file__).parent / "data" / "v2"
MESSAGE_FIELDS = ("id", "source", "dest", "release", "deadline")
TRAJECTORY_FIELDS = ("message_id", "source", "crossings")
SEGMENT_FIELDS = ("message_id", "source", "depart", "hops")
RING_FIELDS = ("message_id", "source", "depart", "span")


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


def _v3_schedule(doc):
    """A version-1 or version-2 document whose rows are all bufferless, as
    the version-3 segment columns the writer emits for it."""
    if doc["version"] == 1:
        doc = _v2_schedule(doc)
    columns = doc["trajectories"]
    crossings = columns["crossings"]
    return {
        **doc,
        "version": 3,
        "trajectories": {
            "message_id": columns["message_id"],
            "source": columns["source"],
            "depart": [c[0] for c in crossings],
            "hops": [len(c) for c in crossings],
        },
    }


def _crossings_schedule(doc):
    """A version-3 document as the version-2 crossings it stands for."""
    columns = doc["trajectories"]
    return {
        **doc,
        "version": 2,
        "trajectories": {
            "message_id": columns["message_id"],
            "source": columns["source"],
            "crossings": [
                list(range(d, d + h)) for d, h in zip(columns["depart"], columns["hops"])
            ],
        },
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
        assert set(vars(result.schedule)) == {"_segments"}  # no crossings either
        assert doc["schedule"]["version"] == 3
        again = api.ScheduleResult.from_dict(json.loads(json.dumps(doc)))
        assert set(vars(again.schedule)) == {"_segments"}
        assert again.schedule == result.schedule

    def test_bufferless_schedule_segments(self):
        # whichever constructor built it
        rows = (Trajectory(3, 1, (4, 5, 6)), Trajectory(7, 0, (2,)))
        want = {
            "format": "repro-schedule",
            "version": 3,
            "trajectories": {
                "message_id": [3, 7],
                "source": [1, 0],
                "depart": [4, 2],
                "hops": [3, 1],
            },
        }
        assert schedule_to_dict(Schedule(rows)) == want
        assert schedule_to_dict(schedule_from_dict(_crossings_schedule(want))) == want
        assert schedule_from_dict(want) == Schedule(rows)

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
        expected = _v3_schedule(doc) if want.bufferless else _v2_schedule(doc)
        assert schedule_to_dict(got) == expected

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
                assert doc["version"] == (3 if sched.bufferless else 2)
                crossings = _crossings_schedule(doc) if doc["version"] == 3 else doc
                rows, columns, segments = (
                    schedule_from_dict(_v1_schedule(crossings)),
                    schedule_from_dict(crossings),
                    schedule_from_dict(doc),
                )
                assert rows == columns == segments == sched
                assert rows.table == columns.table == segments.table == sched.table
                assert rows.delivered_ids == columns.delivered_ids == sched.delivered_ids
                assert schedule_to_dict(rows) == schedule_to_dict(columns) == doc


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


def _segment_doc(**columns):
    base = {"message_id": [5, 6], "source": [1, 0], "depart": [2, 0], "hops": [2, 1]}
    base.update(columns)
    return {"format": "repro-schedule", "version": 3, "trajectories": base}


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
        # schedules go up to version 3, whose table holds segments
        match = "missing field 'depart'" if version == 3 else r"\(supported: 1\.\.3\)"
        with pytest.raises(ValueError, match=match):
            schedule_from_dict({**_schedule_doc(), "version": version})

    @pytest.mark.parametrize("version", [4, "3"])
    def test_line_schedule_versions_past_3(self, version):
        with pytest.raises(ValueError, match=r"unsupported version .* \(supported: 1\.\.3\)"):
            schedule_from_dict({**_segment_doc(), "version": version})

    def test_version_decides_the_form(self):
        with pytest.raises(ValueError, match="must be an object of arrays"):
            instance_from_dict(_v1_instance(_instance_doc()) | {"version": 2})
        with pytest.raises(ValueError, match="must be an array of objects"):
            instance_from_dict({**_instance_doc(), "version": 1})
        with pytest.raises(ValueError, match="must be an array of objects"):
            schedule_from_dict({**_schedule_doc(), "version": 1})
        with pytest.raises(ValueError, match="missing field 'crossings'"):
            schedule_from_dict({**_segment_doc(), "version": 2})

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

    def test_ring_instances_and_bufferless_schedules_are_version_2(self):
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
        schedule = api.solve(inst, "bufferless", "bfl").schedule
        sched = topo.schedule_to_dict(schedule)
        assert sched["version"] == 2 and sched["n"] == 8
        assert set(sched["trajectories"]) == set(RING_FIELDS)
        assert topo.schedule_from_dict(json.loads(json.dumps(sched))) == schedule
        for version in (0, 3, "2", None):
            with pytest.raises(ValueError, match=r"unsupported version .* \(supported: 1\.\.2\)"):
                topo.schedule_from_dict({**sched, "version": version})
        # a buffered trajectory keeps the whole schedule in version-1 rows
        waits = BufferedRingTrajectory(99, 0, 20, 2, 8, hop_times=(20, 22))
        buffered = RingSchedule(schedule.trajectories + (waits,))
        rows = topo.schedule_to_dict(buffered)
        assert rows["version"] == 1 and rows["trajectories"][-1]["hop_times"] == [20, 22]
        assert topo.schedule_from_dict(json.loads(json.dumps(rows))) == buffered


# --------------------------------------------------------------------- #
# segment documents: line version 3, ring version 2
# --------------------------------------------------------------------- #


def _reference_segment_read(data):
    """A version-3 line document read row by row: the columns zipped back
    into rows, every field through ``wire_int``, one ``Trajectory`` per
    row, then the object-built ``Schedule``."""
    columns = data["trajectories"]
    rows = zip(*(columns[f] for f in SEGMENT_FIELDS))
    trajectories = []
    for i, (mid, source, depart, hops) in enumerate(rows):
        mid = wire_int(mid, "message_id", f"trajectory at row {i}")
        owner = f"trajectory for message {mid}"
        source = wire_int(source, "source", owner)
        depart = wire_int(depart, "depart", owner)
        hops = wire_int(hops, "hops", owner)
        trajectories.append((mid, source, depart, hops))
    return Schedule(
        tuple(Trajectory(mid, s, tuple(range(d, d + h))) for mid, s, d, h in trajectories)
    )


def _ring_rows_doc(doc):
    """A version-2 ring schedule document as the version-1 rows it stands
    for (one object per trajectory)."""
    columns = doc["trajectories"]
    rows = [dict(zip(RING_FIELDS, row)) for row in zip(*(columns[f] for f in RING_FIELDS))]
    return {**doc, "version": 1, "trajectories": rows}


def _ring_doc(n=6, **columns):
    base = {"message_id": [5, 6], "source": [1, 4], "depart": [0, 2], "span": [2, 3]}
    base.update(columns)
    return {"format": "repro-ring-schedule", "version": 2, "n": n, "trajectories": base}


def _ring_read(doc):
    return get_topology("ring").schedule_from_dict(doc)


_segment_columns = st.integers(0, 6).flatmap(
    lambda k: st.tuples(
        *(
            st.lists(values, min_size=k, max_size=k)
            for values in (
                st.integers(0, 5),
                st.integers(0, 6),
                st.integers(-1, 6),
                st.integers(-1, 4),
            )
        )
    )
)

_wire_segment_columns = st.integers(0, 4).flatmap(
    lambda k: st.tuples(*(st.lists(_wire_values, min_size=k, max_size=k) for _ in range(4)))
)

# One well-formed case per malformation: the reader's outcome must be the
# row and object path's (type and text).
_MALFORMED = {
    "bool id": {"message_id": [5, True]},
    "bool source": {"source": [False, 0]},
    "fractional depart": {"depart": [2, 0.5]},
    "fractional count": {"hops": [2.5, 1], "span": [2.5, 3]},
    "string count": {"hops": ["2", 1], "span": ["2", 3]},
    "zero count": {"hops": [2, 0], "span": [2, 0]},
    "negative count": {"hops": [-1, 1], "span": [-1, 3]},
    "repeated id": {"message_id": [5, 5]},
}


class TestSegmentDocuments:
    """Line version 3: a scan-line segment per row."""

    @settings(max_examples=400, deadline=None)
    @given(_segment_columns)
    def test_segments_crossings_and_objects_agree(self, columns):
        doc = {
            "format": "repro-schedule",
            "version": 3,
            "trajectories": dict(zip(SEGMENT_FIELDS, map(list, columns))),
        }
        got = _outcome(schedule_from_dict, doc)
        if got[0] == "ok":
            sched = got[1]
            assert sched.delivered_ids == frozenset(columns[0])
            assert schedule_to_dict(sched) == doc
            assert set(vars(sched)) == {"_segments"}
        assert got == _outcome(_reference_segment_read, doc)
        assert got == _outcome(schedule_from_dict, _crossings_schedule(doc))

    @settings(max_examples=400, deadline=None)
    @given(_wire_segment_columns)
    def test_errors_are_the_row_reads(self, columns):
        doc = {
            "format": "repro-schedule",
            "version": 3,
            "trajectories": dict(zip(SEGMENT_FIELDS, map(list, columns))),
        }
        assert _outcome(schedule_from_dict, doc) == _outcome(_reference_segment_read, doc)

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed(self, case):
        fix = {k: v for k, v in _MALFORMED[case].items() if k in SEGMENT_FIELDS}
        doc = _segment_doc(**fix)
        got = _outcome(schedule_from_dict, doc)
        assert got[0] == "error" and got[1] is not ConflictError
        assert got == _outcome(_reference_segment_read, doc)
        if all(type(v) is int for column in fix.values() for v in column):
            assert got == _outcome(schedule_from_dict, _crossings_schedule(doc))

    def test_overlap_on_one_scan_line(self):
        # 5 runs 1->4 during [2, 5); 6 boards the same line (alpha = -1) at
        # node 3, time 4, while 5 still holds link (3, 4)
        doc = _segment_doc(source=[1, 3], depart=[2, 4], hops=[3, 1])
        got = _outcome(schedule_from_dict, doc)
        conflict = "messages 5 and 6 both cross link (3, 4) during [4, 5]"
        assert got == ("error", ConflictError, conflict)
        assert got == _outcome(_reference_segment_read, doc)
        assert got == _outcome(schedule_from_dict, _crossings_schedule(doc))
        # the next step on that line is free
        after = _segment_doc(source=[1, 4], depart=[2, 5], hops=[3, 1])
        assert len(schedule_from_dict(after)) == 2

    @pytest.mark.parametrize("field", SEGMENT_FIELDS)
    def test_ragged_columns(self, field):
        doc = _segment_doc()
        doc["trajectories"][field] = doc["trajectories"][field][:1]
        lengths = ", ".join(f"{f} {1 if f == field else 2}" for f in SEGMENT_FIELDS)
        with pytest.raises(ValueError, match=f"^schedule columns differ in length: {lengths}$"):
            schedule_from_dict(doc)

    @pytest.mark.parametrize("field", SEGMENT_FIELDS)
    def test_missing_column(self, field):
        doc = _segment_doc()
        del doc["trajectories"][field]
        with pytest.raises(ValueError, match=f"missing field '{field}' in schedule data"):
            schedule_from_dict(doc)

    def test_integral_floats_are_integers(self):
        doc = _segment_doc(depart=[2.0, 0.0], hops=[2.0, 1.0])
        assert schedule_from_dict(doc) == schedule_from_dict(_segment_doc())
        assert all(type(v) is int for v in schedule_from_dict(doc).segments.hops)


class TestRingSegmentDocuments:
    """Ring version 2: ``n`` plus a helix segment per row."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(3, 8), _segment_columns)
    def test_columns_rows_and_objects_agree(self, n, columns):
        doc = {
            "format": "repro-ring-schedule",
            "version": 2,
            "n": n,
            "throughput": len(columns[0]),
            "trajectories": dict(zip(RING_FIELDS, map(list, columns))),
        }
        got = _outcome(_ring_read, doc)
        assert got == _outcome(_ring_read, _ring_rows_doc(doc))
        objects = _outcome(
            lambda rows: RingSchedule(tuple(map(RingTrajectory, *rows, [n] * len(rows[0])))),
            columns,
        )
        assert got == objects
        if got[0] == "ok":
            written = {**doc, "n": n if columns[0] else None}  # no size when empty
            assert get_topology("ring").schedule_to_dict(got[1]) == written

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.integers(3, 8), _wire_values), _wire_segment_columns)
    def test_errors_are_the_row_reads(self, n, columns):
        doc = {
            "format": "repro-ring-schedule",
            "version": 2,
            "n": n,
            "trajectories": dict(zip(RING_FIELDS, map(list, columns))),
        }
        assert _outcome(_ring_read, doc) == _outcome(_ring_read, _ring_rows_doc(doc))

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed(self, case):
        doc = _ring_doc(**{k: v for k, v in _MALFORMED[case].items() if k in RING_FIELDS})
        got = _outcome(_ring_read, doc)
        assert got == _outcome(_ring_read, _ring_rows_doc(doc))
        assert got[0] == "error"
        if case in ("zero count", "negative count"):  # a span that holds no slot
            mid = 6 if case == "zero count" else 5
            assert got[1:] == (ValueError, f"trajectory for message {mid} crosses no link")

    @pytest.mark.parametrize("n", [-4, 0, 1, 2])
    def test_ring_too_small(self, n):
        doc = _ring_doc(n=n)
        got = _outcome(_ring_read, doc)
        assert got == (
            "error",
            ValueError,
            "trajectory for message 5: a ring needs at least 3 nodes",
        )
        assert got == _outcome(_ring_read, _ring_rows_doc(doc))

    def test_overlap_on_one_helix(self):
        # on a 6-ring, (source 1, depart 0) and (source 3, depart 2) share
        # helix 1; 5 holds link 3 at time 2 when 6 departs over it
        doc = _ring_doc(source=[1, 3], depart=[0, 2], span=[3, 1])
        got = _outcome(_ring_read, doc)
        assert got == ("error", ValueError, "messages 5 and 6 share link 3 at time 2")
        assert got == _outcome(_ring_read, _ring_rows_doc(doc))

    @pytest.mark.parametrize("field", RING_FIELDS)
    def test_ragged_columns(self, field):
        doc = _ring_doc()
        doc["trajectories"][field] = doc["trajectories"][field][:1]
        lengths = ", ".join(f"{f} {1 if f == field else 2}" for f in RING_FIELDS)
        with pytest.raises(
            ValueError, match=f"^ring schedule columns differ in length: {lengths}$"
        ):
            _ring_read(doc)

    @pytest.mark.parametrize("n", [None, "6", 6.5, True])
    def test_ring_size(self, n):
        doc = _ring_doc(n=n)
        got = _outcome(_ring_read, doc)
        assert got[0] == "error" and "field 'n' must be an integer" in got[2]
        assert got == _outcome(_ring_read, _ring_rows_doc(doc))
        assert _ring_read(_ring_doc(n=6.0)) == _ring_read(_ring_doc())

    def test_empty_schedule(self):
        ring = get_topology("ring")
        doc = ring.schedule_to_dict(RingSchedule())
        assert doc["version"] == 2 and doc["n"] is None
        assert ring.schedule_from_dict(json.loads(json.dumps(doc))) == RingSchedule()


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


class TestFixturesAgainstAFreshSolve:
    """Every schedule fixture, written while line schedules were crossings
    (``v1`` rows, ``v2`` columns) and ring schedules rows, loads to the
    schedule a fresh solve returns and re-encodes to the document a fresh
    solve writes: version-3 segments for the bufferless line schedules,
    version-2 columns for the ring one, version-2 crossings for the
    buffered greedy."""

    @staticmethod
    def _fresh(regime, method, name="instance.json"):
        return api.solve(api.parse_instance(_load(name)), regime, method)

    @pytest.mark.parametrize("folder,version", [(V1, 1), (V2, 2)])
    def test_schedules(self, folder, version):
        doc = json.loads((folder / "schedule_bfl.json").read_text())
        assert doc["version"] == version
        old = schedule_from_dict(doc)
        fresh = self._fresh("bufferless", "bfl").schedule
        assert old == fresh
        written = schedule_to_dict(old)
        assert written["version"] == 3
        assert written == schedule_to_dict(fresh)

    @pytest.mark.parametrize(
        "folder,name,regime,method,written",
        [
            (V1, "result_bfl.json", "bufferless", "bfl", 3),
            (V2, "result_bfl.json", "bufferless", "bfl", 3),
            (V1, "result_greedy.json", "buffered", "greedy", 2),
        ],
    )
    def test_results(self, folder, name, regime, method, written):
        old = api.ScheduleResult.from_dict(json.loads((folder / name).read_text()))
        fresh = self._fresh(regime, method)
        assert old.schedule == fresh.schedule
        assert old.summary() == fresh.summary()
        doc = old.to_dict()
        assert doc["schedule"]["version"] == written
        assert doc["schedule"] == fresh.to_dict()["schedule"]

    def test_ring_schedule(self):
        ring = get_topology("ring")
        old = ring.schedule_from_dict(_load("ring_schedule_bfl.json"))
        fresh = self._fresh("bufferless", "bfl", "ring_instance.json").schedule
        assert old == fresh
        written = ring.schedule_to_dict(old)
        assert written["version"] == 2
        assert written == ring.schedule_to_dict(fresh)
