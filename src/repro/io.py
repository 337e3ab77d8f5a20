"""JSON (de)serialization for instances and schedules.

The format is deliberately plain so traces can be generated, archived and
diffed outside Python.  Instance documents are version 2, which stores
the messages as five equal-length int arrays (one entry per message, in
message order):

```json
{
  "format": "repro-instance",
  "version": 2,
  "n": 12,
  "messages": {
    "id": [0, 1],
    "source": [0, 3],
    "dest": [6, 9],
    "release": [0, 2],
    "deadline": [8, 11]
  }
}
```

Schedules have two forms, and the writer picks one from the schedule's
content alone.  A schedule whose trajectories are all bufferless is
written as version 3: each trajectory is one 45° segment on its scan line,
so ``trajectories`` holds four int arrays, ``message_id``, ``source``,
``depart`` and ``hops`` (crossing ``j`` of a row is at ``depart + j``):

```json
{
  "format": "repro-schedule",
  "version": 3,
  "trajectories": {"message_id": [4, 1], "source": [0, 3], "depart": [2, 5], "hops": [3, 2]}
}
```

Any other schedule is written as version 2, which stores crossing times
per message and so round-trips buffered trajectories: ``trajectories``
holds ``message_id``, ``source`` and ``crossings`` (one int array per
row).  A reader that knows only versions 1 and 2 refuses a version-3
document with ``unsupported version 3``.  Version 1 documents hold one
object per message (``{"id": 0, "source": 0, ...}``) and one per
trajectory, and load unchanged.  ``load_*`` functions validate structure
and re-run the model validators, so a hand-edited file cannot smuggle in
an inconsistent object.

Every integer field goes through :func:`wire_int`: JSON integers and
integral floats such as ``7.0`` pass, while a bool, a string or a
fractional float raises ``ValueError`` naming the message and the field,
so a parsed document never answers a different problem from the one sent.

:func:`instance_from_dict` reads the columns (or the rows of a version-1
document) straight into a :class:`~repro.core.instance.MessageTable` and
validates it in bulk (:meth:`~repro.core.instance.Instance.from_table`);
no ``Message`` object is built until someone reads ``Instance.messages``.
A document that fails a bulk check is parsed again by the per-message
loop, its columns zipped back into rows first, so the caller gets the
same ``ValueError``, with the same text, either way.  Columns of unequal
length are refused, never truncated.

Schedules are columns too.  :func:`schedule_to_dict` writes
:attr:`Schedule.segments <repro.core.schedule.Schedule.segments>` (or the
crossings of :attr:`Schedule.table <repro.core.schedule.Schedule.table>`
for a buffered schedule), and :func:`schedule_from_dict` reads them back
into a :class:`~repro.core.schedule.SegmentTable` checked by
:meth:`~repro.core.schedule.Schedule.from_segments` (or a
:class:`~repro.core.schedule.TrajectoryTable` checked by
:meth:`~repro.core.schedule.Schedule.from_table`), so a BFL schedule goes
from the kernel to JSON and back without a crossing tuple or a
``Trajectory`` object being built.  A schedule built from objects writes
the same document.  A document that fails the bulk check is read again
with its columns zipped back into rows, every field through
:func:`wire_int`, and a table that fails the scan-line check is rebuilt
row by row as ``Trajectory`` objects, so its error is the one the row and
object paths raise.

The dict-level functions here are the *line* documents; ring and mesh
instances carry a ``"topology"`` discriminator and are handled by their
topology's ``instance_to_dict`` / ``instance_from_dict``.  Ring instances
are version-2 columns as well, read through the helpers the line reader
uses: :func:`instance_table` (the bulk read into a ``MessageTable``) and
:func:`instance_rows` (the rows, or the columns zipped back into rows,
for the row-by-row read that names what is wrong).  Ring schedules are
version-2 columns when every trajectory is bufferless (read in bulk with
:func:`plain_int_columns`, or as rows through :func:`column_rows`) and
version-1 rows otherwise; mesh documents read and write version 1 only.
:func:`repro.api.parse_instance` is the one shared parse entrypoint
(CLI, server, client); :func:`load_instance` routes through it, so files
of any topology load transparently.

A version-1 row that is not an object, and a ``crossings`` or
``hop_times`` field that is not an array, raise ``ValueError`` naming the
row, as every other malformed document does.
"""

from __future__ import annotations

import json
from itertools import chain
from numbers import Integral
from operator import itemgetter
from pathlib import Path
from typing import Any

from .core.instance import Instance, MessageTable
from .core.message import Message
from .core.schedule import Schedule, SegmentTable, TrajectoryTable

__all__ = [
    "wire_int",
    "wire_int_array",
    "wire_message_row",
    "check_row_object",
    "instance_table",
    "instance_rows",
    "plain_message_rows",
    "message_row",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "plain_int_columns",
    "column_rows",
    "save_schedule",
    "load_schedule",
]

_INSTANCE_FORMAT = "repro-instance"
_SCHEDULE_FORMAT = "repro-schedule"
#: The instance version the writers here emit; the readers accept 1 (rows)
#: and 2 (columns).
_VERSION = 2
#: The latest schedule version: 3 (segments) for an all-bufferless
#: schedule, 2 (crossings) otherwise; the reader accepts 1 too.
_SCHEDULE_VERSION = 3
_MESSAGE_FIELDS = ("id", "source", "dest", "release", "deadline")
_TRAJECTORY_FIELDS = ("message_id", "source", "crossings")
_SEGMENT_FIELDS = SegmentTable._fields
_row_values = itemgetter(*_MESSAGE_FIELDS)
_trajectory_values = itemgetter(*_TRAJECTORY_FIELDS)


def wire_int(value: Any, field: str, owner: str) -> int:
    """One integer field of a wire document, checked.

    Accepts integers and integral floats (``7.0``); a bool, a string, a
    fractional float or anything else raises ``ValueError`` naming
    ``owner`` (say ``"message 3"``) and ``field``.
    """
    if type(value) is int:
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{owner}: field {field!r} must be an integer, got {value!r}")


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    out = {
        "format": _INSTANCE_FORMAT,
        "version": _VERSION,
        "n": instance.n,
        "messages": dict(zip(_MESSAGE_FIELDS, map(list, instance.table))),
    }
    # Emitted only when set, so an unbounded document (the paper's
    # setting) carries no capacity key.
    if instance.buffer_capacity is not None:
        out["buffer_capacity"] = instance.buffer_capacity
    return out


def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Parse a line instance document into a table-backed :class:`Instance`.

    Falls back to the per-message loop whenever a field is not a plain
    int or a row or column is missing or malformed, so errors are the
    loop's own.
    """
    plain = instance_table(data)
    if plain is not None:
        n, table, cap = plain
        return Instance.from_table(n, table, buffer_capacity=cap)
    return _instance_from_rows(data)


def instance_table(data: dict[str, Any]) -> tuple[int, MessageTable, int | None] | None:
    """``(n, messages, buffer_capacity)`` of an instance document of
    version 1 or 2, read in bulk; the header is checked first.

    ``None`` unless every message value, ``n`` and the capacity (when
    present) are plain ints and the rows or columns are well formed; the
    caller then reads the rows one by one (:func:`instance_rows`), which
    raises the error that fits.  Shared by the line and ring readers.
    """
    version = _check_header(data, _INSTANCE_FORMAT, latest=_VERSION)
    n = data.get("n")
    cap = data.get("buffer_capacity")
    if type(n) is not int or not (cap is None or type(cap) is int):
        return None
    messages = data.get("messages")
    if version == 1:
        values = plain_message_rows(messages)
        if values is None:
            return None
        return n, MessageTable(*zip(*values)) if values else MessageTable.of(()), cap
    columns = plain_int_columns(messages, _MESSAGE_FIELDS)
    if columns is None:
        return None
    return n, MessageTable(*columns), cap


def instance_rows(data: dict[str, Any], what: str) -> list[Any]:
    """The message rows of a header-checked instance document, for the
    row-by-row read: a version-1 array as it is, version-2 columns zipped
    back into row objects.

    Raises ``ValueError`` when the table is no array (version 1) or its
    columns cannot be zipped (version 2); ``KeyError`` when a version-1
    document has no ``messages``, for the caller to report.
    """
    if data.get("version") != 2:
        _check_row_array(data, "messages", what)
        return data["messages"]
    rows = column_rows(data, "messages", _MESSAGE_FIELDS, what)
    return [dict(zip(_MESSAGE_FIELDS, row)) for row in rows]


def _check_row_array(data: dict[str, Any], key: str, what: str) -> None:
    """Refuse a version-1 table ``data[key]`` that is present but no array."""
    rows = data.get(key, [])
    if not isinstance(rows, list):
        raise ValueError(
            f"{what} field {key!r} must be an array of objects (version 1), "
            f"got {type(rows).__name__}"
        )


def _column_lists(columns: Any, fields: tuple[str, ...]) -> list[list[Any]] | None:
    """The ``fields`` columns of a version-2 table, checked in bulk.

    ``None`` unless ``columns`` is an object holding every field as an
    array and all the arrays have one length; the caller checks the values.
    """
    if type(columns) is not dict:
        return None
    try:
        values = [columns[field] for field in fields]
    except KeyError:
        return None
    if set(map(type, values)) == {list} and len(set(map(len, values))) == 1:
        return values
    return None


def column_rows(
    data: dict[str, Any], key: str, fields: tuple[str, ...], what: str
) -> list[tuple[Any, ...]]:
    """The version-2 table ``data[key]`` zipped back into rows (one value
    per field) for the row-by-row read, which reports what is wrong.

    Raises ``ValueError`` when it cannot be zipped: a missing key or
    column, a column that is no array, or columns of unequal length.
    """
    try:
        columns = data[key]
        if not isinstance(columns, dict):
            raise ValueError(
                f"{what} field {key!r} must be an object of arrays "
                f"{', '.join(fields)} (version 2), got {type(columns).__name__}"
            )
        values = [columns[field] for field in fields]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in {what} data") from exc
    for field, value in zip(fields, values):
        if not isinstance(value, list):
            raise ValueError(
                f"{what} column {field!r} must be an array, got {type(value).__name__}"
            )
    if len(set(map(len, values))) > 1:
        lengths = ", ".join(f"{field} {len(value)}" for field, value in zip(fields, values))
        raise ValueError(f"{what} columns differ in length: {lengths}")
    return list(zip(*values))


def plain_message_rows(rows: Any) -> list[tuple[int, int, int, int, int]] | None:
    """``(id, source, dest, release, deadline)`` of every row, checked in bulk.

    ``None`` unless ``rows`` is a list of objects whose five fields are all
    plain ints; the caller then reads the rows one by one with
    :func:`wire_message_row`, which raises the error that fits.
    """
    if type(rows) is not list:
        return None
    try:
        values = list(map(_row_values, rows))
    except (KeyError, TypeError):  # a missing key, or a row that is no object
        return None
    if set(map(type, chain.from_iterable(values))) <= {int}:
        return values
    return None


def _instance_from_rows(data: dict[str, Any]) -> Instance:
    """The per-message reference parse: one checked ``Message`` per row."""
    try:
        messages = tuple(
            Message(*wire_message_row(row, f"message at row {i}"))
            for i, row in enumerate(instance_rows(data, "instance"))
        )
        n = wire_int(data["n"], "n", "instance")
        cap = data.get("buffer_capacity")
        if cap is not None:
            cap = wire_int(cap, "buffer_capacity", "instance")
        return Instance(n, messages, buffer_capacity=cap)
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in instance data") from exc


def wire_message_row(row: dict[str, Any], where: str) -> tuple[int, int, int, int, int]:
    """``(id, source, dest, release, deadline)`` of one message row, each
    through :func:`wire_int`; ``where`` names the row until its id is known.

    A row that is no object raises ``ValueError``; a missing key raises
    ``KeyError`` for the caller to report.
    """
    mid = wire_int(check_row_object(row, where)["id"], "id", where)
    owner = f"message {mid}"
    return (
        mid,
        wire_int(row["source"], "source", owner),
        wire_int(row["dest"], "dest", owner),
        wire_int(row["release"], "release", owner),
        wire_int(row["deadline"], "deadline", owner),
    )


def message_row(message: Any) -> dict[str, Any]:
    """One message as a version-1 row (its five int fields); a dict is
    taken to be a row already and returned as it is.

    The form of a stream's arrival batches and of its journal records.
    """
    if isinstance(message, dict):
        return message
    return {
        "id": message.id,
        "source": message.source,
        "dest": message.dest,
        "release": message.release,
        "deadline": message.deadline,
    }


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    """A schedule document: version-3 segment columns when every trajectory
    is bufferless, version-2 crossings otherwise."""
    segments = schedule.segments
    if segments is not None:
        version, columns = 3, dict(zip(_SEGMENT_FIELDS, map(list, segments)))
    else:
        ids, sources, crossings = schedule.table
        version, columns = 2, {
            "message_id": list(ids),
            "source": list(sources),
            "crossings": list(map(list, crossings)),
        }
    return {"format": _SCHEDULE_FORMAT, "version": version, "trajectories": columns}


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Parse a schedule document into a column-backed :class:`Schedule`.

    Falls back to the row-by-row read whenever a field is not a plain int
    or a row or column is missing or malformed, so errors are that read's
    own.
    """
    version = _check_header(data, _SCHEDULE_FORMAT, latest=_SCHEDULE_VERSION)
    if version == 3:
        segments = _plain_segment_columns(data.get("trajectories"))
        if segments is None:
            segments = _segment_table_from_columns(data)
        return Schedule.from_segments(segments)  # re-validates the scan lines
    if version == 1:
        table = _plain_trajectory_table(data.get("trajectories"))
        if table is None:
            _check_row_array(data, "trajectories", "schedule")
            table = _trajectory_table_from_rows(data)
    else:
        table = _plain_trajectory_columns(data.get("trajectories"))
        if table is None:
            table = _trajectory_table_from_columns(data)
    return Schedule.from_table(table)  # re-validates edge-disjointness


def plain_int_columns(columns: Any, fields: tuple[str, ...]) -> list[tuple[int, ...]] | None:
    """The ``fields`` columns of a version-2 (or later) table as int
    tuples, checked in bulk.

    ``None`` unless ``columns`` holds every field as an array, all of one
    length and all of plain ints; the caller then zips the columns back
    into rows (:func:`column_rows`) for the read that names what is wrong.
    Shared by the line and ring schedule readers.
    """
    values = _column_lists(columns, fields)
    if values is None or not set(map(type, chain.from_iterable(values))) <= {int}:
        return None
    return list(map(tuple, values))


def _plain_segment_columns(columns: Any) -> SegmentTable | None:
    values = plain_int_columns(columns, _SEGMENT_FIELDS)
    return None if values is None else SegmentTable(*values)


def _segment_table_from_columns(data: dict[str, Any]) -> SegmentTable:
    """The version-3 error path: the columns zipped back into rows, every
    field through :func:`wire_int`."""
    ids, sources, departs, hops = [], [], [], []
    for i, (mid, source, depart, count) in enumerate(
        column_rows(data, "trajectories", _SEGMENT_FIELDS, "schedule")
    ):
        mid = wire_int(mid, "message_id", f"trajectory at row {i}")
        owner = f"trajectory for message {mid}"
        ids.append(mid)
        sources.append(wire_int(source, "source", owner))
        departs.append(wire_int(depart, "depart", owner))
        hops.append(wire_int(count, "hops", owner))
    return SegmentTable(tuple(ids), tuple(sources), tuple(departs), tuple(hops))


def _plain_trajectory_table(rows: Any) -> TrajectoryTable | None:
    """The trajectory rows as columns, checked in bulk.

    ``None`` unless ``rows`` is a list of objects whose ``message_id``,
    ``source`` and ``crossings`` are plain ints (a list of them for
    ``crossings``).
    """
    if type(rows) is not list:
        return None
    if not rows:
        return TrajectoryTable((), (), ())
    try:
        ids, sources, crossings = zip(*map(_trajectory_values, rows))
        crossings = tuple(map(tuple, crossings))
    except (KeyError, TypeError):  # a missing key, or a row that is no object
        return None
    if set(map(type, chain(ids, sources, chain.from_iterable(crossings)))) <= {int}:
        return TrajectoryTable(ids, sources, crossings)
    return None


def _plain_trajectory_columns(columns: Any) -> TrajectoryTable | None:
    """A version-2 trajectory table, checked in bulk.

    ``None`` unless ``columns`` holds the arrays ``message_id``, ``source``
    and ``crossings`` of one length, with plain ints for ids and sources
    and an array of plain ints for each row's ``crossings``.
    """
    values = _column_lists(columns, _TRAJECTORY_FIELDS)
    if values is None:
        return None
    ids, sources, crossings = values
    if not set(map(type, crossings)) <= {list}:
        return None
    crossings = tuple(map(tuple, crossings))
    if set(map(type, chain(ids, sources, chain.from_iterable(crossings)))) <= {int}:
        return TrajectoryTable(tuple(ids), tuple(sources), crossings)
    return None


def _trajectory_table_from_rows(data: dict[str, Any]) -> TrajectoryTable:
    """The row-by-row reference read: each field through :func:`wire_int`."""
    try:
        rows = [
            _trajectory_values(check_row_object(row, f"trajectory at row {i}"))
            for i, row in enumerate(data["trajectories"])
        ]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in schedule data") from exc
    return _checked_trajectory_table(rows)


def _trajectory_table_from_columns(data: dict[str, Any]) -> TrajectoryTable:
    """The version-2 error path: the columns zipped back into rows, each
    checked as the row-by-row read checks it."""
    return _checked_trajectory_table(
        column_rows(data, "trajectories", _TRAJECTORY_FIELDS, "schedule")
    )


def _checked_trajectory_table(rows: list[tuple[Any, Any, Any]]) -> TrajectoryTable:
    """``(message_id, source, crossings)`` rows, every field through
    :func:`wire_int`, as columns."""
    ids, sources, crossings = [], [], []
    for i, (mid, source, times) in enumerate(rows):
        mid = wire_int(mid, "message_id", f"trajectory at row {i}")
        owner = f"trajectory for message {mid}"
        ids.append(mid)
        sources.append(wire_int(source, "source", owner))
        crossings.append(wire_int_array(times, "crossings", owner))
    return TrajectoryTable(tuple(ids), tuple(sources), tuple(crossings))


def check_row_object(row: Any, where: str) -> dict[str, Any]:
    """``row`` itself when it is an object; ``ValueError`` naming ``where``
    otherwise."""
    if not isinstance(row, dict):
        raise ValueError(f"{where} must be an object, got {type(row).__name__}")
    return row


def wire_int_array(values: Any, field: str, owner: str) -> tuple[int, ...]:
    """An array field of integers (crossing or hop times), each through
    :func:`wire_int`; anything but an array raises ``ValueError``."""
    if not isinstance(values, list):
        raise ValueError(
            f"{owner}: field {field!r} must be an array of integers, got {values!r}"
        )
    return tuple(wire_int(t, field, owner) for t in values)


def save_instance(instance: Any, path: str | Path) -> None:
    """Write any topology's instance as self-describing JSON.

    Line instances are written as :func:`instance_to_dict`'s version-2
    columns (plus a ``topology`` discriminator); ring/mesh instances
    delegate to their topology's serializer.
    """
    from .topology import topology_of

    doc = topology_of(instance).instance_to_dict(instance)
    Path(path).write_text(json.dumps(doc, indent=2))


def load_instance(path: str | Path) -> Any:
    """Load any topology's instance (via :func:`repro.api.parse_instance`)."""
    from .api import parse_instance

    return parse_instance(Path(path).read_text())


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: str | Path) -> Schedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))


def _check_header(data: dict[str, Any], expected: str, latest: int = 1) -> Any:
    """Check a document's ``format`` and that its ``version`` is one of
    ``1..latest``; returns the version.

    Mesh documents keep the default: version 1 only.
    """
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    fmt = data.get("format")
    if fmt != expected:
        raise ValueError(f"expected format {expected!r}, got {fmt!r}")
    version = data.get("version")
    if version not in range(1, latest + 1):
        supported = f"1..{latest}" if latest > 1 else "1"
        raise ValueError(f"unsupported version {version!r} (supported: {supported})")
    return version
