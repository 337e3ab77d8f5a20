"""JSON (de)serialization for instances and schedules.

The format is deliberately plain so traces can be generated, archived and
diffed outside Python:

```json
{
  "format": "repro-instance",
  "version": 1,
  "n": 12,
  "messages": [{"id": 0, "source": 0, "dest": 6, "release": 0, "deadline": 8}]
}
```

Schedules store crossing times per message, which round-trips buffered and
bufferless trajectories alike.  ``load_*`` functions validate structure and
re-run the model validators, so a hand-edited file cannot smuggle in an
inconsistent object.

Every integer field goes through :func:`wire_int`: JSON integers and
integral floats such as ``7.0`` pass, while a bool, a string or a
fractional float raises ``ValueError`` naming the message and the field,
so a parsed document never answers a different problem from the one sent.

:func:`instance_from_dict` reads the rows straight into the five int
columns of a :class:`~repro.core.instance.MessageTable` and validates them
in bulk (:meth:`~repro.core.instance.Instance.from_table`); no ``Message``
object is built until someone reads ``Instance.messages``.  A document
that fails a bulk check is parsed again by the per-message loop, so the
caller gets the same ``ValueError``, with the same text, either way.

Schedules are columns too.  :func:`schedule_to_dict` writes the rows of
:attr:`Schedule.table <repro.core.schedule.Schedule.table>` and
:func:`schedule_from_dict` reads them back into a
:class:`~repro.core.schedule.TrajectoryTable` checked by
:meth:`~repro.core.schedule.Schedule.from_table`, so a BFL schedule goes
from the kernel to JSON and back without a ``Trajectory`` object being
built.  A schedule built from objects writes the same document bytes.

The dict-level functions here are the *line* documents; ring and mesh
instances carry a ``"topology"`` discriminator and are handled by their
topology's ``instance_to_dict`` / ``instance_from_dict``.
:func:`repro.api.parse_instance` is the one shared parse entrypoint
(CLI, server, client); :func:`load_instance` routes through it, so files
of any topology load transparently.
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
from .core.schedule import Schedule, TrajectoryTable

__all__ = [
    "wire_int",
    "wire_message_row",
    "plain_message_rows",
    "instance_to_dict",
    "instance_from_dict",
    "save_instance",
    "load_instance",
    "schedule_to_dict",
    "schedule_from_dict",
    "save_schedule",
    "load_schedule",
]

_INSTANCE_FORMAT = "repro-instance"
_SCHEDULE_FORMAT = "repro-schedule"
_VERSION = 1
_row_values = itemgetter("id", "source", "dest", "release", "deadline")
_trajectory_values = itemgetter("message_id", "source", "crossings")


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
        "messages": [
            {
                "id": m.id,
                "source": m.source,
                "dest": m.dest,
                "release": m.release,
                "deadline": m.deadline,
            }
            for m in instance
        ],
    }
    # Emitted only when set so unbounded documents stay byte-identical
    # to the historic format.
    if instance.buffer_capacity is not None:
        out["buffer_capacity"] = instance.buffer_capacity
    return out


def instance_from_dict(data: dict[str, Any]) -> Instance:
    """Parse a line instance document into a table-backed :class:`Instance`.

    Falls back to the per-message loop whenever a field is not a plain
    int or a row is missing or malformed, so errors are the loop's own.
    """
    _check_header(data, _INSTANCE_FORMAT)
    values = plain_message_rows(data.get("messages"))
    n = data.get("n")
    cap = data.get("buffer_capacity")
    if values is not None and type(n) is int and (cap is None or type(cap) is int):
        table = MessageTable(*zip(*values)) if values else MessageTable.of(())
        return Instance.from_table(n, table, buffer_capacity=cap)
    return _instance_from_rows(data)


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
            for i, row in enumerate(data["messages"])
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

    A missing key raises ``KeyError`` for the caller to report.
    """
    mid = wire_int(row["id"], "id", where)
    owner = f"message {mid}"
    return (
        mid,
        wire_int(row["source"], "source", owner),
        wire_int(row["dest"], "dest", owner),
        wire_int(row["release"], "release", owner),
        wire_int(row["deadline"], "deadline", owner),
    )


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "format": _SCHEDULE_FORMAT,
        "version": _VERSION,
        "trajectories": [
            {"message_id": mid, "source": source, "crossings": list(crossings)}
            for mid, source, crossings in zip(*schedule.table)
        ],
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    """Parse a schedule document into a table-backed :class:`Schedule`.

    Falls back to the row-by-row read whenever a field is not a plain int
    or a row is missing or malformed, so errors are that read's own.
    """
    _check_header(data, _SCHEDULE_FORMAT)
    table = _plain_trajectory_table(data.get("trajectories"))
    if table is None:
        table = _trajectory_table_from_rows(data)
    return Schedule.from_table(table)  # re-validates edge-disjointness


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


def _trajectory_table_from_rows(data: dict[str, Any]) -> TrajectoryTable:
    """The row-by-row reference read: each field through :func:`wire_int`."""
    try:
        # One flat row per trajectory: message_id, source, *crossings.
        rows = [
            (row["message_id"], row["source"], *row["crossings"])
            for row in data["trajectories"]
        ]
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in schedule data") from exc
    rows = [_checked_trajectory_row(i, row) for i, row in enumerate(rows)]
    return TrajectoryTable(
        tuple(map(itemgetter(0), rows)),
        tuple(map(itemgetter(1), rows)),
        tuple(row[2:] for row in rows),
    )


def _checked_trajectory_row(index: int, row: tuple[Any, ...]) -> tuple[int, ...]:
    mid = wire_int(row[0], "message_id", f"trajectory at row {index}")
    owner = f"trajectory for message {mid}"
    return (
        mid,
        wire_int(row[1], "source", owner),
        *(wire_int(t, "crossings", owner) for t in row[2:]),
    )


def save_instance(instance: Any, path: str | Path) -> None:
    """Write any topology's instance as self-describing JSON.

    Line instances keep the historic document shape (plus a ``topology``
    discriminator); ring/mesh instances delegate to their topology's
    serializer.
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


def _check_header(data: dict[str, Any], expected: str) -> None:
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    fmt = data.get("format")
    if fmt != expected:
        raise ValueError(f"expected format {expected!r}, got {fmt!r}")
    version = data.get("version")
    if version != _VERSION:
        raise ValueError(f"unsupported version {version!r} (supported: {_VERSION})")
