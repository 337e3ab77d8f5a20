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

The dict-level functions here are the *line* documents; ring and mesh
instances carry a ``"topology"`` discriminator and are handled by their
topology's ``instance_to_dict`` / ``instance_from_dict``.
:func:`repro.api.parse_instance` is the one shared parse entrypoint
(CLI, server, client); :func:`load_instance` routes through it, so files
of any topology load transparently.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .core.instance import Instance
from .core.message import Message
from .core.schedule import Schedule
from .core.trajectory import Trajectory

__all__ = [
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
    _check_header(data, _INSTANCE_FORMAT)
    try:
        messages = tuple(
            Message(
                id=int(row["id"]),
                source=int(row["source"]),
                dest=int(row["dest"]),
                release=int(row["release"]),
                deadline=int(row["deadline"]),
            )
            for row in data["messages"]
        )
        cap = data.get("buffer_capacity")
        return Instance(
            int(data["n"]), messages, buffer_capacity=None if cap is None else int(cap)
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in instance data") from exc


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "format": _SCHEDULE_FORMAT,
        "version": _VERSION,
        "trajectories": [
            {
                "message_id": t.message_id,
                "source": t.source,
                "crossings": list(t.crossings),
            }
            for t in schedule
        ],
    }


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    _check_header(data, _SCHEDULE_FORMAT)
    try:
        trajectories = tuple(
            Trajectory(
                message_id=int(row["message_id"]),
                source=int(row["source"]),
                crossings=tuple(map(int, row["crossings"])),
            )
            for row in data["trajectories"]
        )
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in schedule data") from exc
    return Schedule(trajectories)  # re-validates edge-disjointness


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
