"""The versioned workload-trace format: compact, replayable JSONL.

A *workload trace* is an arrival stream on disk — one JSON header line
followed by one compact JSON line per message, in nondecreasing release
order.  The format is line-oriented so million-message traces can be
written and read with bounded memory (:class:`TraceWriter` /
:class:`TraceReader` never hold more than one record), generated and
diffed outside Python, and shipped to the serving tier as-is::

    {"format":"repro-workload-trace","version":1,"trace_id":"tr-...","topology":"line","n":32,"shape":"bursty","seed":7,...}
    {"id":0,"source":3,"dest":11,"release":0,"deadline":12}
    {"id":1,"source":0,"dest":8,"release":0,"deadline":9}
    ...

Two vocabularies share the word "trace" in this library; this module is
the **workload** one (what arrived, when).  Per-packet lifecycle *event*
traces live in :mod:`repro.trace.events` and observability traces in
:mod:`repro.obs` — see the vocabulary table in ``docs/api.md``.

The header carries provenance (``trace_id``, ``shape``, ``seed``, the
generating :class:`~repro.workloads.WorkloadSpec` document when known)
that replay attaches to results as the schema-v4 ``workload`` block, so
a benchmark number can always be traced back to the workload that
produced it.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .. import obs
from ..io import wire_int

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceRecord",
    "WorkloadTrace",
    "TraceWriter",
    "TraceReader",
    "write_trace",
    "read_trace",
    "open_trace",
]

TRACE_FORMAT = "repro-workload-trace"
TRACE_VERSION = 1

#: Topologies a trace can carry (the shapes with a message vocabulary).
TRACE_TOPOLOGIES = ("line", "ring", "mesh")


def _node(value: Any, name: str, owner: str) -> int | tuple[int, int]:
    """Canonicalize a node endpoint: int for line/ring, (row, col) for mesh."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"mesh endpoint must be [row, col], got {value!r}")
        return (wire_int(value[0], name, owner), wire_int(value[1], name, owner))
    return wire_int(value, name, owner)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One arrival: the five message fields, topology-agnostic.

    ``source``/``dest`` are ints on lines and rings, ``(row, col)``
    pairs on meshes.  The JSON form has a fixed key order so round trips
    are byte-identical.
    """

    id: int
    source: int | tuple[int, int]
    dest: int | tuple[int, int]
    release: int
    deadline: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "source": list(self.source) if isinstance(self.source, tuple) else self.source,
            "dest": list(self.dest) if isinstance(self.dest, tuple) else self.dest,
            "release": self.release,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TraceRecord":
        try:
            mid = wire_int(data["id"], "id", "trace record")
            owner = f"message {mid}"
            return cls(
                id=mid,
                source=_node(data["source"], "source", owner),
                dest=_node(data["dest"], "dest", owner),
                release=wire_int(data["release"], "release", owner),
                deadline=wire_int(data["deadline"], "deadline", owner),
            )
        except KeyError as exc:
            raise ValueError(f"missing field {exc} in trace record") from exc

    @classmethod
    def from_message(cls, message: Any) -> "TraceRecord":
        """Lift any topology's message (``Message``/``RingMessage``/
        ``MeshMessage``) — or an already-built record — into a record."""
        if isinstance(message, TraceRecord):
            return message
        if isinstance(message, dict):
            return cls.from_dict(message)
        owner = f"message {message.id}"
        return cls(
            id=message.id,
            source=_node(message.source, "source", owner),
            dest=_node(message.dest, "dest", owner),
            release=message.release,
            deadline=message.deadline,
        )

    def to_json(self) -> str:
        """The canonical one-line form (compact separators, fixed keys)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _header_dict(
    *,
    trace_id: str,
    topology: str,
    n: int | tuple[int, int],
    shape: str | None,
    seed: int | None,
    spec: dict[str, Any] | None,
    count: int | None,
    meta: dict[str, Any] | None,
    buffer_capacity: int | None = None,
) -> dict[str, Any]:
    if topology not in TRACE_TOPOLOGIES:
        raise ValueError(
            f"trace topology must be one of {TRACE_TOPOLOGIES}, got {topology!r}"
        )
    out: dict[str, Any] = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "trace_id": trace_id,
        "topology": topology,
        "n": list(n) if isinstance(n, tuple) else int(n),
    }
    if shape is not None:
        out["shape"] = shape
    if seed is not None:
        out["seed"] = int(seed)
    if spec is not None:
        out["spec"] = dict(spec)
    if buffer_capacity is not None:
        out["buffer_capacity"] = int(buffer_capacity)
    if count is not None:
        out["count"] = int(count)
    if meta:
        out["meta"] = dict(meta)
    return out


def _parse_header(data: dict[str, Any]) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise ValueError("trace header must be a JSON object")
    if data.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"expected format {TRACE_FORMAT!r}, got {data.get('format')!r}"
        )
    version = data.get("version")
    if not isinstance(version, int) or not 1 <= version <= TRACE_VERSION:
        raise ValueError(
            f"unsupported trace version {version!r} (supported: 1..{TRACE_VERSION})"
        )
    topology = data.get("topology", "line")
    if topology not in TRACE_TOPOLOGIES:
        raise ValueError(
            f"trace topology must be one of {TRACE_TOPOLOGIES}, got {topology!r}"
        )
    n = data.get("n")
    if isinstance(n, list):
        n = (wire_int(n[0], "n", "trace header"), wire_int(n[1], "n", "trace header"))
    elif n is not None:
        n = wire_int(n, "n", "trace header")
    else:
        raise ValueError("trace header needs an 'n' field")
    cap = data.get("buffer_capacity")
    return {
        "trace_id": str(data.get("trace_id") or ""),
        "topology": topology,
        "n": n,
        "shape": data.get("shape"),
        "seed": data.get("seed"),
        "spec": data.get("spec"),
        "count": data.get("count"),
        "meta": dict(data.get("meta") or {}),
        "buffer_capacity": (
            None if cap is None else wire_int(cap, "buffer_capacity", "trace header")
        ),
    }


@dataclass(frozen=True)
class WorkloadTrace:
    """An in-memory workload trace: header facts plus the record tuple.

    The streaming twins (:class:`TraceWriter`/:class:`TraceReader`) carry
    the same header but never materialize ``records``; use them for
    traces too big to hold.  :meth:`to_dict`/:meth:`from_dict` follow the
    library's wire-schema conventions (``format``/``version`` envelope,
    lossless inverse).
    """

    trace_id: str
    n: int | tuple[int, int]
    records: tuple[TraceRecord, ...] = ()
    topology: str = "line"
    shape: str | None = None
    seed: int | None = None
    spec: dict[str, Any] | None = None
    meta: dict[str, Any] = field(default_factory=dict)
    #: Bounded per-node buffers of the recorded model (``None`` =
    #: unbounded, and the header key is omitted — legacy traces are
    #: byte-identical).
    buffer_capacity: int | None = None

    def __post_init__(self) -> None:
        last = None
        for r in self.records:
            if last is not None and r.release < last:
                raise ValueError(
                    f"trace records must be in nondecreasing release order; "
                    f"record {r.id} released at {r.release} after {last}"
                )
            last = r.release

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def header(self) -> dict[str, Any]:
        return _header_dict(
            trace_id=self.trace_id,
            topology=self.topology,
            n=self.n,
            shape=self.shape,
            seed=self.seed,
            spec=self.spec,
            count=len(self.records),
            meta=self.meta,
            buffer_capacity=self.buffer_capacity,
        )

    def provenance(self) -> dict[str, Any]:
        """The schema-v4 ``workload`` block replay stamps onto results."""
        return {"trace_id": self.trace_id, "shape": self.shape, "seed": self.seed}

    def to_dict(self) -> dict[str, Any]:
        return {**self.header(), "records": [r.to_dict() for r in self.records]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WorkloadTrace":
        head = _parse_header(data)
        head.pop("count", None)
        records = tuple(TraceRecord.from_dict(r) for r in data.get("records", []))
        return cls(records=records, **head)

    # ------------------------------------------------------------- #

    def instance_document(self) -> dict[str, Any]:
        """The ``repro-instance`` JSON document of the materialized trace
        (the same document the wire and ``repro.io`` speak)."""
        doc: dict[str, Any] = {
            "format": "repro-instance",
            "version": 1,
            "topology": self.topology,
            "messages": [r.to_dict() for r in self.records],
        }
        if self.topology == "mesh":
            rows, cols = self.n  # type: ignore[misc]
            doc["rows"], doc["cols"] = rows, cols
        else:
            doc["n"] = self.n
        if self.buffer_capacity is not None:
            doc["buffer_capacity"] = self.buffer_capacity
        return doc

    def to_instance(self) -> Any:
        """Materialize the full ``Instance``/``RingInstance``/
        ``MeshInstance`` (validators re-run).  For traces too large to
        materialize, replay in windows instead
        (:func:`repro.trace.replay_windows`)."""
        from ..api import parse_instance

        return parse_instance(self.instance_document())

    @classmethod
    def from_instance(
        cls,
        instance: Any,
        *,
        trace_id: str | None = None,
        shape: str | None = None,
        seed: int | None = None,
        spec: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
    ) -> "WorkloadTrace":
        """Record an instance's arrival stream (release-then-id order —
        exactly the canonical revelation order of
        :func:`repro.online.arrival_stream`)."""
        from ..topology import topology_of

        topo = topology_of(instance)
        records = tuple(
            TraceRecord.from_message(m)
            for m in sorted(instance, key=lambda m: (m.release, m.id))
        )
        n = (
            (instance.rows, instance.cols)
            if topo.name == "mesh"
            else instance.n
        )
        return cls(
            trace_id=trace_id or mint_trace_id(),
            n=n,
            records=records,
            topology=topo.name,
            shape=shape,
            seed=seed,
            spec=spec,
            meta=dict(meta or {}),
            buffer_capacity=getattr(instance, "buffer_capacity", None),
        )


def mint_trace_id() -> str:
    return f"tr-{secrets.token_hex(8)}"


class TraceWriter:
    """Stream records to a JSONL trace file with bounded memory.

    The header is written on open (with ``count`` patched in at
    :meth:`close` — the file is re-headered in place, so readers always
    see a complete header).  Records must arrive in nondecreasing
    release order; violations raise immediately rather than poisoning
    the file.  Use as a context manager::

        with TraceWriter(path, n=64, shape="bursty", seed=7) as w:
            for record in shape_records(...):
                w.add(record)
    """

    def __init__(
        self,
        path: str | Path,
        *,
        n: int | tuple[int, int],
        topology: str = "line",
        trace_id: str | None = None,
        shape: str | None = None,
        seed: int | None = None,
        spec: dict[str, Any] | None = None,
        meta: dict[str, Any] | None = None,
        buffer_capacity: int | None = None,
    ) -> None:
        self.path = Path(path)
        self.trace_id = trace_id or mint_trace_id()
        self.topology = topology
        self.n = n
        self.shape = shape
        self.seed = seed
        self.spec = spec
        self.meta = dict(meta or {})
        self.buffer_capacity = buffer_capacity
        self.count = 0
        self._last_release: int | None = None
        self._fh = self.path.open("w", encoding="utf-8")
        self._write_header(count=None)

    def _write_header(self, *, count: int | None) -> None:
        header = _header_dict(
            trace_id=self.trace_id,
            topology=self.topology,
            n=self.n,
            shape=self.shape,
            seed=self.seed,
            spec=self.spec,
            count=count,
            meta=self.meta,
            buffer_capacity=self.buffer_capacity,
        )
        self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")

    def add(self, record: Any) -> None:
        """Append one record (a :class:`TraceRecord`, any message object,
        or a record dict)."""
        rec = TraceRecord.from_message(record)
        if self._last_release is not None and rec.release < self._last_release:
            raise ValueError(
                f"record {rec.id} released at {rec.release}, before the "
                f"previous record's release {self._last_release}; traces are "
                "nondecreasing in release"
            )
        self._last_release = rec.release
        self._fh.write(rec.to_json() + "\n")
        self.count += 1

    def add_many(self, records: Iterable[Any]) -> int:
        before = self.count
        for r in records:
            self.add(r)
        return self.count - before

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.close()
        # Patch the final count into the header without rewriting the
        # records: re-render line 1 and splice.  Header lines are small,
        # so this is one read of the first line plus an in-place prefix
        # rewrite only when the rendered lengths match; otherwise rewrite
        # via a sibling temp file append-free copy of the body.
        self._patch_count()
        obs.tracer().count("trace.records_written", self.count)

    def _patch_count(self) -> None:
        header = _header_dict(
            trace_id=self.trace_id,
            topology=self.topology,
            n=self.n,
            shape=self.shape,
            seed=self.seed,
            spec=self.spec,
            count=self.count,
            meta=self.meta,
            buffer_capacity=self.buffer_capacity,
        )
        new_line = (json.dumps(header, separators=(",", ":")) + "\n").encode()
        with self.path.open("rb") as fh:
            old_line = fh.readline()
        if len(new_line) == len(old_line):
            with self.path.open("r+b") as fh:
                fh.write(new_line)
            return
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with self.path.open("rb") as src, tmp.open("wb") as dst:
            src.readline()
            dst.write(new_line)
            while True:
                chunk = src.read(1 << 20)
                if not chunk:
                    break
                dst.write(chunk)
        tmp.replace(self.path)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            # A failed write leaves no half-truth behind.
            self._fh.close()
            self.path.unlink(missing_ok=True)
            return
        self.close()


class TraceReader:
    """Iterate a JSONL trace from disk with bounded memory.

    Header facts are available as attributes immediately after open;
    iterating yields :class:`TraceRecord` objects one at a time.  The
    reader is single-pass (re-open to re-read) and validates the same
    release monotonicity the writer enforces, so a hand-edited file
    cannot smuggle an out-of-order stream into a replay.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = self.path.open("r", encoding="utf-8")
        try:
            first = self._fh.readline()
            if not first:
                raise ValueError(f"trace {self.path} is empty")
            head = _parse_header(json.loads(first))
        except (json.JSONDecodeError, ValueError) as exc:
            self._fh.close()
            raise ValueError(f"cannot read trace {self.path}: {exc}") from exc
        self.trace_id: str = head["trace_id"]
        self.topology: str = head["topology"]
        self.n = head["n"]
        self.shape = head["shape"]
        self.seed = head["seed"]
        self.spec = head["spec"]
        self.count = head["count"]  # None when the writer crashed pre-close
        self.meta: dict[str, Any] = head["meta"]
        self.buffer_capacity: int | None = head["buffer_capacity"]
        self._last_release: int | None = None
        self._read = 0

    def provenance(self) -> dict[str, Any]:
        return {"trace_id": self.trace_id, "shape": self.shape, "seed": self.seed}

    def __iter__(self) -> Iterator[TraceRecord]:
        for line in self._fh:
            if not line.strip():
                continue
            try:
                rec = TraceRecord.from_dict(json.loads(line))
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(
                    f"bad record at line {self._read + 2} of {self.path}: {exc}"
                ) from exc
            if self._last_release is not None and rec.release < self._last_release:
                raise ValueError(
                    f"trace {self.path} is out of order at record {rec.id}: "
                    f"release {rec.release} after {self._last_release}"
                )
            self._last_release = rec.release
            self._read += 1
            yield rec
        obs.tracer().count("trace.records_read", self._read)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def write_trace(
    path: str | Path,
    records: Iterable[Any],
    *,
    n: int | tuple[int, int] | None = None,
    topology: str = "line",
    trace_id: str | None = None,
    shape: str | None = None,
    seed: int | None = None,
    spec: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
    buffer_capacity: int | None = None,
) -> int:
    """Stream ``records`` (messages, records, or dicts) to ``path``;
    returns how many were written.  Accepts a :class:`WorkloadTrace`
    as ``records`` too, in which case its header travels along."""
    if isinstance(records, WorkloadTrace):
        trace = records
        with TraceWriter(
            path,
            n=trace.n,
            topology=trace.topology,
            trace_id=trace_id or trace.trace_id,
            shape=shape or trace.shape,
            seed=seed if seed is not None else trace.seed,
            spec=spec or trace.spec,
            meta=meta or trace.meta,
            buffer_capacity=(
                buffer_capacity
                if buffer_capacity is not None
                else trace.buffer_capacity
            ),
        ) as writer:
            writer.add_many(trace.records)
            return writer.count
    if n is None:
        raise ValueError("write_trace needs n= when records is not a WorkloadTrace")
    with TraceWriter(
        path,
        n=n,
        topology=topology,
        trace_id=trace_id,
        shape=shape,
        seed=seed,
        spec=spec,
        meta=meta,
        buffer_capacity=buffer_capacity,
    ) as writer:
        writer.add_many(records)
        return writer.count


def open_trace(path: str | Path) -> TraceReader:
    """Open a trace for streaming iteration (bounded memory)."""
    return TraceReader(path)


def read_trace(path: str | Path) -> WorkloadTrace:
    """Materialize a whole trace file (modest traces only — the streaming
    path for anything big is :func:`open_trace`)."""
    with open_trace(path) as reader:
        records = tuple(reader)
        return WorkloadTrace(
            trace_id=reader.trace_id,
            n=reader.n,
            records=records,
            topology=reader.topology,
            shape=reader.shape,
            seed=reader.seed,
            spec=reader.spec,
            meta=reader.meta,
            buffer_capacity=reader.buffer_capacity,
        )
