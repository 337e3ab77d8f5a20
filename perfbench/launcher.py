"""Run ``repro serve`` with span recorders around its layer boundaries.

Usage (the benchmark spawns it; ``PYTHONPATH`` must reach ``src``)::

    python3 perfbench/launcher.py --spans SPANS.json -- serve --port 0 --trace T.jsonl

Everything after ``--`` is passed to ``repro.cli.main`` unchanged, so
the server is the stock one; pass ``--trace`` there to also collect the
spans and counters the server exports itself.  Before starting it the
launcher wraps these functions where the server calls them:

* ``repro.server.worker.parse_instance`` and ``repro.server.worker.solve``
  (the solve path inside the batch queue's worker);
* ``ScheduleResult.to_dict``;
* ``repro.server.sessions.run_online`` (the per-feed policy replay; each
  span carries the number of messages replayed);
* ``SessionJournal.append_feed`` (the fsynced write-ahead record);
* ``OnlineSession.feed`` and ``OnlineSession.close``, so that each replay
  knows whether a feed or a close caused it.

Spans stay in memory and are written to ``--spans`` as one JSON list
when the server shuts down (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import Recorder, patched


def _instrument(rec: Recorder):
    import contextlib

    from repro.api import ScheduleResult
    from repro.server import sessions, worker
    from repro.server.journal import SessionJournal
    from repro.server.sessions import OnlineSession

    def feed_attrs(session, *_args, **_kwargs):
        return {"sid": session.session_id, "batch": session.batches}

    def close_attrs(session, *_args, **_kwargs):
        return {"sid": session.session_id}

    def replay_attrs(instance, *_args, **_kwargs):
        return {"messages": len(instance.messages)}

    stack = contextlib.ExitStack()
    for owner, attr, name, attrs in (
        (worker, "parse_instance", "api.parse_instance", None),
        (worker, "solve", "api.solve", None),
        (ScheduleResult, "to_dict", "api.to_dict", None),
        (sessions, "run_online", "online.run_online", replay_attrs),
        (SessionJournal, "append_feed", "journal.append_feed", None),
        (OnlineSession, "feed", "session.feed", feed_attrs),
        (OnlineSession, "close", "session.close", close_attrs),
    ):
        stack.enter_context(
            patched(owner, attr, rec.wrap(getattr(owner, attr), name, attrs))
        )
    return stack


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli

    rec = Recorder()
    try:
        with _instrument(rec):
            return cli.main(cli_args)
    finally:
        args.spans.write_text(json.dumps(rec.spans))


if __name__ == "__main__":
    sys.exit(main())
