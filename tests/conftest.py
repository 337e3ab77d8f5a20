"""Shared fixtures, hypothesis strategies, and the test-timeout fallback."""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.instance import Instance
from repro.core.message import Message

# --------------------------------------------------------------------- #
# Per-test wall-clock ceiling
#
# pyproject.toml sets a suite-wide ``timeout`` so a hung test fails fast.
# When pytest-timeout is installed it owns that ini key and this block is
# inert; otherwise a minimal SIGALRM-based fallback enforces the same
# ceiling (main thread + POSIX only — elsewhere tests simply run
# unguarded, exactly like a missing plugin would behave).
# --------------------------------------------------------------------- #

try:
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False


def pytest_addoption(parser: pytest.Parser) -> None:
    if not _HAVE_PYTEST_TIMEOUT:
        parser.addini(
            "timeout",
            "per-test wall-clock ceiling in seconds (0 disables); "
            "vendored fallback for pytest-timeout",
            default="0",
        )


def _test_ceiling(item: pytest.Item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    try:
        return float(item.config.getini("timeout") or 0)
    except (TypeError, ValueError):
        return 0.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item: pytest.Item):
    timeout = 0.0 if _HAVE_PYTEST_TIMEOUT else _test_ceiling(item)
    if (
        timeout <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_timeout(signum, frame):
        pytest.fail(
            f"test exceeded the {timeout:g}s wall-clock ceiling", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

# --------------------------------------------------------------------- #
# Deterministic example instances
# --------------------------------------------------------------------- #


@pytest.fixture
def paper_example() -> Instance:
    """The six-message, 22-node example from the paper's Section 2 table."""
    rows = [
        (2, 9, 2, 13),
        (2, 12, 5, 23),
        (2, 7, 16, 24),
        (5, 14, 13, 23),
        (10, 18, 0, 15),
        (11, 13, 3, 9),
    ]
    return Instance(
        22,
        tuple(Message(i + 1, s, d, r, dl) for i, (s, d, r, dl) in enumerate(rows)),
    )


def random_lr_instance(
    rng: np.random.Generator,
    *,
    n_lo: int = 4,
    n_hi: int = 12,
    k_lo: int = 1,
    k_hi: int = 10,
    max_release: int = 8,
    max_slack: int = 6,
) -> Instance:
    """Small random left-to-right instance for cross-checks."""
    n = int(rng.integers(n_lo, n_hi + 1))
    k = int(rng.integers(k_lo, k_hi + 1))
    msgs = []
    for i in range(k):
        s = int(rng.integers(0, n - 1))
        d = int(rng.integers(s + 1, n))
        r = int(rng.integers(0, max_release + 1))
        slack = int(rng.integers(0, max_slack + 1))
        msgs.append(Message(i, s, d, r, r + (d - s) + slack))
    return Instance(n, tuple(msgs))


# --------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------- #


@st.composite
def lr_messages(draw, *, n: int = 12, max_release: int = 10, max_slack: int = 8):
    """A single feasible left-to-right message on an ``n``-node line."""
    s = draw(st.integers(0, n - 2))
    d = draw(st.integers(s + 1, n - 1))
    r = draw(st.integers(0, max_release))
    slack = draw(st.integers(0, max_slack))
    ident = draw(st.integers(0, 10_000))
    return Message(ident, s, d, r, r + (d - s) + slack)


@st.composite
def lr_instances(draw, *, n: int = 12, max_messages: int = 8, max_release: int = 10, max_slack: int = 8):
    """A small left-to-right instance with unique message ids."""
    k = draw(st.integers(0, max_messages))
    msgs = []
    for i in range(k):
        m = draw(lr_messages(n=n, max_release=max_release, max_slack=max_slack))
        msgs.append(m.with_id(i))
    return Instance(n, tuple(msgs))
