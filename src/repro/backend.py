"""Execution-backend dispatch: ``"python"`` (reference) vs ``"numpy"``.

The library keeps two implementations of its hot simulator: the
readable pure-python step loop (:mod:`repro.network.simulator`) and a
vectorized numpy variant (:mod:`repro.network.simulator_vec`) that
batches the same work into array operations.  The **golden-reference
contract** is that the numpy backend is bit-identical to the python one
— same ``SimulationResult`` down to drop ordering and fault counters —
so switching backends can never change a result, only how fast it
arrives.  BFL has one fast kernel (``bfl_fast``); a numpy request for it
falls back like any other unvectorized kernel (below).

Selection is layered; first match wins:

1. an explicit ``backend=`` argument (``repro.api.solve``,
   :func:`repro.network.simulator.simulate`, the online entry points,
   ...);
2. an enclosing :func:`use_backend` context — ``repro.api.solve`` wraps
   every registered solver call in one, and the sweep engine
   (:class:`repro.engine.pool.Engine`) ships its ``backend`` field into
   worker processes the same way;
3. the ``REPRO_BACKEND`` environment variable;
4. the default, ``"python"``.

Requesting ``"numpy"`` never fails over to an error at dispatch time:
kernels that have no vectorized form for the requested configuration
(offline and online BFL, control-channel policies like D-BFL, mesh
routing, custom ``Policy`` subclasses) **fall back automatically** to
the pure-python reference and count the event under the
``backend.fallbacks`` observability counter.  Because the backends are
bit-identical, the fallback is invisible except in wall time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from . import obs

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "resolve_backend",
    "use_backend",
    "current_backend",
    "fall_back",
]

#: The recognised execution backends, reference first.
BACKENDS = ("python", "numpy")
DEFAULT_BACKEND = "python"

_current: ContextVar[str | None] = ContextVar("repro_backend", default=None)


def _validate(backend: str) -> str:
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose one of {BACKENDS} "
            "(or leave unset / set REPRO_BACKEND)"
        )
    return name


def resolve_backend(backend: str | None = None) -> str:
    """Resolve an explicit/contextual/environment backend request.

    ``backend=None`` consults the enclosing :func:`use_backend` context,
    then ``REPRO_BACKEND``, then falls back to :data:`DEFAULT_BACKEND`.
    Unknown names raise ``ValueError`` — misspelling a backend should
    never silently run the slow path.
    """
    if backend is not None:
        return _validate(backend)
    contextual = _current.get()
    if contextual is not None:
        return contextual
    env = os.environ.get("REPRO_BACKEND", "").strip()
    if env:
        return _validate(env)
    return DEFAULT_BACKEND


def current_backend() -> str | None:
    """The backend pinned by the innermost :func:`use_backend`, if any."""
    return _current.get()


@contextmanager
def use_backend(backend: str | None) -> Iterator[str]:
    """Pin the resolved backend for the dynamic extent of the block.

    ``None`` re-resolves from the environment (useful to *snapshot* the
    ambient choice before handing work to code that must not re-read a
    mutated environment).
    """
    resolved = resolve_backend(backend)
    token = _current.set(resolved)
    try:
        yield resolved
    finally:
        _current.reset(token)


def fall_back(kernel: str) -> str:
    """Record that ``kernel`` had no vectorized form and report ``"python"``.

    Called by numpy-backend entry points when the requested configuration
    is outside their vectorized envelope; the event is counted under
    ``backend.fallbacks`` (and per-kernel under
    ``backend.fallbacks.<kernel>``) so benchmarks can tell a fast run
    from a silently-degraded one.
    """
    tr = obs.tracer()
    if tr.enabled:
        tr.count("backend.fallbacks")
        tr.count(f"backend.fallbacks.{kernel}")
    return "python"
