"""Uniform experiment signature: ``run(cfg, *, engine=None, obs=None)``.

Every experiment module wraps its implementation with :func:`experiment`,
giving all of them the same calling convention::

    from repro.experiments import e2_bfl_ratio
    from repro.experiments.base import RunConfig
    from repro.engine import Engine

    table = e2_bfl_ratio.run(RunConfig(seed=7, trials=5), engine=Engine(jobs=4))

so the CLI and the report generator configure a run once instead of
introspecting each module's keyword defaults.  The wrapper:

* maps :class:`RunConfig` fields onto the implementation's keywords,
  silently dropping the common fields (``seed``, ``trials``) the
  experiment doesn't take (E1 and E6 are deterministic and seedless);
* passes an :class:`repro.engine.Engine` to the implementations that
  take one (serial experiments ignore it);
* installs ``obs`` as the active tracer for the duration of the run;
* still accepts the historical keyword style (``run(seed=1, trials=5)``)
  as overrides, so existing callers and tests keep working unchanged.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["RunConfig", "experiment"]


@dataclass(frozen=True)
class RunConfig:
    """Common experiment knobs plus free-form per-experiment parameters.

    ``seed``/``trials`` left at ``None`` mean "use the experiment's
    default".  ``params`` carries experiment-specific keywords
    (``repeats`` for E10, ``max_k`` for E6, ...) and unlike the common
    fields they must be accepted by the experiment — a typo raises.
    """

    seed: int | None = None
    trials: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def common_kwargs(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.trials is not None:
            out["trials"] = self.trials
        return out


def experiment(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap an experiment implementation in the uniform ``run`` signature."""
    accepted = frozenset(
        name
        for name, p in inspect.signature(fn).parameters.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    )

    @functools.wraps(fn)
    def run(
        cfg: RunConfig | None = None,
        *,
        engine: Any = None,
        obs: Any = None,
        **overrides: Any,
    ):
        cfg = cfg or RunConfig()
        kwargs = {k: v for k, v in cfg.common_kwargs().items() if k in accepted}
        bad = [k for k in cfg.params if k not in accepted]
        bad += [k for k in overrides if k not in accepted]
        if bad:
            from ..errors import ConfigError

            raise ConfigError(
                f"{fn.__module__}.run() got unexpected parameter(s): "
                f"{', '.join(sorted(set(bad)))}; accepted parameters are "
                f"{', '.join(sorted(accepted))}"
            )
        kwargs.update(cfg.params)
        kwargs.update(overrides)
        if engine is not None and "engine" in accepted:
            kwargs.setdefault("engine", engine)
        if obs is not None:
            from .. import obs as obs_mod

            with obs_mod.use(obs):
                return fn(**kwargs)
        return fn(**kwargs)

    run.accepts = accepted
    run.__wrapped__ = fn
    return run
