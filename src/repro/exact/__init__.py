"""Exact (exponential-time / MILP) reference solvers.

Both ``OPT_BL`` and ``OPT_B`` are NP-hard (paper, Theorems 3.1 and 5.1), so
these solvers are for *small* instances only.  They provide the ground truth
that the approximation-ratio experiments (E2-E6) and the NP-hardness
reduction checks (E8) compare against.

* :func:`opt_bufferless` — proves BFL or a bounded forward-checking search
  optimal against :func:`cut_upper_bound` when it can, and solves a 0/1
  assignment MILP otherwise.
* :func:`opt_buffered` — a time-indexed 0/1 MILP.
* :func:`opt_bufferless_bnb` — a dependency-free branch-and-bound used to
  cross-check the MILP path in tests and as its fallback.
* :func:`repro.exact.buffered.opt_buffered_bruteforce` — subset enumeration
  with a backtracking feasibility check, for tiny instances.
* :mod:`repro.exact.milp` — the one HiGHS layer: every MILP here and the
  ring and mesh MILPs (:mod:`repro.topology.ring_exact`,
  :mod:`repro.topology.mesh_exact`) build a 0/1 program and solve it
  there, with typed budget and backend errors; the line and the ring
  share its time-indexed formulation.
* :mod:`repro.exact.bounds` — cheap upper bounds usable at any scale.
"""

from .bufferless import opt_bufferless, opt_bufferless_bnb
from .buffered import opt_buffered, opt_buffered_bruteforce
from .bounds import (
    bufferless_lp_bound,
    cut_upper_bound,
    feasible_count_bound,
)

__all__ = [
    "opt_bufferless",
    "opt_bufferless_bnb",
    "opt_buffered",
    "opt_buffered_bruteforce",
    "bufferless_lp_bound",
    "cut_upper_bound",
    "feasible_count_bound",
]
