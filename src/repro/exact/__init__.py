"""Exact (exponential-time / MILP) reference solvers.

Both ``OPT_BL`` and ``OPT_B`` are NP-hard (paper, Theorems 3.1 and 5.1), so
these solvers are for *small* instances only.  They provide the ground truth
that the approximation-ratio experiments (E2-E6) and the NP-hardness
reduction checks (E8) compare against.

* :func:`opt_bufferless` / :func:`opt_buffered` — time-indexed 0/1 MILPs
  solved with SciPy's bundled HiGHS.
* :func:`opt_bufferless_bnb` — a dependency-free branch-and-bound used to
  cross-check the MILP path in tests.
* :func:`repro.exact.buffered.opt_buffered_bruteforce` — subset enumeration
  with a backtracking feasibility check, for tiny instances.
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
