"""Drop k elements from a sequence so the remainder is lexicographically
largest.

Three interchangeable engines solve the problem: :func:`solve_naive`
grows the best remainder of every prefix for every k in O(n^3),
:func:`solve_greedy` deletes the hill foot k times over, and
:func:`solve_linear` does one monotonic-stack scan in O(n + k) steps.
The :mod:`dropk.greedy_condition` module carries an executable form of
the exchange argument that justifies the greedy step, playable as an
exhaustive game at small scale, and :mod:`dropk.verify` holds the other
exhaustive sweeps.
"""

from .core import drops, lex_le, max_lex
from .greedy import better_global_counterexample, gstep, hill_foot, solve_greedy
from .greedy_condition import (
    DEL,
    KEEP,
    DelPlan,
    FootWitness,
    VerifyReport,
    alter,
    apply_plan,
    check_mono,
    check_mono_aux,
    check_unfoot,
    delfoot,
    enumerate_plans,
    foot_witness,
    verify_greedy_condition,
)
from .linear import ScanEvent, count_steps, gsolve, scan_events, solve_linear
from .oracle import solve_naive, solve_naive_all_k

__version__ = "0.1.0"

__all__ = [
    "DEL",
    "KEEP",
    "DelPlan",
    "FootWitness",
    "ScanEvent",
    "VerifyReport",
    "alter",
    "apply_plan",
    "better_global_counterexample",
    "check_mono",
    "check_mono_aux",
    "check_unfoot",
    "count_steps",
    "delfoot",
    "drops",
    "enumerate_plans",
    "foot_witness",
    "gsolve",
    "gstep",
    "hill_foot",
    "lex_le",
    "max_lex",
    "scan_events",
    "solve_greedy",
    "solve_linear",
    "solve_naive",
    "solve_naive_all_k",
    "verify_greedy_condition",
]
