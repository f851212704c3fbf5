"""The exhaustive sweeps that ``dropk verify`` runs next to the exchange
game, shared with the acceptance suite.

Each sweep enumerates every sequence over an alphabet up to a length and
returns a :class:`~dropk.greedy_condition.VerifyReport`; violations are
counted and the first one is described, never raised.  The exchange
game itself is :func:`dropk.greedy_condition.verify_greedy_condition`.
"""

from __future__ import annotations

from .core import sequences
from .greedy import solve_greedy
from .greedy_condition import VerifyReport, check_mono_aux, foot_witness
from .linear import solve_linear
from .oracle import each_all_k


def equivalence_sweep(max_len: int, alphabet) -> VerifyReport:
    """Compare all three engines on every sequence up to ``max_len``,
    for every deletion count.

    The naive column comes from :func:`dropk.oracle.each_all_k`, which
    grows each sequence's answers from those of the prefix it shares
    with the sequence before; the sweep's odometer order shares all but
    about one and a half trailing elements.

    The greedy column cascades as the paper calculates it: the best
    result for k + 1 deletions is one greedy step on the best for k.  So
    it starts at ``solve_greedy(0, xs)`` and each next k takes
    ``solve_greedy(1, ·)`` of the previous answer: n hill-foot scans per
    sequence of length n, not n(n + 1)/2, and that identity is checked
    on every sequence and k.  The k-step loop inside ``solve_greedy`` is
    checked exhaustively by ``tests/test_greedy.py``'s
    ``TestSolveGreedy.test_agrees_with_exhaustive_search``.
    """
    cases = mismatches = 0
    first: str | None = None
    for xs, expected in each_all_k(sequences(alphabet, max_len)):
        got_greedy = solve_greedy(0, xs)
        for k in range(len(xs) + 1):
            cases += 1
            if k and got_greedy:
                # an emptied column has already mismatched, and a step on
                # it would raise instead of reporting
                got_greedy = solve_greedy(1, got_greedy)
            got_linear = solve_linear(k, xs)
            if not (expected[k] == got_greedy == got_linear):
                mismatches += 1
                if first is None:
                    first = (
                        f"xs={xs!r} k={k}: naive={expected[k]!r} "
                        f"greedy={got_greedy!r} linear={got_linear!r}"
                    )
    return VerifyReport(cases, 0, mismatches, first)


def mono_aux_sweep(max_len: int, alphabet) -> VerifyReport:
    """Exhaust the prefix-dominance helper :func:`check_mono_aux` over
    every tail up to ``max_len`` and every ``x`` at least its head."""
    tokens = sorted(set(alphabet))
    cases = violations = 0
    first: str | None = None
    for tail in sequences(alphabet, max_len, 1):
        witness = foot_witness(tail)
        for x in tokens:
            if x < tail[0]:
                continue
            cases += 1
            if not check_mono_aux(x, tail, witness):
                violations += 1
                if first is None:
                    first = f"x={x!r} tail={tail!r}"
    return VerifyReport(cases, 0, violations, first)
