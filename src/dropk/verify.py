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


def equivalence_sweep(max_len: int, alphabet, min_len: int = 0) -> VerifyReport:
    """Compare all three engines on every sequence of length ``min_len``
    to ``max_len``, for every deletion count.

    The lengths are those of :func:`dropk.core.sequences`, so
    ``equivalence_sweep(m, a, m)`` and ``equivalence_sweep(m - 1, a)``
    split ``equivalence_sweep(m, a)``: their cases and mismatches add up
    to its own, and its first mismatch is the shorter part's when that
    has one.  ``min_len > max_len`` raises ``ValueError``.

    The naive column comes from :func:`dropk.oracle.each_all_k`, which
    grows each sequence's answers through :func:`dropk.core.grow_rows`
    from those of the prefix it shares with the sequence before; the
    sweep's odometer order shares all but about one and a half trailing
    elements.

    The greedy column reads the paper's recursion from its far end:
    ``solve_greedy(k, xs) == solve_greedy(k - 1, gstep(xs))``, so the
    row of results for every k is ``xs`` followed by the row of
    ``solve_greedy(1, xs)``.  Every sequence one shorter was swept
    before, so its row is looked up in one table, not recomputed: one
    hill-foot scan per nonempty sequence, not n(n + 1)/2.  The table
    holds the row of every sequence shorter than ``max_len``; the rows
    below ``min_len`` are built first, the same way, and not compared.
    Those of length ``max_len``, the most numerous, would never be read,
    so they are not kept, which keeps the sweep's peak memory down.
    ``row[k]`` is ``gstep`` applied k times, each time by the engine's
    own step; a step that is not one shorter or not in the table (a
    broken engine) stands in for every later k and is reported as a
    mismatch, never raised.  The k-step loop inside ``solve_greedy`` is
    checked exhaustively by ``tests/test_greedy.py``'s
    ``TestSolveGreedy.test_agrees_with_exhaustive_search``.
    """
    if min_len > max_len:
        raise ValueError("max_len must be >= min_len")
    rows: dict = {}  # the greedy row of every sequence shorter than max_len

    def greedy_row(xs):
        row = (xs,)
        if xs:
            step = solve_greedy(1, xs)
            if len(step) == len(xs) - 1 and step in rows:
                row += rows[step]
            else:
                # a broken step: report it for every k instead of raising
                row += (step,) * len(xs)
        return row

    if min_len:
        for xs in sequences(alphabet, min_len - 1):
            rows[xs] = greedy_row(xs)
    cases = mismatches = 0
    first: str | None = None
    for xs, expected in each_all_k(sequences(alphabet, max_len, min_len)):
        row = greedy_row(xs)
        if len(xs) < max_len:
            rows[xs] = row
        for k, got_greedy in enumerate(row):
            cases += 1
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
