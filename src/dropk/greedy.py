"""Greedy engine: delete the hill foot, repeat.

The hill foot of a sequence is the last element of its longest weakly
descending prefix: scanning from the left, the first element strictly
smaller than its right neighbour, or the final element when the whole
sequence is weakly descending.  Deleting it is the single deletion with
the lexicographically largest remainder, so ``k`` repetitions solve the
whole problem in O(k*n).
"""

from __future__ import annotations

from .core import S, check_deletion_count, drops, lex_le, max_lex


def hill_foot(xs: S) -> int:
    """Index of the hill foot of a nonempty sequence.

    Equal neighbours do not end the descending prefix, so the foot sits
    after every run of equal elements.
    """
    n = len(xs)
    if n == 0:
        raise ValueError("hill foot undefined on empty sequence")
    for i in range(n - 1):
        if xs[i] < xs[i + 1]:
            return i
    return n - 1


def gstep(xs: S) -> S:
    """The best single deletion: ``xs`` without its hill foot.

    Equals ``max_lex(drops(xs))`` but takes one scan instead of
    enumerating all deletions.
    """
    i = hill_foot(xs)
    return xs[:i] + xs[i + 1 :]


def solve_greedy(k: int, xs: S) -> S:
    """Delete the hill foot ``k`` times over; O(k*n)."""
    check_deletion_count(k, xs)
    for _ in range(k):
        xs = gstep(xs)
    return xs


def better_global_counterexample(xs: S, ys: S) -> S | None:
    """Hunt for a failure of "a better first step extends to a better
    solution" on the ordered pair ``xs <= ys``.

    Returns the first single-deletion result of ``xs`` that beats every
    single-deletion result of ``ys``, or ``None`` when each result of
    ``xs`` is matched by one from ``ys``.  ``None`` for every pair is
    what the stronger principle would require; for this problem it fails:
    with ``xs="1934"`` and ``ys="4234"``, dropping the ``1`` gives
    ``"934"`` while no single drop of ``ys`` reaches above ``"434"``.
    """
    if not lex_le(xs, ys):
        raise ValueError("premise requires xs <= ys lexicographically")
    best_ys = max_lex(drops(ys))
    for candidate in drops(xs):
        if not lex_le(candidate, best_ys):
            return candidate
    return None
