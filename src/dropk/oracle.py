"""Exhaustive search: the obviously correct, exponential reference solver.

``solve_naive`` enumerates every order of deleting ``k`` elements and
takes the lexicographic maximum.  It exists to be trusted, not to be
fast; the other engines are checked against it.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .core import check_deletion_count, drops, max_lex

S = TypeVar("S", str, tuple, list)


def step(xss: Sequence[S]) -> list[S]:
    """One more deletion applied to every candidate.

    Concatenates ``drops(c)`` for each candidate in order; duplicates are
    kept.  An empty candidate raises, via :func:`dropk.core.drops`.
    """
    out: list[S] = []
    for c in xss:
        out.extend(drops(c))
    return out


def solve_naive(k: int, xs: S, *, dedupe: bool = False) -> S:
    """Largest sequence reachable from ``xs`` by deleting exactly ``k``
    elements, found by full enumeration.

    The candidate multiset after ``k`` rounds has n*(n-1)*...*(n-k+1)
    entries, so this is O(n^k): keep it on desk-sized inputs.  With
    ``dedupe=True`` duplicate candidates are merged between rounds, which
    cannot change the maximum but keeps verification sweeps affordable.
    """
    check_deletion_count(k, xs)
    if dedupe:
        frontier = {xs}
        for _ in range(k):
            frontier = {c[:i] + c[i + 1 :] for c in frontier for i in range(len(c))}
        return max_lex(frontier)
    candidates = [xs]
    for _ in range(k):
        candidates = step(candidates)
    return max_lex(candidates)


def solve_naive_all_k(xs: S, *, dedupe: bool = False) -> list[S]:
    """``[solve_naive(k, xs) for k in range(len(xs) + 1)]`` in one cascade.

    Verification sweeps need the answer for every deletion count; sharing
    the candidate frontier across counts avoids re-enumerating it.
    """
    maxima = [xs]
    frontier: Sequence[S] | set[S] = [xs]
    for _ in range(len(xs)):
        if dedupe:
            frontier = {c[:i] + c[i + 1 :] for c in frontier for i in range(len(c))}
        else:
            frontier = step(frontier)
        maxima.append(max_lex(frontier))
    return maxima
