"""Exhaustive search: the obviously correct, exponential reference solver.

Deleting ``k`` elements is keeping the other n - k in order, so
``solve_naive`` takes the lexicographic maximum over every choice of
kept positions, C(n, k) candidates from ``itertools.combinations``, for
any element kind.  ``dedupe=False`` instead deletes one element at a
time in every possible way, ``k`` rounds over with :func:`step`, and
keeps the whole multiset of deletion orders: the paper's reference
definition.  It exists to be trusted, not to be fast; the other engines
are checked against it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .core import S, check_deletion_count, drops, max_lex, rebuild


def step(xss: Sequence[S]) -> list[S]:
    """One more deletion applied to every candidate.

    Concatenates ``drops(c)`` for each candidate in order; duplicates are
    kept.  An empty candidate raises, via :func:`dropk.core.drops`.
    """
    out: list[S] = []
    for c in xss:
        out.extend(drops(c))
    return out


def solve_naive(k: int, xs: S, *, dedupe: bool = True) -> S:
    """Largest sequence reachable from ``xs`` by deleting exactly ``k``
    elements, found by full enumeration.

    Each set of deleted positions gives one candidate, a tuple of the
    kept elements, which compares as the sequence it rebuilds: C(n, k)
    of them, so this is still exponential and meant for desk-sized
    inputs.  With ``dedupe=False`` every deletion order is kept,
    n*(n-1)*...*(n-k+1) candidates: 27.9M for k = 6 on 20 elements.
    """
    check_deletion_count(k, xs)
    if dedupe:
        return rebuild(xs, max_lex(combinations(xs, len(xs) - k)))
    frontier = [xs]
    for _ in range(k):
        frontier = step(frontier)
    return max_lex(frontier)


def solve_naive_all_k(xs: S, *, dedupe: bool = True) -> list[S]:
    """``[solve_naive(k, xs) for k in range(len(xs) + 1)]``.

    With ``dedupe=False`` one cascade of :func:`step` rounds serves every
    deletion count, so the multiset is enumerated once.
    """
    if dedupe:
        kept = range(len(xs) - 1, -1, -1)
        return [xs] + [rebuild(xs, max_lex(combinations(xs, m))) for m in kept]
    best, frontier = [xs], [xs]
    for _ in range(len(xs)):
        frontier = step(frontier)
        best.append(max_lex(frontier))
    return best
