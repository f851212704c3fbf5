"""Exhaustive search: the obviously correct, exponential reference solver.

``solve_naive`` deletes one element at a time, in every possible way,
``k`` rounds over, and takes the lexicographic maximum.  By default it
merges duplicate candidates between rounds, so round j holds at most
C(n, j) of them; ``dedupe=False`` keeps the whole multiset of deletion
orders, the paper's reference definition.  It exists to be trusted, not
to be fast; the other engines are checked against it.  Both solvers
read the candidates round by round from one generator, ``_frontiers``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import S, check_deletion_count, drops, max_lex


def step(xss: Sequence[S]) -> list[S]:
    """One more deletion applied to every candidate.

    Concatenates ``drops(c)`` for each candidate in order; duplicates are
    kept.  An empty candidate raises, via :func:`dropk.core.drops`.
    """
    out: list[S] = []
    for c in xss:
        out.extend(drops(c))
    return out


def _frontiers(xs: S, rounds: int, dedupe: bool) -> Iterator[Sequence[S] | set[S]]:
    """The candidates after each of ``rounds`` deletion rounds, starting
    from ``xs``: a list with duplicates, or a set without them.  A set
    needs hashable candidates, so ``xs`` that cannot be hashed keeps its
    duplicates."""
    if dedupe:
        try:
            hash(xs)
        except TypeError:
            dedupe = False
    frontier: Sequence[S] | set[S] = [xs]
    for _ in range(rounds):
        if dedupe:
            frontier = {c[:i] + c[i + 1 :] for c in frontier for i in range(len(c))}
        else:
            frontier = step(frontier)
        yield frontier


def solve_naive(k: int, xs: S, *, dedupe: bool = True) -> S:
    """Largest sequence reachable from ``xs`` by deleting exactly ``k``
    elements, found by full enumeration.

    Duplicate candidates are merged between rounds, which cannot change
    the maximum: round j holds at most C(n, j) distinct subsequences, so
    this is still exponential and meant for desk-sized inputs.  With
    ``dedupe=False`` every deletion order is kept, n*(n-1)*...*(n-k+1)
    candidates after ``k`` rounds: 27.9M for k = 6 on 20 elements.
    Elements that cannot be hashed, such as lists, cannot be merged
    either, so such inputs always keep every deletion order.
    """
    check_deletion_count(k, xs)
    if dedupe and isinstance(xs, list):
        # lists are unhashable: merge duplicates as tuples, hand back a list
        return list(solve_naive(k, tuple(xs)))
    frontier = [xs]
    for frontier in _frontiers(xs, k, dedupe):
        pass
    return max_lex(frontier)


def solve_naive_all_k(xs: S, *, dedupe: bool = True) -> list[S]:
    """``[solve_naive(k, xs) for k in range(len(xs) + 1)]`` in one cascade.

    Verification sweeps need the answer for every deletion count; sharing
    the candidate frontier across counts avoids re-enumerating it.
    """
    if dedupe and isinstance(xs, list):
        return [list(best) for best in solve_naive_all_k(tuple(xs))]
    return [xs] + [max_lex(frontier) for frontier in _frontiers(xs, len(xs), dedupe)]
