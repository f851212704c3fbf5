"""Exhaustive search: the obviously correct, exponential reference solver.

``solve_naive`` enumerates every order of deleting ``k`` elements and
takes the lexicographic maximum.  It exists to be trusted, not to be
fast; the other engines are checked against it.  Both solvers read
the candidates round by round from one generator, ``_frontiers``.
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
    from ``xs``: a list with duplicates, or a set without them."""
    frontier: Sequence[S] | set[S] = [xs]
    for _ in range(rounds):
        if dedupe:
            frontier = {c[:i] + c[i + 1 :] for c in frontier for i in range(len(c))}
        else:
            frontier = step(frontier)
        yield frontier


def solve_naive(k: int, xs: S, *, dedupe: bool = False) -> S:
    """Largest sequence reachable from ``xs`` by deleting exactly ``k``
    elements, found by full enumeration.

    The candidate multiset after ``k`` rounds has n*(n-1)*...*(n-k+1)
    entries, so this is O(n^k): keep it on desk-sized inputs.  With
    ``dedupe=True`` duplicate candidates are merged between rounds, which
    cannot change the maximum but keeps verification sweeps affordable.
    """
    check_deletion_count(k, xs)
    if dedupe and isinstance(xs, list):
        # lists are unhashable: merge duplicates as tuples, hand back a list
        return list(solve_naive(k, tuple(xs), dedupe=True))
    frontier = [xs]
    for frontier in _frontiers(xs, k, dedupe):
        pass
    return max_lex(frontier)


def solve_naive_all_k(xs: S, *, dedupe: bool = False) -> list[S]:
    """``[solve_naive(k, xs) for k in range(len(xs) + 1)]`` in one cascade.

    Verification sweeps need the answer for every deletion count; sharing
    the candidate frontier across counts avoids re-enumerating it.
    """
    if dedupe and isinstance(xs, list):
        return [list(best) for best in solve_naive_all_k(tuple(xs), dedupe=True)]
    return [xs] + [max_lex(frontier) for frontier in _frontiers(xs, len(xs), dedupe)]
