"""Exhaustive search: the obviously correct reference solvers.

Deleting ``k`` elements is keeping the other n - k in order, so
``solve_naive`` takes the lexicographic maximum over every choice of
kept positions, C(n, k) candidates from ``itertools.combinations``, for
any element kind: exponential, meant for desk-sized inputs.
``dedupe=False`` instead deletes one element at a time in every possible
way, ``k`` rounds over with :func:`step`, and keeps the whole multiset
of deletion orders: the paper's reference definition.

Every deletion count at once comes from one fact about those kept sets:
each one of ``xs + c`` either skips ``c`` or ends with it, and appending
``c`` to candidates of equal length keeps their order, so the best with
k deleted is ``max(best_{k-1}(xs), best_k(xs) + c)``.  :func:`each_all_k`
grows every answer that way from its prefix's through
:func:`dropk.core.grow_rows`, which a stream of sequences in odometer
order shares almost whole.  These solvers exist to be trusted, not to be
fast; the other engines are checked against them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .core import S, check_deletion_count, drops, grow_rows, max_lex, rebuild


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

    By default this is the one answer of ``each_all_k([xs])``: about
    n^2/2 comparisons of candidates, each built by one concatenation,
    where the kept sets alone number 2^n.  With
    ``dedupe=False`` one cascade of :func:`step` rounds serves every
    deletion count, so the multiset is enumerated once.
    """
    if dedupe:
        return next(each_all_k([xs]))[1]
    best, frontier = [xs], [xs]
    for _ in range(len(xs)):
        frontier = step(frontier)
        best.append(max_lex(frontier))
    return best


def each_all_k(seqs: Iterable[S]) -> Iterator[tuple[S, list[S]]]:
    """``(xs, solve_naive_all_k(xs))`` for every ``xs`` of ``seqs``, in
    order, with the work on a shared prefix done once.

    The answers are the rows of :func:`dropk.core.grow_rows`: row d
    holds, at index k, the best subsequence of the sequence's first d
    elements with k of them deleted, and :func:`_drop_row` extends it by
    the recurrence in the module docstring.  Sequences in any order, of
    str, tuple and list kinds mixed, get the right answers; neighbours
    that share long prefixes, as :func:`dropk.core.sequences` yields
    them, get them fastest.  A yielded answer is a row that later
    answers are grown from, so it must not be mutated.
    """
    return grow_rows(seqs, _drop_row)


def _drop_row(row: list[S], c: S) -> list[S]:
    # with k deleted from xs + c, either c is one of the k or it follows
    # the best of xs with k deleted
    best = [max(row[k - 1], row[k] + c) for k in range(1, len(row))]
    return [row[0] + c, *best, row[-1]]
