"""Exhaustive search: the obviously correct reference solvers.

Deleting ``k`` elements is keeping the other n - k in order, so
``solve_naive`` takes the lexicographic maximum over every choice of
kept positions, C(n, k) candidates from ``itertools.combinations``, for
any element kind: exponential, meant for desk-sized inputs.  The
paper's own definition, one deletion at a time in every order with the
whole multiset kept, is the specification the tests check these solvers
against (``tests/conftest.py``).

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
from typing import Iterable, Iterator

from .core import S, check_deletion_count, grow_rows, max_lex, rebuild


def solve_naive(k: int, xs: S) -> S:
    """Largest sequence reachable from ``xs`` by deleting exactly ``k``
    elements, found by full enumeration.

    Each set of deleted positions gives one candidate, a tuple of the
    kept elements, which compares as the sequence it rebuilds: C(n, k)
    of them, so this is still exponential and meant for desk-sized
    inputs.
    """
    check_deletion_count(k, xs)
    return rebuild(xs, max_lex(combinations(xs, len(xs) - k)))


def solve_naive_all_k(xs: S, *, dedupe: bool = True) -> list[S]:
    """``[solve_naive(k, xs) for k in range(len(xs) + 1)]``.

    This is the one answer of ``each_all_k([xs])``: about n^2/2
    comparisons of candidates, each built by one concatenation, where the
    kept sets alone number 2^n.
    """
    # dedupe=True is still passed by the benchmark's self-test; the
    # keyword goes when the next benchmark change drops that argument
    if not dedupe:
        raise ValueError("the multiset specification lives in tests/conftest.py")
    return next(each_all_k([xs]))[1]


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
