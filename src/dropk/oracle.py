"""Exhaustive search: the obviously correct reference solver.

Deleting ``k`` elements is keeping the other n - k in order.  Each kept
set of ``xs + c`` either skips ``c`` or ends with it, and appending
``c`` to candidates of equal length keeps their order, so the best with
k deleted is ``max(best_{k-1}(xs), best_k(xs) + c)``.  Grown that way
one element at a time, a row indexed by k holds every deletion count's
answer in O(n^3), for any element kind, where the kept sets alone
number 2^n.  ``solve_naive`` reads one entry of that row;
:func:`each_all_k` grows the rows of a stream of sequences.

The tests check this solver against the paper's own definition, one
deletion at a time in every order with the whole multiset kept, and
against a brute force over every set of kept positions
(``tests/conftest.py``).  It exists to be trusted, not to be fast; the
other engines are checked against it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import S, check_deletion_count, grow_rows


def solve_naive(k: int, xs: S) -> S:
    """Largest sequence reachable from ``xs`` by deleting exactly ``k``
    elements: entry ``k`` of :func:`solve_naive_all_k`, in O(n^3) for
    every ``k``."""
    check_deletion_count(k, xs)
    return solve_naive_all_k(xs)[k]


def solve_naive_all_k(xs: S, *, dedupe: bool = True) -> list[S]:
    """The largest subsequence of ``xs`` with k elements deleted, for
    k = 0..len(xs), as a list indexed by k and of the kind of ``xs``.

    This is the one answer of ``each_all_k([xs])``: the row the
    recurrence in the module docstring grows, one element of ``xs`` at a
    time, with about n^2/2 comparisons of candidates, each built by one
    concatenation.
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
    # the best of xs with k deleted; max(a, b) inline, which keeps the
    # first candidate unless the second is strictly larger
    best = [b if a < (b := e + c) else a for a, e in zip(row, row[1:])]
    return [row[0] + c, *best, row[-1]]
