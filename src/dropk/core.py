"""Sequences over a totally ordered alphabet, and one-step deletions.

Everything in this package works on a str, a tuple or a list, or a
subclass of one; the linear engine refuses any other sequence with
``TypeError``.  Elements must be totally ordered by ``<``, and ``==``
must hold exactly when neither element is smaller.  Under that contract
Python's own sequence comparison, which skips equal heads by ``==`` and
lets the first ``<`` decide, is the lexicographic order whose maximum
the engines find: :func:`lex_le` and :func:`max_lex` are that
comparison, the sweeps compare results with ``==`` and :func:`sequences`
sorts the alphabet.  The engines use only ``<`` on elements.  Strings
are the common case: characters compare by Unicode scalar value, so
digit strings order the way equal-width numbers do.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence, TypeVar

S = TypeVar("S", str, tuple, list)


def lex_le(a: S, b: S) -> bool:
    """True iff ``a`` is lexicographically no larger than ``b``: Python's
    own sequence order, so a proper prefix sits below its extensions
    ("87" is below "875").  Comparing a str with a tuple raises
    ``TypeError``, as ``<`` does.
    """
    return not b < a


def max_lex(candidates: Iterable[S]) -> S:
    """The largest candidate under :func:`lex_le`, by the built-in ``max``.

    Ties between equal candidates resolve to the first occurrence, which
    keeps traces deterministic.  Raises ``ValueError`` on an empty
    collection.
    """
    best = max(candidates, default=None)
    if best is None:
        raise ValueError("empty candidate set")
    return best


def drops(xs: S) -> list[S]:
    """Every way to delete exactly one element, in position order.

    Entry ``i`` is ``xs`` with position ``i`` removed; there are exactly
    ``len(xs)`` entries, each one element shorter.  Raises ``ValueError``
    on the empty sequence.
    """
    if len(xs) == 0:
        raise ValueError("drops undefined on empty sequence")
    return [xs[:i] + xs[i + 1 :] for i in range(len(xs))]


def sequences(alphabet, max_len: int, min_len: int = 0) -> Iterator:
    """Every sequence over the distinct elements of ``alphabet`` with
    ``min_len <= length <= max_len``, shorter first, in sorted order
    within a length.

    A string alphabet yields strings, any other yields tuples.  An empty
    alphabet, or ``max_len < min_len``, raises ``ValueError``: a sweep
    over no tokens or no lengths would check nothing.
    """
    tokens = sorted(set(alphabet))
    if not tokens:
        raise ValueError("alphabet must be nonempty")
    if max_len < min_len:
        raise ValueError("max_len must be >= min_len")
    as_str = isinstance(alphabet, str)
    for n in range(min_len, max_len + 1):
        for raw in product(tokens, repeat=n):
            yield "".join(raw) if as_str else raw


def grow_rows(seqs: Iterable[S], extend) -> Iterator[tuple[S, list]]:
    """``(xs, rows[len(xs)])`` for every ``xs`` of ``seqs``, in order,
    where ``rows[0]`` is ``[xs[:0]]`` and ``rows[d + 1]`` is
    ``extend(rows[d], xs[d : d + 1])``.

    A sequence keeps the rows of the prefix it shares with the one
    before, compared element by element with ``==`` and only between
    sequences of the same kind, and builds the rest; neighbours in
    odometer order, as :func:`sequences` yields them, share all but
    their last rows.  Only the current sequence's rows are held.  A row
    is reused by later sequences, so a yielded row must not be mutated.
    """
    rows: list[list] = []
    prev = None
    for xs in seqs:
        shared = 0
        if type(xs) is type(prev):
            limit = min(len(xs), len(prev))
            while shared < limit and xs[shared] == prev[shared]:
                shared += 1
        if shared:
            del rows[shared + 1 :]
        else:
            rows = [[xs[:0]]]
        for d in range(shared, len(xs)):
            rows.append(extend(rows[d], xs[d : d + 1]))
        prev = xs
        yield xs, rows[-1]


def rebuild(like: S, items: Iterable) -> S:
    """``items`` as a sequence of the same type as ``like``: a str, a
    tuple or a list."""
    if isinstance(like, str):
        return "".join(items)
    if isinstance(like, tuple):
        return tuple(items)
    return list(items)


def check_deletion_count(k: int, xs: Sequence) -> None:
    """Shared guard for every solver entry point: 0 <= k <= len(xs)."""
    if k < 0:
        raise ValueError("deletion count must be >= 0")
    if k > len(xs):
        raise ValueError("cannot drop more elements than present")
