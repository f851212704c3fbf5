"""Single-pass engine: a monotonic stack over one left-to-right scan.

The traversed prefix lives on a stack that stays weakly descending from
bottom to top.  Each incoming element pops strictly smaller stack tops
while deletions remain (every pop spends one deletion), then is pushed.
When the deletion budget hits zero the rest of the input is kept
verbatim; when input runs out first, the remaining deletions fall on the
stack top.

Every step of the scan either pushes an element or pops one, plus one
terminal step, so a run takes pushes + pops + 1 <= n + k + 1 steps.  The
scan keeps no counter: where it stops tells both numbers, since pushes
are the elements consumed and pops the deletions spent.

``checked=True`` makes one O(n) pass over the kept prefix after the scan
and raises ``ValueError`` unless it is weakly descending.  An element is
pushed only onto an empty stack or a top at least as large, so that one
pass checks the invariant every step relied on.  (The CLI reads
``--file`` input as UTF-8; a file that is not valid UTF-8 is a usage
error, exit code 2.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, TypeVar

from .core import check_deletion_count, rebuild

S = TypeVar("S", str, tuple, list)


def _require_descending(stack: list, message: str) -> None:
    for j in range(len(stack) - 1):
        if stack[j] < stack[j + 1]:
            raise ValueError(message)


def _scan(k: int, stack: list, xs: S) -> tuple[list, int, int]:
    """Run the scan over ``xs`` from ``stack`` (the traversed prefix,
    oldest first) with ``k`` deletions.

    Returns the stack, the number of elements of ``xs`` consumed and the
    deletions left.  Deletions are left only when ``xs`` ran out, and
    they fall on the stack top; otherwise ``xs[consumed:]`` is kept.
    """
    if not k:
        return stack, 0, 0
    push, pop = stack.append, stack.pop
    top = stack[-1] if stack else None
    for i, y in enumerate(xs):
        if stack and top < y:
            pop()
            k -= 1
            while k and stack and stack[-1] < y:
                pop()
                k -= 1
            if not k:
                return stack, i, 0
        push(y)
        top = y
    return stack, len(xs), k


def _solve(k: int, stack: list, xs: S, checked: bool) -> S:
    stack, consumed, k_left = _scan(k, stack, xs)
    if k_left:
        del stack[len(stack) - k_left :]
    if checked:
        _require_descending(stack, "scan invariant broken: prefix not weakly descending")
    return rebuild(xs, stack) + xs[consumed:]


def gsolve(k: int, acc: S, rest: S, *, checked: bool = False) -> S:
    """Solve ``reverse(acc) + rest`` with ``k`` deletions, resuming a scan
    whose traversed prefix is ``acc``.

    ``acc`` is stored newest-first, so read front to back it must be
    weakly nondecreasing (its reverse, the logical prefix, is weakly
    descending).  That ordering is only validated with ``checked=True``,
    in O(len(acc)); ``k`` is always validated against the combined
    length, and ``acc`` and ``rest`` must be the same type of sequence.
    """
    if k < 0:
        raise ValueError("deletion count must be >= 0")
    if k > len(acc) + len(rest):
        raise ValueError("cannot drop more elements than present")
    if type(acc) is not type(rest):
        raise ValueError("acc and rest must be the same type of sequence")
    stack = list(reversed(acc))
    if checked:
        _require_descending(stack, "accumulator must be weakly nondecreasing front to back")
    return _solve(k, stack, rest, checked)


def solve_linear(k: int, xs: S, *, checked: bool = False) -> S:
    """Largest remainder after ``k`` deletions, in one O(n + k) scan.

    ``checked=True`` adds one O(n) pass that checks the kept prefix is
    weakly descending.
    """
    check_deletion_count(k, xs)
    return _solve(k, [], xs, checked)


def count_steps(k: int, xs: S) -> int:
    """Number of scan steps :func:`solve_linear` takes on this input.

    That is pushes + pops + 1, read from where the scan stops: each
    consumed element was pushed once, each spent deletion popped once,
    and one terminal step ends the scan.  Bounded by ``len(xs) + k + 1``.
    """
    check_deletion_count(k, xs)
    _, consumed, k_left = _scan(k, [], xs)
    return consumed + (k - k_left) + 1


@dataclass(frozen=True)
class ScanEvent:
    """State right before one scan step and the action it took.

    ``prefix`` is the traversed prefix in logical (descending) order and
    ``suffix`` the not-yet-consumed input, both the same kind of sequence
    as the input.  ``element`` is the element pushed or popped, None for
    the terminal FINISH step.
    """

    action: str  # "PUSH", "POP" or "FINISH"
    element: Any
    k: int
    prefix: Any
    suffix: Any


def scan_events(k: int, xs: S) -> Iterator[ScanEvent]:
    """Replay of the :func:`solve_linear` scan, one event per step.

    Every event snapshots the prefix and suffix, so this is for traces
    and tests, not the hot path.  The number of events equals
    :func:`count_steps`.
    """
    check_deletion_count(k, xs)
    stack: list = []
    i, n = 0, len(xs)
    while True:
        prefix = rebuild(xs, stack)
        suffix = xs[i:]
        if k == 0 or i == n:
            yield ScanEvent("FINISH", None, k, prefix, suffix)
            return
        y = xs[i]
        if stack and stack[-1] < y:
            yield ScanEvent("POP", stack[-1], k, prefix, suffix)
            stack.pop()
            k -= 1
        else:
            yield ScanEvent("PUSH", y, k, prefix, suffix)
            stack.append(y)
            i += 1
