"""Single-pass engine: a monotonic stack over one left-to-right scan.

The kept prefix lives on a stack that stays weakly descending from
bottom to top.  Each incoming element pops strictly smaller tops while
deletions remain, one deletion per pop, and is then pushed.  When the
budget runs out the rest of the input is kept as it is; when the input
runs out first, the deletions left fall on the stack top.  The stack
starts with a bottom sentinel that is never below anything (``_TOP``
for tuple and list elements, ``_TOP_CODE`` for code points), so the loop
never tests for an empty stack, and no deletion pops it.

A string is scanned as its code points, which order as its characters
do and compare faster: its Latin-1 bytes when every character fits in
one, otherwise a UTF-32 view, lone surrogates included.

Each step pushes or pops, and one terminal step ends the scan, so a run
takes pushes + pops + 1 <= n + k + 1 steps.  The scan keeps no counter:
pushes are the elements consumed, and pops the deletions spent.

From k = ``_UNCOUNTED_MIN`` on, the first k elements run with no budget
test: every pop removes an element pushed earlier, so after i <= k
elements at most i - 1 deletions are spent, and none of them can spend
the last one.  Their stack then has a closed form, the prefix's weak
suffix maxima: the elements that no later element of the prefix
exceeds.  A Latin-1 string builds it level by level in C
(:func:`_push_suffix_maxima`); tuples, lists and UTF-32 views find it in
one right-to-left pass.  The counted loop then runs on the rest, with
the list's length as the deletions left.  Answers and step counts are
those of the counted loop alone.
"""

from __future__ import annotations

from typing import Any, Iterator, NamedTuple

from .core import S, check_deletion_count


class _Top:
    """Bottom-of-stack sentinel for tuple and list elements: never below
    anything, and never looks at what it is compared with."""

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False


_TOP = _Top()
# Above every code point, so it is never popped either.
_TOP_CODE = 0x110000
# The least k for which the first k elements are scanned without counting.
_UNCOUNTED_MIN = 64


def _push_suffix_maxima(stack: list, p: bytes, end: int) -> None:
    """Push the weak suffix maxima of ``p[:end]`` onto ``stack``, oldest
    first: the bytes that no later byte of ``p[:end]`` exceeds.

    Level c holds the c bytes from ``i``, one past the last byte above c,
    to the last c.  The levels run down from 127 when the prefix is
    ASCII and from 255 otherwise, so the first hit is its largest byte,
    and the last byte always ends a level, so the walk stops at
    ``i == end``.
    """
    i = 0
    # the top found by misses, at most 255 memchr passes: max(p[:end])
    # would compare an int object per byte, and p.isascii() would read
    # the whole input
    c = 127 if p[:end].isascii() else 255
    while i < end:
        last = p.rfind(c, i, end)
        if last >= 0:
            stack += [c] * p.count(c, i, last + 1)
            i = last + 1
        c -= 1


def _scan(k: int, xs: S) -> tuple[list, Any, int, int]:
    """Run the scan over ``xs`` with ``k`` deletions; needs ``k <= len(xs)``.

    Returns the stack (the sentinel, then the kept prefix oldest first),
    the sequence scanned (code points for a string), the number of its
    elements consumed and the deletions left.  Deletions are left only
    when the input ran out, and they fall on the stack top; otherwise
    ``xs[consumed:]`` is kept.  While the loop runs, ``top`` holds the
    stack's top and the list what lies below it.
    """
    if isinstance(xs, str):
        stack = [_TOP_CODE]
        try:
            xs = xs.encode("latin-1")
        except UnicodeEncodeError:
            # the native-order codec writes a 4-byte byte-order mark first
            xs = memoryview(xs.encode("utf-32", "surrogatepass"))[4:].cast("I")
    else:
        stack = [_TOP]
    if not k:
        return stack, xs, 0, 0
    budget = k
    top = stack.pop()  # not a fresh []: its one-slot list keeps verify's peak RSS lower
    rest = xs
    if k >= _UNCOUNTED_MIN:
        # the stack after xs[:k] with no budget test: its weak suffix maxima
        if type(xs) is bytes:  # a Latin-1 string: level by level, in C
            stack.append(top)
            _push_suffix_maxima(stack, xs, k)
        else:  # right to left, sentinel last, then turned over
            high = xs[k - 1]
            for y in xs[k - 1 :: -1]:
                if not y < high:
                    stack.append(y)
                    high = y
            stack.append(top)
            stack.reverse()
        top = stack.pop()
        if isinstance(xs, (tuple, list)):  # read on in place: a copy would raise the peak
            rest = iter(xs)
            rest.__setstate__(k)  # positioned past the prefix in O(1)
        else:  # a string's bytes or UTF-32 view
            rest = xs[k:]
        # each of the k consumed elements was pushed once: the list holds
        # the sentinel and all kept but the top, k minus the pops so far
        k = len(stack)
    for y in rest:
        while top < y:
            top = stack.pop()
            k -= 1
            if not k:
                stack.append(top)
                # pushes are the elements consumed, pops the whole budget
                return stack, xs, len(stack) - 1 + budget, 0
        stack.append(top)
        top = y
    stack.append(top)
    return stack, xs, len(xs), k


def solve_linear(k: int, xs: S) -> S:
    """Largest remainder after ``k`` deletions, in one O(n + k) scan."""
    check_deletion_count(k, xs)
    stack, scanned, consumed, k_left = _scan(k, xs)
    if k_left:
        del stack[len(stack) - k_left :]
    del stack[0]
    if scanned is xs:  # a tuple or a list, scanned as it is
        stack += xs[consumed:]
        return stack if isinstance(xs, list) else tuple(stack)
    if type(scanned) is bytes:  # a Latin-1 string
        return bytes(stack).decode("latin-1") + xs[consumed:]
    return "".join(map(chr, stack)) + xs[consumed:]


def gsolve(k: int, acc: S, rest: S) -> S:
    """Solve ``reverse(acc) + rest`` with ``k`` deletions: the optimum of
    that whole sequence, for any prefix ``acc``.

    ``acc`` is the traversed prefix stored newest-first, and ``acc`` and
    ``rest`` must be the same type of sequence.  This is the scan of
    :func:`solve_linear` run on ``acc[::-1] + rest``, so an ``acc`` in any
    order gives the right answer.
    """
    if type(acc) is not type(rest):
        raise ValueError("acc and rest must be the same type of sequence")
    return solve_linear(k, acc[::-1] + rest)


def count_steps(k: int, xs: S) -> int:
    """Number of scan steps :func:`solve_linear` takes on this input:
    pushes + pops + 1, at most ``len(xs) + k + 1``."""
    check_deletion_count(k, xs)
    _, _, consumed, k_left = _scan(k, xs)
    return consumed + (k - k_left) + 1


class ScanEvent(NamedTuple):
    """State right before one scan step and the action it took.

    ``index`` is the position of the next input element and ``depth``
    the number of elements on the stack.  ``element`` is the element
    pushed or popped, None for the terminal FINISH step.
    """

    action: str  # "PUSH", "POP" or "FINISH"
    element: Any
    k: int
    index: int
    depth: int


def scan_events(k: int, xs: S) -> Iterator[ScanEvent]:
    """Replay of the :func:`solve_linear` scan, one event per step.

    An event holds positions and counts, not copies of the sequence, so
    a replay costs O(1) per step; the prefix it describes is rebuilt from
    the PUSH and POP events before it, and the unread input is
    ``xs[index:]``.  The number of events equals :func:`count_steps`.
    """
    check_deletion_count(k, xs)
    stack: list = []
    i, n = 0, len(xs)
    while True:
        depth = len(stack)
        if k == 0 or i == n:
            yield ScanEvent("FINISH", None, k, i, depth)
            return
        y = xs[i]
        if stack and stack[-1] < y:
            yield ScanEvent("POP", stack.pop(), k, i, depth)
            k -= 1
        else:
            yield ScanEvent("PUSH", y, k, i, depth)
            stack.append(y)
            i += 1
