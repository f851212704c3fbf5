"""Single-pass engine: a monotonic stack over one left-to-right scan.

The traversed prefix lives on a stack that stays weakly descending from
bottom to top.  Each incoming element pops strictly smaller stack tops
while deletions remain (every pop spends one deletion), then is pushed.
When the deletion budget hits zero the rest of the input is kept
verbatim; when input runs out first, the remaining deletions fall on the
stack top.

A string is scanned as its code points, which order exactly as its
characters do and compare faster: its Latin-1 bytes when every
character fits in one, otherwise a UTF-32 view (lone surrogates
included).  The stack's top is held in a local and the list holds what
lies below it.  The top starts as a bottom sentinel that is never below
anything (``0x110000``, above every code point, or ``_TOP`` for tuple
and list elements), so the loop never tests for an empty stack.  No
deletion pops the sentinel, and it is never part of the result.

Every step of the scan either pushes an element or pops one, plus one
terminal step, so a run takes pushes + pops + 1 <= n + k + 1 steps.  The
scan keeps no counter: where it stops tells both numbers, since pushes
are the elements consumed and pops the deletions spent.  Code points
push and pop exactly where characters would, so the count is the same.

When k is at least ``_UNCOUNTED_MIN`` the scan runs in two phases.  The
first k elements pop without spending from the budget: every pop
removes an element pushed earlier, so after i <= k elements at most
i - 1 deletions are gone, and no pop among them can spend the last one.
The deletions left are then k minus those pops, which is the length of
the list, since each consumed element was pushed once.  The second
phase is the counted loop on the rest.  Both phases push and pop where
the one loop would, so the result and the step count do not change.

With no budget test, the first phase's stack has a closed form: the
prefix's weak suffix maxima, the elements that no later element of the
prefix exceeds, in input order.  An element that a later one exceeds is
popped when that one arrives, since everything above it on the stack is
at most it; an element that none exceeds is never popped.  For a
Latin-1 string, :func:`_push_suffix_maxima` builds that stack level by
level, from byte value 127 down when the prefix is ASCII and from 255
otherwise, with ``bytes.rfind`` and ``bytes.count``, which run in C.
There are at most 256 levels, so it does O(256 k) memchr-speed work
plus O(k) list work, and no interpreted step per element.  Tuples,
lists and UTF-32 views find the same stack in one pass from right to
left over ``xs[k - 1::-1]``: an element is kept when it is not below
the largest element kept so far, which is the largest element after
it, and the kept elements are then turned over.  That is one
comparison per element and no pop.  The counted loop then reads a
UTF-32 view's ``xs[k:]``, itself a view, or a tuple's or list's own
iterator positioned past the prefix with ``__setstate__(k)``, so the
unread tail is neither copied nor stepped through.

Measured on Python 3.11 (2-vCPU x86-64 VM).  Against the counted loop
alone at n = 2k, the right-to-left pass was already faster at k = 16
on random and ascending digits (0.68-0.70x as tuples, 0.84-0.88x as
astral strings), broke even near k = 16-32 on alternating ``19`` (a
pop per two elements), and took 0.49-0.56x at k = 64 on random and
ascending digits.  Input that never pops, such as weakly descending
input, has no pop to save and runs 1.06-1.15x slower at k = 64 and
1.03-1.12x at k = 128.  At n = 1e6 the pass took 35-39 ms on an
ascending astral string with k = n.  A Latin-1 level costs 120-250 ns,
hit or miss.  On random digits at n = 2k the walk from 127 took
12-19 us from k = 64 to 4,000, and a walk from 255, as a non-ASCII
Latin-1 string takes, 32-40 us.  At n = 1e6 the walk took 4-12 ms on
random, sorted and reverse-sorted digits, and 15-24 ms on its worst
case, ``"\\xff"`` followed by zero bytes, where 254 levels miss over
the whole prefix.  On the same bytes the right-to-left pass took
11-18 ms where the walk took 2-4 ms, so a Latin-1 string keeps the
walk.  Below the constant, as in verify's calls (k <= 9), the scan is
the counted loop alone.
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

    That is the pop loop's stack after ``p[:end]`` with no budget test.
    Level c holds the c bytes from ``i``, one past the last byte above c,
    to the last c: none of them has a larger byte after it, and every
    byte before ``i`` has.  The levels run down from 127 when the prefix
    is ASCII and from 255 otherwise, so the first hit is the prefix's
    largest byte; finding it by misses costs at most 127 or 255 memchr
    passes, where ``max(p[:end])`` would compare an int object per byte.
    The ASCII test reads only the prefix: ``p.isascii()`` would scan the
    whole input.  The last byte always ends a level, so the walk stops
    there, at ``i == end``.
    """
    i = 0
    c = 127 if p[:end].isascii() else 255
    while i < end:
        last = p.rfind(c, i, end)
        if last >= 0:
            stack += [c] * p.count(c, i, last + 1)
            i = last + 1
        c -= 1


def _scan(k: int, xs: S) -> tuple[list, Any, int, int]:
    """Run the scan over ``xs`` with ``k`` deletions.

    Returns the stack (the sentinel, then the kept prefix oldest first),
    the sequence scanned (code points for a string), the number of its
    elements consumed and the deletions left.  Deletions are left only
    when the input ran out, and they fall on the stack top; otherwise
    ``xs[consumed:]`` is kept.  Needs ``k <= len(xs)``.

    From ``k >= _UNCOUNTED_MIN`` on, the first k elements pop with no
    budget test, since none of them can spend the last deletion, and the
    deletions left are then ``len(stack)``.  That stack is the prefix's
    weak suffix maxima: a Latin-1 string's is built by
    :func:`_push_suffix_maxima`, and any other sequence's is found right
    to left, keeping each element that no later one exceeds.  The
    counted loop then runs on ``xs[k:]`` for a string's bytes or UTF-32
    view, and on an iterator positioned past the prefix for a tuple or a
    list, whose tail is not copied.
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
    """Number of scan steps :func:`solve_linear` takes on this input.

    That is pushes + pops + 1, read from where the scan stops: each
    consumed element was pushed once, each spent deletion popped once,
    and one terminal step ends the scan.  Bounded by ``len(xs) + k + 1``.
    """
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
