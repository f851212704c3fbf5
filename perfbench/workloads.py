"""Seeded inputs for the three workloads, the independent reference and
the output checks.

Nothing here calls a dropk engine: the reference answer is a
sliding-window maximum, and the ``verify`` check compares each sweep's
case count against its closed form.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import sub
from typing import Sequence

N = 1_000_000

# `dropk verify` caps the exchange game at length 7 and the prefix-dominance
# sweep at tail length 6; the workload is defined by these lengths, so a
# sweep that covers other lengths fails the check rather than changing the
# work silently.
VERIFY_MAX_LEN = 8
VERIFY_GAME_LEN = 7
VERIFY_AUX_LEN = 6
VERIFY_TOKENS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Shape:
    """One input: its name, the deletion count and the sequence."""

    name: str
    k: int
    xs: Sequence


CLI_SHAPES = ("digits-half", "digits-k10", "digits-sorted-all", "astral-asc-all")
LIB_SHAPES = ("tuple-desc-half", "list-equal-k1", "tuple-rand-half")


def make_shape(name: str, seed: int, n: int = N) -> Shape:
    """One named input of length ``n``.  Each shape has its own generator,
    so it can be built without the others."""
    rng = random.Random(f"{seed}/{name}")
    if name == "digits-half":
        return Shape(name, n // 2, "".join(rng.choices("0123456789", k=n)))
    if name == "digits-k10":
        return Shape(name, 10, "".join(rng.choices("0123456789", k=n)))
    if name == "digits-sorted-all":
        return Shape(name, n, "".join(sorted(rng.choices("0123456789", k=n))))
    if name == "astral-asc-all":
        # every element is pushed, then popped; 4 bytes each in UTF-8
        return Shape(name, n, "".join(map(chr, range(0x10000, 0x10000 + n))))
    if name == "tuple-desc-half":
        # strictly descending: the scan only pushes and cuts at the end
        top = 3 * n + rng.randrange(n)
        return Shape(name, n // 2, tuple(accumulate(rng.choices((1, 2, 3), k=n - 1), sub, initial=top)))
    if name == "list-equal-k1":
        # ties never pop
        return Shape(name, 1, [rng.randrange(1000)] * n)
    if name == "tuple-rand-half":
        return Shape(name, n // 2, tuple(rng.choices(range(1000), k=n)))
    raise ValueError(f"unknown shape {name!r}")


def verify_alphabet(seed: int) -> str:
    """Three distinct characters; every sweep's size depends only on the
    alphabet's length, so each seed does the same amount of work."""
    return "".join(random.Random(seed).sample(VERIFY_TOKENS, 3))


def reference(k: int, xs: Sequence) -> Sequence:
    """Largest remainder of ``xs`` after ``k`` deletions, as a sliding-window
    maximum: output position j takes the leftmost largest element of
    ``xs[prev + 1 .. k + j]``, where prev is the position taken for j - 1.

    The deque holds the window's candidates in weakly descending order;
    equal values are kept so that its front is the leftmost maximum.
    """
    if not 0 <= k <= len(xs):
        raise ValueError("need 0 <= k <= len(xs)")
    window: deque = deque()
    out = []
    right = 0
    for last in range(k, len(xs)):
        while right <= last:
            v = xs[right]
            while window and window[-1] < v:
                window.pop()
            window.append(v)
            right += 1
        out.append(window.popleft())
    if isinstance(xs, str):
        return "".join(out)
    return tuple(out) if isinstance(xs, tuple) else out


def steps_ok(steps, k: int, n: int) -> bool:
    """The documented bound on :func:`dropk.linear.count_steps`."""
    return isinstance(steps, int) and 1 <= steps <= n + k + 1


def verify_cases(max_len: int, tokens: int) -> dict[str, int]:
    """Closed-form case counts of the three counted `dropk verify` sweeps."""
    game_len = min(max_len, VERIFY_GAME_LEN)
    aux_len = min(max_len, VERIFY_AUX_LEN)
    a = tokens
    return {
        # every sequence of length n, every k in 0..n
        "equivalence": sum(a**n * (n + 1) for n in range(max_len + 1)),
        # every sequence, every plan deleting d >= 1 of its n positions
        "game": sum(a**n * (2**n - 1) for n in range(1, game_len + 1)),
        # every tail, every x at least the tail's head
        "aux": sum(a ** (n - 1) * a * (a + 1) // 2 for n in range(1, aux_len + 1)),
    }


_VERIFY_LINES = {
    "equivalence": re.compile(
        r"^engine equivalence up to length (\d+): (\d+) cases, (\d+) mismatches$", re.M
    ),
    "game": re.compile(
        r"^exchange game up to length (\d+):\ncases: (\d+)\nviolations: (\d+)$", re.M
    ),
    "aux": re.compile(
        r"^prefix-dominance sweep up to tail length (\d+): (\d+) cases, (\d+) violations$",
        re.M,
    ),
}


def verify_output_ok(text: str, returncode: int, max_len: int, tokens: int) -> bool:
    """`dropk verify` passed, and each sweep covered exactly the expected
    lengths and case counts with no violation."""
    if returncode != 0:
        return False
    lengths = {
        "equivalence": max_len,
        "game": min(max_len, VERIFY_GAME_LEN),
        "aux": min(max_len, VERIFY_AUX_LEN),
    }
    expected = verify_cases(max_len, tokens)
    for sweep, pattern in _VERIFY_LINES.items():
        found = pattern.search(text)
        if found is None:
            return False
        length, cases, bad = map(int, found.groups())
        if (length, cases, bad) != (lengths[sweep], expected[sweep], 0):
            return False
    return (
        "better-global principle: counterexample confirmed" in text
        and re.search(r"^result: all checks passed$", text, re.M) is not None
    )
