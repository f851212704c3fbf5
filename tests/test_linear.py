import random
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dropk.linear
from conftest import MIXED_CHARS, all_sequences, brute_naive
from dropk.greedy import gstep, solve_greedy
from dropk.linear import _scan, count_steps, gsolve, scan_events, solve_linear
from dropk.oracle import solve_naive, solve_naive_all_k

# the benchmark's sliding-window maximum, which calls no dropk engine
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import reference  # noqa: E402


def descending_sequences(alphabet, max_len):
    for n in range(max_len + 1):
        for raw in product(sorted(alphabet), repeat=n):
            if all(raw[j] >= raw[j + 1] for j in range(n - 1)):
                yield "".join(raw)


def assert_kept_prefix_descends(k, xs):
    # the scan's stack past its sentinel, code points for a string, is
    # the kept prefix every push relied on being weakly descending
    kept = _scan(k, xs)[0][1:]
    assert all(kept[j] >= kept[j + 1] for j in range(len(kept) - 1))


def bookkeeping_cases():
    cases = [*all_sequences("abc", 7), *all_sequences("a\u00e9\U0001f600", 5)]
    for n in range(7):
        for raw in product((3, 1, 2), repeat=n):
            cases += [raw, list(raw)]
    return cases


def assert_scan_matches_the_replay(k, xs):
    # the stack, consumed count and deletions left that _scan returns are
    # the replay's stack (code points for a string) and its FINISH
    # event's index and k, and solve_linear's answer is the replay's
    stack = []
    for event in scan_events(k, xs):
        if event.action == "PUSH":
            stack.append(event.element)
        elif event.action == "POP":
            stack.pop()
    replayed = [ord(c) for c in stack] if isinstance(xs, str) else stack
    got, _, consumed, k_left = _scan(k, xs)
    assert list(got[1:]) == replayed, (xs, k)
    assert (consumed, k_left) == (event.index, event.k), (xs, k)
    kept = stack[: len(stack) - event.k]
    kept = "".join(kept) if isinstance(xs, str) else type(xs)(kept)
    assert solve_linear(k, xs) == kept + xs[event.index :], (xs, k)


class TestGsolve:
    def test_zero_budget_returns_everything(self):
        assert gsolve(0, "ba", "cd") == "abcd"

    def test_exhausted_input_drops_stack_top(self):
        assert gsolve(2, "789", "") == "9"

    def test_fresh_scan(self):
        assert gsolve(1, "", "19") == "9"

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="cannot drop more"):
            gsolve(5, "ba", "cd")
        with pytest.raises(ValueError, match=">= 0"):
            gsolve(-1, "", "abc")

    def test_mixed_sequence_kinds_rejected(self):
        with pytest.raises(ValueError, match="same type"):
            gsolve(1, "ab", ("c",))
        with pytest.raises(ValueError, match="same type"):
            gsolve(0, ["b"], ("c",))
        assert gsolve(1, ("a", "b"), ("c",)) == ("b", "c")

    def test_prefix_and_input_of_different_widths(self):
        # an astral prefix before ASCII input, and a Latin-1 prefix before
        # astral input: the result may hold characters of either width
        cases = [
            ("\U0001f600\U0001f601", "1928"),
            ("\U0001f601", "\u00ff1"),
            ("\u00e9\u00ff", "\U00010000a\U0001f600"),
            ("ab\u00ff", "\U00010000"),
            ("\ud800\udfff", "z\udcff"),
        ]
        for acc, rest in cases:
            whole = acc[::-1] + rest
            for k in range(len(whole) + 1):
                got = gsolve(k, acc, rest)
                assert got == solve_greedy(k, whole) == solve_linear(k, whole)
                assert_kept_prefix_descends(k, whole)

    def test_generalizes_full_solve(self):
        # scanning from a saved prefix equals solving the whole sequence
        for ds in descending_sequences("abc", 4):
            for ys in all_sequences("abc", 3):
                whole = ds + ys
                for k in range(len(whole) + 1):
                    expected = solve_naive(k, whole)
                    assert gsolve(k, ds[::-1], ys) == expected
                    assert_kept_prefix_descends(k, whole)


class TestSolveLinear:
    def test_worked_examples(self):
        assert solve_linear(3, "6782334") == "8334"
        assert solve_linear(1, "6782334") == "782334"

    def test_counterexample_source(self):
        assert solve_linear(4, "194234") == "94"

    def test_delete_everything(self):
        assert solve_linear(7, "6782334") == ""

    def test_empty_input(self):
        assert solve_linear(0, "") == ""

    def test_too_many_deletions(self):
        with pytest.raises(ValueError, match="cannot drop more"):
            solve_linear(8, "6782334")

    def test_preserves_sequence_kind(self):
        assert solve_linear(2, (1, 9, 4, 2)) == (9, 4)
        assert solve_linear(2, [9, 8, 7]) == [9]

    def test_plain_results_for_subclasses(self):
        # a subclass of tuple or list gives a plain tuple or list, and a
        # list result is a new list even when nothing is deleted
        class T(tuple):
            pass

        class L(list):
            pass

        for k in range(4):
            got = solve_linear(k, T((1, 9, 4)))
            assert type(got) is tuple and got == solve_linear(k, (1, 9, 4))
            got = solve_linear(k, L([1, 9, 4]))
            assert type(got) is list and got == solve_linear(k, [1, 9, 4])
        xs = [1, 9, 4]
        assert solve_linear(0, xs) is not xs

    def test_agrees_with_other_engines(self):
        for xs in all_sequences("abc", 6):
            expected = solve_naive_all_k(xs)
            for k in range(len(xs) + 1):
                got = solve_linear(k, xs)
                assert got == expected[k] == solve_greedy(k, xs)
                assert len(got) == len(xs) - k
                assert_kept_prefix_descends(k, xs)

    @given(st.text(alphabet="0123456789", max_size=60), st.data())
    def test_agrees_with_greedy_random(self, xs, data):
        k = data.draw(st.integers(0, len(xs)))
        assert solve_linear(k, xs) == solve_greedy(k, xs)


@given(
    st.text(alphabet=st.one_of(st.sampled_from(MIXED_CHARS), st.characters()), max_size=40),
    st.sampled_from((str, tuple, list)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_differential_across_sequence_kinds(text, kind, data):
    xs = text if kind is str else kind(text)
    k = data.draw(st.integers(0, len(xs)))
    got = solve_linear(k, xs)
    assert type(got) is kind
    assert got == solve_greedy(k, xs)
    assert count_steps(k, xs) == len(list(scan_events(k, xs)))



@given(
    st.text(alphabet=st.one_of(st.sampled_from(MIXED_CHARS), st.characters()), max_size=20),
    st.text(alphabet=st.one_of(st.sampled_from(MIXED_CHARS), st.characters()), max_size=20),
    st.sampled_from((str, tuple, list)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_gsolve_solves_reversed_prefix_then_rest(acc_text, rest_text, kind, data):
    # acc in any order, not only the weakly nondecreasing one a scan saves
    acc, rest = (acc_text, rest_text) if kind is str else (kind(acc_text), kind(rest_text))
    whole = acc[::-1] + rest
    k = data.draw(st.integers(0, len(whole)))
    got = gsolve(k, acc, rest)
    assert type(got) is kind
    assert got == solve_greedy(k, whole)

class TestSplittingProperty:
    def test_split_point_behaviour(self):
        # while the next element does not rise above the descending
        # prefix, the split may advance past it; at a strict rise the
        # prefix's last element is exactly what the greedy step deletes
        for ds in descending_sequences("abc", 3):
            for y in "abc":
                for ys in all_sequences("abc", 3):
                    whole = ds + y + ys
                    if not ds or ds[-1] >= y:
                        assert gstep(whole) == gstep((ds + y) + ys)
                    else:
                        assert gstep(whole) == ds[:-1] + y + ys


class TestCountSteps:
    def test_immediate_finish(self):
        assert count_steps(0, "abc") == 1

    def test_push_pop_finish(self):
        assert count_steps(1, "19") == 3

    def test_bound_exhaustively(self):
        for xs in all_sequences("abc", 6):
            for k in range(len(xs) + 1):
                assert count_steps(k, xs) <= len(xs) + k + 1

    @given(st.text(alphabet="0123456789", min_size=1, max_size=2000))
    @settings(max_examples=30, deadline=None)
    def test_bound_random_half_deletions(self, xs):
        k = len(xs) // 2
        assert count_steps(k, xs) <= len(xs) + k + 1


class TestScanEvents:
    def test_push_pop_finish_trace(self):
        events = list(scan_events(1, "19"))
        assert [e.action for e in events] == ["PUSH", "POP", "FINISH"]
        assert events[0].element == "1" and (events[0].index, events[0].depth) == (0, 0)
        assert events[1].element == "1" and events[1].k == 1
        assert (events[1].index, events[1].depth) == (1, 1)
        assert events[2].k == 0 and "19"[events[2].index :] == "9"
        assert events[2].depth == 0

    def test_zero_budget_trace(self):
        events = list(scan_events(0, "abc"))
        assert [e.action for e in events] == ["FINISH"]
        assert (events[0].index, events[0].depth) == (0, 0)

    def test_event_count_matches_step_count(self):
        for alphabet in ("ab", "abc"):
            for text in all_sequences(alphabet, 6):
                for xs in (text, tuple(text), list(text)):
                    for k in range(len(xs) + 1):
                        assert len(list(scan_events(k, xs))) == count_steps(k, xs)

    def test_scan_bookkeeping_matches_the_replay(self):
        # an early exit inside the pop loop, both pushes of the held top
        # and k = 0 included
        for xs in bookkeeping_cases():
            for k in range(len(xs) + 1):
                assert_scan_matches_the_replay(k, xs)

    def test_prefix_stays_weakly_descending(self):
        # the stack rebuilt from the PUSH and POP events stays weakly
        # descending, matches every event's index and depth, and leads to
        # the linear engine's answer
        for xs in all_sequences("abc", 6):
            for k in range(len(xs) + 1):
                stack = []
                for event in scan_events(k, xs):
                    assert event.depth == len(stack)
                    assert event.index == len(stack) + (k - event.k)
                    if event.action == "PUSH":
                        assert event.element == xs[event.index]
                        stack.append(event.element)
                    elif event.action == "POP":
                        assert event.element == stack.pop()
                    assert all(stack[j] >= stack[j + 1] for j in range(len(stack) - 1))
                kept = stack[: len(stack) - event.k]
                assert "".join(kept) + xs[event.index :] == solve_linear(k, xs)


@pytest.fixture
def uncounted_from_one(monkeypatch):
    """Every scan with k >= 1 takes the uncounted first phase."""
    monkeypatch.setattr(dropk.linear, "_UNCOUNTED_MIN", 1)


def every_kind(alphabet, max_len):
    for text in all_sequences(alphabet, max_len):
        yield from (text, tuple(text), list(text))


class LtEq:
    """An element that defines only ``<`` and ``==``: ``<=`` and ``>=``
    on it raise TypeError."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return self.value < other.value

    def __eq__(self, other):
        return self.value == other.value

    def __repr__(self):
        return f"LtEq({self.value!r})"


class TestUncountedPhase:
    def test_matches_brute_force(self, uncounted_from_one):
        cases = [*every_kind("123", 7), *every_kind("a\u00e9\U0001f600", 5)]
        for xs in cases:
            for k in range(len(xs) + 1):
                got = solve_linear(k, xs)
                assert type(got) is type(xs)
                assert got == brute_naive(k, xs), (xs, k)

    def test_scan_bookkeeping_matches_the_replay(self, uncounted_from_one):
        for xs in bookkeeping_cases():
            for k in range(len(xs) + 1):
                assert_scan_matches_the_replay(k, xs)

    def test_event_count_matches_step_count(self, uncounted_from_one):
        for xs in [*every_kind("abc", 6), *every_kind("a\u00e9\U0001f600", 5)]:
            for k in range(len(xs) + 1):
                assert count_steps(k, xs) == len(list(scan_events(k, xs))), (xs, k)

    def test_elements_that_define_only_lt_and_eq(self, uncounted_from_one):
        # the right-to-left pass compares with < alone
        for text in all_sequences("123", 6):
            for kind in (tuple, list):
                xs = kind(map(LtEq, text))
                for k in range(len(xs) + 1):
                    got = solve_linear(k, xs)
                    assert type(got) is kind
                    assert got == brute_naive(k, xs), (text, k)

    def test_elements_that_define_only_lt_and_eq_past_the_gate(self):
        rng = random.Random(24)
        gate = dropk.linear._UNCOUNTED_MIN
        for n in (200, 700):
            values = [rng.randrange(12) for _ in range(n)]
            for k in (gate, rng.randint(gate, n), n):
                for kind in (tuple, list):
                    assert_scan_matches_the_replay(k, kind(map(LtEq, values)))

    def test_utf32_strings_past_the_gate(self):
        # a strictly descending string keeps every element of the
        # prefix, an all-equal one keeps them all as ties, and k = n
        # leaves nothing unread
        rng = random.Random(2024)
        gate, n = dropk.linear._UNCOUNTED_MIN, 2000
        descending = "".join(chr(0x1F600 + n - i) for i in range(n))
        equal = "\U0001f600" * n
        mixed = "".join(chr(rng.choice((0x61, 0xE9, 0x4E2D, 0x1F600, 0x1F601)))
                        for _ in range(n))
        for text in (descending, equal, mixed):
            for k in (gate, n // 2, n - 1, n):
                assert_scan_matches_the_replay(k, text)
        for text in (descending, equal):
            for k in (gate, n // 2):
                assert list(_scan(k, text)[0][1:]) == [ord(c) for c in text]
                assert solve_linear(k, text) == text[: n - k]

    def test_long_inputs_on_both_sides_of_the_gate(self):
        # seeded inputs of 100-3,000 elements, str (Latin-1 and astral),
        # tuple and list, with k just below, at and above the constant;
        # then Latin-1 strings over every byte value, a descending
        # staircase over all 256 and "\xff" followed by equal bytes, the
        # ends of the bytes path's level walk, and an ASCII string led by
        # "\x7f", the top of the walk over an ASCII prefix
        rng = random.Random(21)
        gate = dropk.linear._UNCOUNTED_MIN
        cases = []
        for _ in range(24):
            n = rng.randint(100, 3000)
            low, high = rng.choice(((0, 9), (0, 3), (0, 999), (5, 7), (0, 255)))
            values = [rng.randint(low, high) for _ in range(n)]
            if rng.random() < 0.3:
                values.sort(reverse=rng.random() < 0.5)
            cases.append((rng.choice((0, 0x30, 0xE0, 0x1F600)), values))
        cases += [(0, [rng.randrange(256) for _ in range(2000)]) for _ in range(3)]
        cases.append((0, [255 - i // 8 for i in range(2048)]))
        cases += [(0, [255] + [b] * 1500) for b in (0, 97, 254, 255)]
        cases.append((0, [127] + [i * 37 % 127 for i in range(1999)]))
        for base, values in cases:
            n = len(values)
            text = "".join(chr(base + v) for v in values)
            # the tuple path, the interpreted loop, is the string's reference
            points = tuple(map(ord, text))
            for k in (gate - 1, gate, rng.randint(gate, n), n):
                for xs in (text, tuple(values), list(values)):
                    assert_scan_matches_the_replay(k, xs)
                assert tuple(map(ord, solve_linear(k, text))) == solve_linear(k, points), (text, k)
                assert count_steps(k, text) == count_steps(k, points), (text, k)


def test_matches_an_independent_reference_at_scale():
    # past a few thousand elements nothing else checks the scan's answer:
    # digits on both sides of the gate and at its ends, the level walk's
    # worst case ("\xff" then zero bytes) and a 256-level byte staircase,
    # astral text, a tuple and a descending list
    n = 10**5
    rng = random.Random(6)
    digits = "".join(rng.choices("0123456789", k=n))
    cases = [(k, digits) for k in (1, 63, 64, 65, n // 2, n - 1, n)]
    cases += [
        (n // 2, "\xff" + "\x00" * (n - 1)),
        (n // 2, "".join(chr(i % 256) for i in range(n))),
        (n // 2, "".join(rng.choices("a\u00e9\u4e2d\U0001f600\U0001f601", k=n))),
        (n // 2, tuple(rng.choices(range(1000), k=n))),
        (n // 2, list(range(n, 0, -1))),
    ]
    for k, xs in cases:
        assert solve_linear(k, xs) == reference(k, xs), (type(xs).__name__, xs[:3], k)
