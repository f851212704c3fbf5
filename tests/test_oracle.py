import math
import random
import time

import pytest

from conftest import (
    all_sequences,
    brute_all_k,
    brute_naive,
    deleted_subsequences,
    is_subsequence,
    spec_all_k,
    step,
)
from dropk.core import sequences
from dropk.oracle import each_all_k, solve_naive, solve_naive_all_k


def candidates(k, xs):
    """The raw candidate multiset after ``k`` rounds of :func:`step`."""
    out = [xs]
    for _ in range(k):
        out = step(out)
    return out


class TestStep:
    def test_single_candidate(self):
        assert step(["ab"]) == ["b", "a"]

    def test_singletons_drop_to_empty(self):
        assert step(["b", "a"]) == ["", ""]

    def test_matches_drops_on_one_input(self):
        assert step(["abcd"]) == ["bcd", "acd", "abd", "abc"]

    def test_empty_member_raises(self):
        with pytest.raises(ValueError, match="drops undefined"):
            step(["ab", ""])

    def test_output_size(self):
        assert len(step(["abc", "de", "f"])) == 6


class TestSolveNaive:
    def test_worked_example_one_deletion(self):
        assert solve_naive(1, "6782334") == "782334"

    def test_worked_example_three_deletions(self):
        assert solve_naive(3, "6782334") == "8334"

    def test_three_letters(self):
        assert solve_naive(2, "abc") == "c"

    def test_zero_deletions(self):
        assert solve_naive(0, "abc") == "abc"

    def test_delete_everything(self):
        assert solve_naive(3, "abc") == ""

    def test_too_many_deletions(self):
        with pytest.raises(ValueError, match="cannot drop more"):
            solve_naive(4, "abc")

    def test_matches_the_multiset_specification(self):
        # one cascade of every deletion order per sequence serves every k
        for word in all_sequences("abc", 6, 1):
            for xs in (word, tuple(word), list(word)):
                expected = spec_all_k(xs)
                assert solve_naive_all_k(xs) == expected
                for k in range(len(xs) + 1):
                    assert solve_naive(k, xs) == expected[k]

    def test_merges_duplicates_by_default(self):
        # the row keeps one best per prefix and deletion count, so equal
        # candidates merge as they arise and the cost does not grow with k:
        # all 21 deletion counts of 20 digits within a tenth of the 0.5 s
        # one call at k = 5 was allowed, too little time to search the
        # kept sets, 2^20 of them over all k
        digits = "61803398874989484820"
        expected = brute_all_k(digits)
        assert expected[5] == "898874989484820"
        start = time.perf_counter()
        got = [solve_naive(k, digits) for k in range(len(digits) + 1)]
        assert time.perf_counter() - start < 0.05
        assert got == expected

    def test_unhashable_elements_cost_no_more_than_ints(self):
        # the same property for one-element lists, which cannot be hashed:
        # all 21 deletion counts within a fifth of the 0.25 s one call at
        # k = 5 was allowed, each result of the input's kind
        digits = "61803398874989484820"
        expected = brute_all_k(tuple(int(c) for c in digits))
        for kind in (tuple, list):
            xs = kind([int(c)] for c in digits)
            start = time.perf_counter()
            got = [solve_naive(k, xs) for k in range(len(xs) + 1)]
            assert time.perf_counter() - start < 0.05
            # a tuple and a list are never equal to one another
            assert got == [kind([d] for d in best) for best in expected]

    def test_candidate_multiset_size_is_falling_factorial(self):
        for xs in all_sequences("ab", 5, 1):
            n = len(xs)
            for k in range(n + 1):
                assert len(candidates(k, xs)) == math.perm(n, k)

    def test_candidates_are_subsequences(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 7)
            xs = "".join(rng.choices("0123456789", k=n))
            k = rng.randint(0, min(3, n))
            for candidate in candidates(k, xs):
                assert len(candidate) == n - k
                assert is_subsequence(candidate, xs)

    def test_candidate_set_is_complete(self):
        # the raw multiset, deduplicated, covers every shorter subsequence
        for xs in all_sequences("abc", 5, 1):
            for k in range(len(xs) + 1):
                got = set(candidates(k, xs))
                assert got == deleted_subsequences(xs, k)


class TestSolveNaiveAllK:
    def test_matches_per_k_calls(self):
        for xs in all_sequences("abc", 5):
            everything = solve_naive_all_k(xs)
            assert len(everything) == len(xs) + 1
            for k, expected in enumerate(everything):
                assert expected == brute_naive(k, xs)

    def test_empty_input(self):
        assert solve_naive_all_k("") == [""]

    def test_rows_are_the_one_path(self):
        # the multiset cascade is a test oracle, conftest.spec_all_k
        with pytest.raises(ValueError, match="tests/conftest.py"):
            solve_naive_all_k("ab", dedupe=False)
        with pytest.raises(TypeError):
            solve_naive(1, "ab", dedupe=True)

    def test_dedupe_keeps_lists(self):
        for xs in all_sequences("abc", 5):
            xs = list(xs)
            expected = brute_all_k(xs)
            everything = solve_naive_all_k(xs, dedupe=True)
            assert everything == expected
            assert all(type(best) is list for best in everything)
            for k in range(len(xs) + 1):
                best = solve_naive(k, xs)
                assert type(best) is list and best == expected[k]

    def test_unhashable_elements(self):
        # elements need only be ordered by <, not hashable: lists of lists
        # and tuples of lists are solved like any other sequence
        for xs in (([1], [3], [2]), [[1], [3], [2]]):
            assert solve_naive(1, xs) == xs[1:]
            everything = solve_naive_all_k(xs)
            assert everything == spec_all_k(xs)
            assert everything == [xs, xs[1:], xs[1:2], xs[:0]]
            assert all(type(best) is type(xs) for best in everything)


class TestEachAllK:
    @pytest.mark.parametrize("alphabet, max_len", [
        ("123", 8), ("1234", 6), ((3, 1, 2), 6),
    ])
    def test_matches_brute_force_in_sweep_order(self, alphabet, max_len):
        seqs = list(sequences(alphabet, max_len))
        got = list(each_all_k(seqs))
        assert [xs for xs, _ in got] == seqs
        for xs, everything in got:
            assert everything == brute_all_k(xs)
            assert all(type(best) is type(xs) for best in everything)

    def test_matches_brute_force_in_any_order(self):
        # no prefix order to lean on: shuffled, repeated, shorter after
        # longer, the empty sequence in the middle, and kinds mixed
        rng = random.Random(12)
        words = list(sequences("123", 6))
        rng.shuffle(words)
        stream = words[:300] + ["", "3211", "321", "32", "3", "3211"] + words[:40]
        stream += [tuple(w) for w in words[:60]] + words[60:80]
        stream += [[[int(c)] for c in w] for w in words[:60]]
        stream += [tuple([int(c)] for c in w) for w in words[:60]]
        stream += [list(w) for w in ("3121", "312", "3121", "", "31212")]
        got = list(each_all_k(stream))
        assert len(got) == len(stream)
        for (xs, everything), sent in zip(got, stream):
            assert xs is sent
            assert everything == brute_all_k(xs)
            assert all(type(best) is type(xs) for best in everything)

    def test_empty_stream(self):
        assert list(each_all_k([])) == []
