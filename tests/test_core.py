from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dropk
from conftest import MIXED_CHARS, all_sequences
from dropk.core import drops, lex_le, max_lex, sequences
from dropk.greedy import solve_greedy
from dropk.linear import count_steps, scan_events, solve_linear
from dropk.oracle import solve_naive

token_tuples = st.lists(st.integers(0, 4), max_size=8).map(tuple)


def loop_lex_le(a, b):
    """Reference order, written out with only ``<`` on elements: the
    empty sequence is below everything, a strictly smaller head decides,
    equal heads defer to the tails."""
    for x, y in zip(a, b):
        if x < y:
            return True
        if y < x:
            return False
    return len(a) <= len(b)


def assert_orders_agree(pairs):
    for a, b in pairs:
        for kind in (str, tuple):
            u, v = kind(a), kind(b)
            assert lex_le(u, v) == loop_lex_le(u, v), (u, v)


class TestLexLe:
    def test_empty_below_everything(self):
        assert lex_le("", "4234")
        assert lex_le("", "")
        assert not lex_le("a", "")

    def test_smaller_head_decides(self):
        assert lex_le("1934", "4234")
        assert not lex_le("4234", "1934")

    def test_reflexive(self):
        assert lex_le("876", "876")

    def test_prefix_below_extension(self):
        assert lex_le("87", "875")
        assert not lex_le("875", "87")

    def test_matches_builtin_comparison_exhaustively(self):
        universe = list(all_sequences("abc", 6))
        for a in universe:
            for b in universe:
                assert lex_le(a, b) == (a <= b), (a, b)

    def test_totality_and_antisymmetry_small(self):
        universe = list(all_sequences("abc", 4))
        for a in universe:
            for b in universe:
                ab, ba = lex_le(a, b), lex_le(b, a)
                assert ab or ba
                assert (ab and ba) == (a == b)

    def test_transitivity_small(self):
        universe = list(all_sequences("ab", 3))
        for a, b, c in product(universe, repeat=3):
            if lex_le(a, b) and lex_le(b, c):
                assert lex_le(a, c)

    @given(token_tuples, token_tuples, token_tuples)
    def test_transitivity_random(self, a, b, c):
        if lex_le(a, b) and lex_le(b, c):
            assert lex_le(a, c)

    @given(token_tuples, token_tuples)
    def test_total_order_random(self, a, b):
        assert lex_le(a, b) or lex_le(b, a)
        assert (lex_le(a, b) and lex_le(b, a)) == (a == b)


class TestAgreesWithTheLoop:
    def test_equal_lengths_up_to_six(self):
        # the exchange game compares results of length at most 6
        for n in range(7):
            same_length = list(all_sequences("123", n, n))
            assert_orders_agree(product(same_length, repeat=2))

    def test_all_lengths_up_to_four(self):
        assert_orders_agree(product(all_sequences("123", 4), repeat=2))

    def test_beyond_latin1(self):
        assert_orders_agree(product(all_sequences("a\u00e9\U0001f600\ud800", 4), repeat=2))

    @given(
        st.text(alphabet=st.sampled_from(MIXED_CHARS), max_size=8),
        st.text(alphabet=st.sampled_from(MIXED_CHARS), max_size=8),
        st.sampled_from((str, tuple, list)),
    )
    def test_mixed_characters_random(self, a, b, kind):
        u, v = kind(a), kind(b)
        assert lex_le(u, v) == loop_lex_le(u, v)

    def test_different_kinds_raise(self):
        with pytest.raises(TypeError):
            lex_le("12", ("1", "2"))


class TestMaxLex:
    def test_picks_largest(self):
        assert max_lex(["934", "134", "194", "193"]) == "934"

    def test_singleton(self):
        assert max_lex(["x"]) == "x"

    def test_best_single_drop(self):
        assert max_lex(drops("4234")) == "434"

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty candidate set"):
            max_lex([])

    def test_first_occurrence_wins_ties(self):
        first, second = [1, 2], [1, 2]
        assert max_lex([first, second]) is first

    def test_membership_and_domination(self):
        for xs in all_sequences("abc", 5, 1):
            candidates = drops(xs)
            best = max_lex(candidates)
            assert best in candidates
            assert all(lex_le(c, best) for c in candidates)


class TestDrops:
    def test_four_letters(self):
        assert drops("abcd") == ["bcd", "acd", "abd", "abc"]

    def test_singleton(self):
        assert drops("x") == [""]

    def test_two_digits(self):
        assert drops("19") == ["9", "1"]

    def test_preserves_sequence_kind(self):
        assert drops((1, 9)) == [(9,), (1,)]
        assert drops([1, 9]) == [[9], [1]]

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="drops undefined"):
            drops("")

    def test_counts_and_lengths(self):
        for xs in all_sequences("abc", 6, 1):
            out = drops(xs)
            assert len(out) == len(xs)
            assert all(len(entry) == len(xs) - 1 for entry in out)
            assert out == [xs[:i] + xs[i + 1 :] for i in range(len(xs))]


class TestSequences:
    def test_matches_the_product_enumeration(self):
        assert list(sequences("ba", 3)) == list(all_sequences("ab", 3))
        assert list(sequences("abc", 4, 2)) == list(all_sequences("abc", 4, 2))

    def test_repeated_tokens_count_once(self):
        assert list(sequences("aab", 1, 1)) == ["a", "b"]

    def test_non_string_alphabet_yields_tuples(self):
        assert list(sequences([2, 1], 2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestDeletionCountGuard:
    # a missing guard would not raise: the naive row read at index -1 is
    # the empty sequence, the greedy loop takes no step, and a scan whose
    # budget starts below zero never runs out
    @pytest.mark.parametrize("entry", [
        solve_naive, solve_greedy, solve_linear, count_steps,
        lambda k, xs: next(scan_events(k, xs)),
    ], ids=["solve_naive", "solve_greedy", "solve_linear", "count_steps", "scan_events"])
    def test_negative_k_rejected(self, entry):
        for xs in ("", "abc", (3, 1, 2), [3, 1, 2]):
            with pytest.raises(ValueError, match="must be >= 0"):
                entry(-1, xs)


def test_every_export_resolves():
    # a name left in __all__ after its object is gone breaks only
    # `from dropk import *`, which no other test runs
    namespace = {}
    exec("from dropk import *", namespace)
    assert set(dropk.__all__) <= namespace.keys()
