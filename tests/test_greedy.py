import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_sequences, is_foot
from dropk.core import drops, lex_le, max_lex
from dropk.greedy import better_global_counterexample, gstep, hill_foot, solve_greedy
from dropk.oracle import solve_naive_all_k

digit_strings = st.text(alphabet="0123456789", min_size=1, max_size=30)


class TestHillFoot:
    def test_worked_example(self):
        assert hill_foot("8766678") == 4

    def test_singleton(self):
        assert hill_foot("5") == 0

    def test_immediate_rise(self):
        assert hill_foot("19") == 0

    def test_fully_descending(self):
        assert hill_foot("3321") == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            hill_foot("")

    def test_index_invariants(self):
        for xs in all_sequences("abc", 6, 1):
            assert is_foot(xs, hill_foot(xs))


class TestGstep:
    def test_worked_example(self):
        assert gstep("8766678") == "876678"

    def test_singleton(self):
        assert gstep("x") == ""

    def test_small_counterexample_source(self):
        assert gstep("1934") == "934"

    def test_equal_elements_keep_scanning(self):
        # the foot sits after a run of equal elements, so the last one goes
        assert gstep("66") == "6"
        assert gstep("661") == "66"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gstep("")

    def test_is_best_single_drop_exhaustively(self):
        for xs in all_sequences("abc", 7, 1):
            assert gstep(xs) == max_lex(drops(xs))

    @given(digit_strings)
    def test_is_best_single_drop_random(self, xs):
        assert gstep(xs) == max_lex(drops(xs))

    def test_matches_foot_deletion(self):
        for xs in all_sequences("abc", 6, 1):
            i = hill_foot(xs)
            assert gstep(xs) == xs[:i] + xs[i + 1 :]

    def test_membership_and_domination(self):
        for xs in all_sequences("abc", 6, 1):
            out = gstep(xs)
            candidates = drops(xs)
            assert out in candidates
            assert all(lex_le(c, out) for c in candidates)

    def test_tail_never_beats_the_step(self):
        # pushing any element on the front cannot make the best drop
        # fall below the old sequence
        for xs in all_sequences("abc", 5, 1):
            for y in "abc":
                assert lex_le(xs, gstep(y + xs))

    def test_preserves_sequence_kind(self):
        assert gstep((8, 7, 6, 6, 6, 7, 8)) == (8, 7, 6, 6, 7, 8)
        assert gstep([1, 9]) == [9]


class TestSolveGreedy:
    def test_worked_example(self):
        assert solve_greedy(3, "6782334") == "8334"

    def test_zero_deletions(self):
        assert solve_greedy(0, "987") == "987"

    def test_descending_input_drops_the_tail(self):
        assert solve_greedy(2, "987") == "9"

    def test_delete_everything(self):
        assert solve_greedy(3, "987") == ""

    def test_too_many_deletions(self):
        with pytest.raises(ValueError, match="cannot drop more"):
            solve_greedy(4, "987")

    def test_agrees_with_exhaustive_search(self):
        for xs in all_sequences("abc", 6):
            expected = solve_naive_all_k(xs)
            for k in range(len(xs) + 1):
                assert solve_greedy(k, xs) == expected[k]


class TestBetterGlobalPrinciple:
    def test_fails_on_the_known_pair(self):
        xs, ys = "1934", "4234"
        assert lex_le(xs, ys) and xs != ys
        assert "934" in drops(xs)
        assert max_lex(drops(ys)) == "434"
        assert not lex_le("934", "434")
        assert better_global_counterexample(xs, ys) == "934"

    def test_no_single_drop_of_ys_suffices(self):
        assert all(not lex_le("934", zs) for zs in drops("4234"))

    def test_holds_on_a_benign_pair(self):
        assert better_global_counterexample("11", "99") is None

    def test_premise_is_enforced(self):
        with pytest.raises(ValueError, match="premise"):
            better_global_counterexample("9", "1")

    def test_shared_source_does_not_help(self):
        # both members of the failing pair come from the same sequence by
        # deleting two elements, so restricting to a common source
        # preserves the failure
        from conftest import deleted_subsequences

        reachable = deleted_subsequences("194234", 2)
        assert "1934" in reachable and "4234" in reachable
