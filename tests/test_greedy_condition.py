import math
import time

import pytest

import dropk.greedy_condition
from conftest import all_sequences, is_foot
from dropk.core import grow_rows, lex_le, sequences
from dropk.greedy import gstep
from dropk.greedy_condition import (
    DEL,
    KEEP,
    DelPlan,
    FootWitness,
    VerifyReport,
    _double_row,
    _game_table,
    alter,
    apply_plan,
    check_mono,
    check_mono_aux,
    check_unfoot,
    delfoot,
    enumerate_plans,
    foot_witness,
    verify_greedy_condition,
)

plan = DelPlan.from_string


def delete_any(p):
    """One deletion fewer over a one-shorter target.

    Any placement satisfies the caller, so the deletions land on the
    leftmost positions.
    """
    if p.deletions == 0:
        raise ValueError("plan must delete at least one element")
    n = p.base_length - 1
    return DelPlan(tuple(i < p.deletions - 1 for i in range(n)))


def alter_recursive(actions, foot):
    """The clause-by-clause recursive form of ``alter``'s walk, kept as
    an oracle for the library's non-recursive one."""
    if actions[0] == KEEP:
        if foot == 0:
            rest = delete_any(DelPlan(actions[1:]))
            return (DEL, KEEP) + rest.actions
        return (KEEP,) + alter_recursive(actions[1:], foot - 1)
    if len(actions) == 1:
        return (DEL,)
    if foot == 0:
        return actions
    if sum(actions[1:]) == 0:
        return (KEEP,) + tuple(j == foot - 1 for j in range(len(actions) - 1))
    return (DEL,) + alter_recursive(actions[1:], foot - 1)


def loop_verify_greedy_condition(max_len, alphabet):
    """The per-round loop that the table game replaced, kept as its
    oracle.  It plays each round through ``_alter``, looked up at call
    time, and :func:`apply_plan`, so it sees a patched rewrite too."""
    cases = maxima_checks = violations = 0
    first = None
    for n in range(1, max_len + 1):
        actions_by_count = [[p.actions for p in enumerate_plans(d, n)] for d in range(n + 1)]
        for xs in sequences(alphabet, n, n):
            foot = dropk.greedy_condition.foot_witness(xs).index
            for d in range(1, n + 1):
                best_any = best_foot = None
                for actions in actions_by_count[d]:
                    altered = dropk.greedy_condition._alter(actions, foot)
                    adversary = apply_plan(xs, DelPlan(actions))
                    ours = apply_plan(xs, DelPlan(altered))
                    cases += 1
                    if not (lex_le(adversary, ours) and altered[foot] and sum(altered) == d):
                        violations += 1
                        if first is None:
                            first = f"xs={xs!r} plan={DelPlan(actions)} altered={DelPlan(altered)}"
                    if best_any is None or not lex_le(adversary, best_any):
                        best_any = adversary
                    if actions[foot] and (best_foot is None or not lex_le(adversary, best_foot)):
                        best_foot = adversary
                maxima_checks += 1
                if not lex_le(best_any, best_foot):
                    violations += 1
                    if first is None:
                        first = (f"xs={xs!r} d={d} best={best_any!r} "
                                 f"foot-deleting best={best_foot!r}")
    return VerifyReport(cases, maxima_checks, violations, first)


def identity_rewrite(real):
    """Never touches the plan, so a kept foot stays kept."""
    return lambda actions, foot: actions


def lossy_rewrite(real):
    """The real rewrite with its first deletion off the foot turned into
    a keep: it deletes the foot and never loses on value, but drops a
    deletion."""
    def lossy(actions, foot):
        out = list(real(actions, foot))
        lost = next((i for i, a in enumerate(out) if a and i != foot), None)
        if lost is not None:
            out[lost] = KEEP
        return tuple(out)
    return lossy


def listed_rewrite(real):
    """The real rewrite handed back as a list: the same positions, so
    it wins every round."""
    return lambda actions, foot: list(real(actions, foot))


def lossy_listed_rewrite(real):
    """:func:`lossy_rewrite` handed back as a list."""
    lossy = lossy_rewrite(real)
    return lambda actions, foot: list(lossy(actions, foot))


class TestDelPlan:
    def test_roundtrip(self):
        p = plan("kdkdk")
        assert p.actions == (KEEP, DEL, KEEP, DEL, KEEP)
        assert str(p) == "kdkdk"
        assert p.base_length == 5
        assert p.deletions == 2

    def test_deleting_constructor(self):
        assert DelPlan.deleting(5, [1, 3]) == plan("kdkdk")
        with pytest.raises(ValueError):
            DelPlan.deleting(3, [3])

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            plan("kxk")


class TestApplyPlan:
    def test_worked_example(self):
        assert apply_plan("abcde", plan("kdkdk")) == "ace"

    def test_all_keep(self):
        assert apply_plan("abc", plan("kkk")) == "abc"

    def test_single_deletion(self):
        assert apply_plan("19", plan("dk")) == "9"

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="different length"):
            apply_plan("abc", plan("kk"))

    def test_one_deletion_on_long_tuple_and_list(self):
        # must stay linear in the length on tuples and lists, where
        # concatenation copies the whole result each time
        n, i = 100_000, 50_000
        p = DelPlan.deleting(n, [i])
        for xs in (tuple(range(n)), list(range(n))):
            start = time.perf_counter()
            got = apply_plan(xs, p)
            wall = time.perf_counter() - start
            assert got == xs[:i] + xs[i + 1 :]
            assert wall < 1.0, f"wall={wall:.3f}s"

    def test_result_length(self):
        xs = "abcdef"
        for d in range(len(xs) + 1):
            for p in enumerate_plans(d, len(xs)):
                assert len(apply_plan(xs, p)) == len(xs) - p.deletions


class TestFootWitness:
    def test_worked_example(self):
        w = foot_witness("8766678")
        assert w == FootWitness(index=4, target_length=7)
        assert w.valid_for("8766678")

    def test_singleton(self):
        assert foot_witness("z") == FootWitness(0, 1)

    def test_descending(self):
        assert foot_witness("3321") == FootWitness(3, 4)

    def test_validity_rejects_wrong_claims(self):
        assert not FootWitness(0, 7).valid_for("8766678")  # before the foot
        assert not FootWitness(5, 7).valid_for("8766678")  # past the foot
        assert not FootWitness(4, 6).valid_for("8766678")  # wrong length
        assert not FootWitness(9, 7).valid_for("8766678")  # out of range
        assert not FootWitness(7, 7).valid_for("8766678")  # one past the end
        assert not FootWitness(3, 3).valid_for("321")  # one past a descent
        assert not FootWitness(0, 3).valid_for("112")  # an equal neighbour follows

    def test_valid_exactly_when_the_clauses_hold(self):
        # every claim on every sequence, the empty one included, with
        # indices just outside it and a length one too long
        for xs in all_sequences("abc", 6):
            n = len(xs)
            for i in range(-1, n + 1):
                for t in (n, n + 1):
                    assert FootWitness(i, t).valid_for(xs) == (t == n and is_foot(xs, i))


class TestDelfoot:
    def test_examples(self):
        assert delfoot(FootWitness(4, 7)) == plan("kkkkdkk")
        assert delfoot(FootWitness(0, 1)) == plan("d")
        assert delfoot(FootWitness(2, 3)) == plan("kkd")

    def test_recovers_the_greedy_step(self):
        for xs in all_sequences("abc", 5, 1):
            assert apply_plan(xs, delfoot(foot_witness(xs))) == gstep(xs)


class TestDeleteAny:
    def test_one_deletion_becomes_none(self):
        assert delete_any(plan("dk")) == plan("k")

    def test_two_become_one_up_front(self):
        assert delete_any(plan("dkdk")) == plan("dkk")

    def test_three_of_three(self):
        assert delete_any(plan("ddd")) == plan("dd")

    def test_counts(self):
        out = delete_any(plan("kdkdk"))
        assert out.base_length == 4 and out.deletions == 1

    def test_needs_a_deletion(self):
        with pytest.raises(ValueError):
            delete_any(plan("kkk"))


class TestAlter:
    def test_opponent_keeps_the_foot(self):
        # "19": foot at 0, opponent deletes the 9 instead
        out = alter(plan("kd"), foot_witness("19"))
        assert out == plan("dk")
        assert lex_le(apply_plan("19", plan("kd")), apply_plan("19", out))

    def test_opponent_spent_last_deletion_early(self):
        # "91": descending, foot at 1; opponent deleted the 9 up front
        out = alter(plan("dk"), foot_witness("91"))
        assert out == plan("kd")
        assert apply_plan("91", out) == "9"

    def test_same_shape_on_another_pair(self):
        out = alter(plan("dk"), foot_witness("41"))
        assert out == plan("kd")
        assert apply_plan("41", out) == "4"
        assert lex_le(apply_plan("41", plan("dk")), "4")

    def test_plan_already_deleting_foot_is_unchanged(self):
        w = foot_witness("19")
        assert alter(plan("dk"), w) == plan("dk")
        assert alter(plan("dd"), w) == plan("dd")

    def test_sole_element(self):
        assert alter(plan("d"), foot_witness("z")) == plan("d")

    def test_preserves_deletion_count(self):
        for xs in all_sequences("abc", 5, 1):
            w = foot_witness(xs)
            for d in range(1, len(xs) + 1):
                for p in enumerate_plans(d, len(xs)):
                    out = alter(p, w)
                    assert out.deletions == d
                    assert out.base_length == len(xs)

    def test_matches_recursive_form(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                for p in enumerate_plans(d, n):
                    for foot in range(n):
                        expected = alter_recursive(p.actions, foot)
                        assert alter(p, FootWitness(foot, n)).actions == expected

    def test_long_plans(self):
        # the recursive form hits the recursion limit near 3000 positions
        n = 5000
        # every deletion before the foot: the last one moves onto it
        early = DelPlan.deleting(n, [0, 10])
        assert alter(early, FootWitness(n - 1, n)) == DelPlan.deleting(n, [0, n - 1])
        # a kept foot takes a later deletion, which moves leftmost
        late = DelPlan.deleting(n, [n - 2, n - 1])
        out = alter(late, FootWitness(100, n))
        assert out == DelPlan.deleting(n, [100, 102])

    def test_guards(self):
        with pytest.raises(ValueError, match="different lengths"):
            alter(plan("dk"), FootWitness(0, 3))
        with pytest.raises(ValueError, match="out of range"):
            alter(plan("dk"), FootWitness(2, 2))
        with pytest.raises(ValueError, match="out of range"):
            alter(plan("dk"), FootWitness(-1, 2))
        with pytest.raises(ValueError, match="at least one"):
            alter(plan("kk"), FootWitness(0, 2))


class TestCheckers:
    def test_mono_and_unfoot_example(self):
        w = foot_witness("19")
        # the opponent keeps the foot '1'; the rewrite deletes it instead
        assert apply_plan("19", plan("kd")) == "1"
        assert apply_plan("19", alter(plan("kd"), w)) == "9"
        assert check_mono("19", plan("kd"), w)
        assert check_unfoot("19", plan("kd"), w)

    def test_plan_deleting_foot_is_trivially_fine(self):
        w = foot_witness("19")
        assert check_mono("19", plan("dk"), w)
        assert check_unfoot("19", plan("dk"), w)

    def test_a_losing_rewrite_fails_the_checks(self, monkeypatch):
        w = foot_witness("19")
        real = dropk.greedy_condition._alter
        monkeypatch.setattr(dropk.greedy_condition, "_alter", identity_rewrite(real))
        # the opponent's plan kept the foot, and so does its rewrite
        assert check_unfoot("19", plan("kd"), w) is False
        monkeypatch.setattr(dropk.greedy_condition, "_alter", lambda a, f: a[::-1])
        # "dk" turns into "kd": "1" is smaller than the opponent's "9"
        assert check_mono("19", plan("dk"), w) is False

    def test_invalid_witness_rejected(self):
        # the foot of "19" is index 0, and of "91" index 1
        with pytest.raises(ValueError, match="witness"):
            check_mono("19", plan("kd"), FootWitness(1, 2))
        with pytest.raises(ValueError, match="witness"):
            check_unfoot("19", plan("kd"), FootWitness(1, 2))
        with pytest.raises(ValueError, match="witness"):
            check_mono_aux("9", "91", FootWitness(0, 2))

    @pytest.mark.parametrize("checker", [check_mono, check_unfoot])
    def test_plan_of_wrong_length_rejected(self, checker):
        with pytest.raises(ValueError, match="different lengths"):
            checker("19", plan("kdk"), foot_witness("19"))

    @pytest.mark.parametrize("checker", [check_mono, check_unfoot])
    def test_plan_without_deletions_rejected(self, checker):
        with pytest.raises(ValueError, match="at least one"):
            checker("19", plan("kk"), foot_witness("19"))


class TestCheckMonoAux:
    def test_examples(self):
        assert check_mono_aux("9", "91", foot_witness("91"))
        assert check_mono_aux("5", "5", foot_witness("5"))

    def test_precondition(self):
        with pytest.raises(ValueError, match=">="):
            check_mono_aux("1", "91", foot_witness("91"))
        with pytest.raises(ValueError, match="tail must be nonempty"):
            check_mono_aux("1", "", FootWitness(0, 0))

    def test_sweep(self):
        for tail in all_sequences("abc", 4, 1):
            w = foot_witness(tail)
            for x in "abc":
                if x >= tail[0]:
                    assert check_mono_aux(x, tail, w)


class TestEnumeratePlans:
    def test_tiny_cases(self):
        assert set(enumerate_plans(1, 2)) == {plan("dk"), plan("kd")}
        assert enumerate_plans(0, 3) == [plan("kkk")]
        assert len(enumerate_plans(2, 5)) == 10

    def test_counts_and_distinctness(self):
        for n in range(7):
            for k in range(n + 1):
                plans = enumerate_plans(k, n)
                assert len(plans) == math.comb(n, k)
                assert len(set(plans)) == len(plans)
                assert all(p.deletions == k and p.base_length == n for p in plans)

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_plans(3, 2)
        for k, n in [(-1, 3), (2, -1)]:
            with pytest.raises(ValueError, match="counts must be >= 0"):
                enumerate_plans(k, n)


class TestVerifyGreedyCondition:
    def test_two_token_sweep_is_clean(self):
        report = verify_greedy_condition(4, "ab")
        assert report.violations == 0
        assert report.first_counterexample is None
        assert report.cases == sum(2**n * (2**n - 1) for n in range(1, 5))
        assert report.maxima_checks == sum(2**n * n for n in range(1, 5))

    def test_single_token_single_length(self):
        report = verify_greedy_condition(1, "a")
        assert report.cases == 1
        assert report.violations == 0

    @pytest.mark.parametrize(
        "rewrite",
        [None, identity_rewrite, lossy_rewrite, listed_rewrite, lossy_listed_rewrite],
        ids=["real", "identity", "lossy", "listed", "lossy-listed"])
    @pytest.mark.parametrize("alphabet, max_len", [
        ("123", 5), ("1234", 5), ((3, 1, 2), 4), ([2, 1], 4),
    ])
    def test_table_matches_round_loop(self, monkeypatch, rewrite, alphabet, max_len):
        if rewrite is not None:
            real = dropk.greedy_condition._alter
            monkeypatch.setattr(dropk.greedy_condition, "_alter", rewrite(real))
        got = verify_greedy_condition(max_len, alphabet)
        assert got == loop_verify_greedy_condition(max_len, alphabet)
        assert (got.violations == 0) == (rewrite in (None, listed_rewrite))

    @pytest.mark.parametrize("alphabet", ["123", (3, 1, 2)])
    def test_table_matches_round_loop_on_a_wrong_foot(self, monkeypatch, alphabet):
        # claiming position 0 as the foot fails maxima checks too, which
        # no rewrite can do
        monkeypatch.setattr(dropk.greedy_condition, "foot_witness",
                            lambda xs: FootWitness(0, len(xs)))
        got = verify_greedy_condition(4, alphabet)
        assert got == loop_verify_greedy_condition(4, alphabet)
        assert got.violations > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_short_rows_keep_zero_or_one(self, n):
        # every index agrees with apply_plan, so d = n keeps nothing and
        # d = n - 1 keeps one position; distinct elements make each
        # result name its plan, so the rounds must come in plan order
        table = _game_table(n)
        assert len(table) == n
        for xs, subs in grow_rows(["31425"[:n], tuple(range(n))], _double_row):
            for foot, rows in enumerate(table):
                assert len(rows) == n
                for d, (rounds, kept, deletes_foot) in enumerate(rows, 1):
                    plans = enumerate_plans(d, n)
                    assert len(rounds) == len(plans)
                    for p, (theirs, ours) in zip(plans, rounds):
                        assert subs[theirs] == apply_plan(xs, p)
                        assert subs[ours] == apply_plan(xs, alter(p, FootWitness(foot, n)))
                        assert len(subs[theirs]) == len(subs[ours]) == n - d
                    assert kept == [theirs for theirs, _ in rounds]
                    assert deletes_foot == [theirs for p, (theirs, _) in zip(plans, rounds)
                                            if p.actions[foot]]

    @pytest.mark.parametrize("stream", [
        ["31425", "31452", "52413", ""],
        [(0, 1, 2), (2, 1, 0), (2, 1), (2, 1, 0, 3)],
        ["ab", ("a", "b"), ["a", "b"], ["a", "c"]],
    ], ids=["str", "tuple", "mixed"])
    def test_subsequences_follow_the_kept_bits(self, stream):
        # bit i of the index keeps position i, after a neighbour that
        # shares a prefix, one that shares none and one of another kind
        seen = []
        for xs, subs in grow_rows(stream, _double_row):
            seen.append(xs)
            n = len(xs)
            assert len(subs) == 2**n
            for d in range(n + 1):
                for p in enumerate_plans(d, n):
                    index = sum(1 << i for i, a in enumerate(p.actions) if a == KEEP)
                    assert subs[index] == apply_plan(xs, p)
                    assert type(subs[index]) is type(xs)
        assert seen == stream

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_greedy_condition(0, "ab")
        with pytest.raises(ValueError):
            verify_greedy_condition(3, "")
