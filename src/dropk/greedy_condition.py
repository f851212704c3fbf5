"""Deletion plans and the exchange game behind the greedy step.

``solve_greedy`` rests on one combinatorial fact: however an opponent
deletes d >= 1 elements of a sequence, the plan can be rewritten so that
it deletes the hill foot while producing a result at least as large.
This module makes that argument executable.  Plans are per-position
keep/delete instructions and ``alter`` is the rewriting strategy;
``check_mono`` and ``check_unfoot`` play one round through it.  A round
is won when the rewrite deletes the foot, keeps the opponent's deletion
count and gives a result no smaller.

``verify_greedy_condition`` plays every round up to a given length, as
one loop over a per-length table of rounds, and reports any violation
instead of raising.
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import itemgetter, not_
from typing import Iterable, NamedTuple, Sequence

from .core import grow_rows, lex_le, rebuild, sequences
from .greedy import hill_foot

KEEP = False
DEL = True


class DelPlan(NamedTuple):
    """Per-position deletion instructions for sequences of one length.

    ``actions[i]`` is :data:`DEL` when position ``i`` is to be removed.
    Plans render and parse as a string of ``k``/``d`` letters: "kdkdk"
    deletes positions 1 and 3 of a 5-element sequence.
    """

    actions: tuple[bool, ...]

    @classmethod
    def from_string(cls, text: str) -> DelPlan:
        if set(text) - {"k", "d"}:
            raise ValueError("plan letters must be 'k' or 'd'")
        return cls(tuple(c == "d" for c in text))

    @classmethod
    def deleting(cls, length: int, positions: Iterable[int]) -> DelPlan:
        marks = set(positions)
        if not all(0 <= p < length for p in marks):
            raise ValueError("deletion position out of range")
        return cls(tuple(i in marks for i in range(length)))

    @property
    def base_length(self) -> int:
        return len(self.actions)

    @property
    def deletions(self) -> int:
        return sum(self.actions)

    def __str__(self) -> str:
        return "".join("d" if a else "k" for a in self.actions)


class FootWitness(NamedTuple):
    """Checked claim that position ``index`` is the hill foot of a
    sequence of length ``target_length``."""

    index: int
    target_length: int

    def valid_for(self, xs: Sequence) -> bool:
        """Is ``xs`` nonempty, of the claimed length, and is the claimed
        index the one :func:`dropk.greedy.hill_foot` finds?"""
        return self.target_length == len(xs) > 0 and self.index == hill_foot(xs)


def foot_witness(xs: Sequence) -> FootWitness:
    """The canonical (always valid) witness for a nonempty sequence."""
    return FootWitness(hill_foot(xs), len(xs))


def apply_plan(xs, plan: DelPlan):
    """Carry out the instructions: drop the DEL positions, keep the rest."""
    if plan.base_length != len(xs):
        raise ValueError("plan targets a different length")
    return rebuild(xs, compress(xs, map(not_, plan.actions)))


def delfoot(witness: FootWitness) -> DelPlan:
    """The single-deletion plan that removes exactly the witnessed foot."""
    return DelPlan.deleting(witness.target_length, [witness.index])


def alter(plan: DelPlan, witness: FootWitness) -> DelPlan:
    """Rewrite the opponent's plan so it deletes the hill foot without
    ever producing a smaller result.

    Walking positions left to right: keeps before the foot are imitated;
    a keep AT the foot turns into a delete, with the freed deletion's
    neighbour kept and the remaining deletions placed anywhere; a delete
    at the foot means the plan already qualifies and is returned as is; a
    delete before the foot is imitated while further deletions remain,
    otherwise the last deletion must be saved for the foot, so this
    position is kept instead.  The deletion count is always preserved.
    """
    if plan.base_length != witness.target_length:
        raise ValueError("plan and witness target different lengths")
    if not 0 <= witness.index < plan.base_length:
        raise ValueError("witness index out of range")
    if plan.deletions == 0:
        raise ValueError("plan must delete at least one element")
    return DelPlan(_alter(plan.actions, witness.index))


def _alter(actions: tuple[bool, ...], foot: int) -> tuple[bool, ...]:
    # The walk of :func:`alter` in closed form, with no recursion: it
    # copies the plan up to the foot or up to the plan's last deletion,
    # whichever comes first, and rewrites the rest in one go.
    if actions[foot] == DEL:
        return actions
    n = len(actions)
    out = list(actions[:foot])
    after = sum(actions[foot + 1 :])
    if after:
        # the foot takes one of the later deletions, its neighbour is
        # kept and the others go leftmost
        out += (DEL, KEEP)
        out += (DEL,) * (after - 1)
        out += (KEEP,) * (n - foot - 1 - after)
        return tuple(out)
    # every deletion lies before the foot: the last one moves onto it
    last = foot - 1
    while out[last] == KEEP:
        last -= 1
    out[last:] = (KEEP,) * (foot - last) + (DEL,) + (KEEP,) * (n - foot - 1)
    return tuple(out)


def _require_witness(xs, witness: FootWitness) -> None:
    if not witness.valid_for(xs):
        raise ValueError("witness does not match the sequence")


def check_mono(xs, plan: DelPlan, witness: FootWitness) -> bool:
    """Does the rewritten plan produce a result no smaller than the
    opponent's?"""
    _require_witness(xs, witness)
    ours = alter(plan, witness)
    return lex_le(apply_plan(xs, plan), apply_plan(xs, ours))


def check_unfoot(xs, plan: DelPlan, witness: FootWitness) -> bool:
    """Does the rewritten plan delete the hill foot?"""
    _require_witness(xs, witness)
    return alter(plan, witness).actions[witness.index]


def check_mono_aux(x, tail, witness: FootWitness) -> bool:
    """With ``x`` at least the head of ``tail``: does prefixing ``x`` to
    the foot-deleted tail weakly dominate the tail itself?"""
    if len(tail) == 0:
        raise ValueError("tail must be nonempty")
    if x < tail[0]:
        raise ValueError("x must be >= the head of tail")
    _require_witness(tail, witness)
    return lex_le(tail, rebuild(tail, (x, *apply_plan(tail, delfoot(witness)))))


def enumerate_plans(k: int, n: int) -> list[DelPlan]:
    """All C(n, k) plans with ``k`` deletions over length ``n``."""
    if k < 0 or n < 0:
        raise ValueError("counts must be >= 0")
    if k > n:
        raise ValueError("cannot delete more positions than exist")
    return [DelPlan.deleting(n, marks) for marks in combinations(range(n), k)]


class VerifyReport(NamedTuple):
    """Tally of an exhaustive sweep: the cases checked, the violations
    found and the first counterexample.  ``maxima_checks`` counts the
    exchange game's extra comparisons of best plans; other sweeps have
    none."""

    cases: int
    maxima_checks: int
    violations: int
    first_counterexample: str | None


def verify_greedy_condition(max_len: int, alphabet) -> VerifyReport:
    """Play every round of the exchange game up to ``max_len``.

    For every sequence over ``alphabet``, every deletion count d >= 1
    and every d-deletion plan, the rewritten plan must delete the hill
    foot, keep all d deletions and weakly dominate the opponent's.  The
    best foot-deleting plan must also dominate the best unrestricted
    plan; those maxima come straight from the opponents' results, so a
    wrong rewrite cannot hide a broken claim.  Violations are counted,
    never raised; only an empty alphabet or ``max_len < 1`` raises
    ``ValueError``.

    Every subsequence of a sequence is grown once, as the sequence's own
    kind, by :func:`dropk.core.grow_rows`, and :func:`_game_table` gives
    the rounds of its length and foot as indices into them, so a round
    is two lookups and a comparison.  A plan that already deletes the
    foot is its own rewrite, a tie on every sequence, so the table
    settles those rounds and only counts them; the maxima are read
    through the table's getters, one C call per set of results.  The
    rounds run d by d, each d in :func:`enumerate_plans` order and
    closed by its maxima check, so the first round lost is the first
    counterexample.
    """
    cases = maxima_checks = violations = n = 0
    first: str | None = None
    for xs, subs in grow_rows(sequences(alphabet, max_len, 1), _double_row):
        if len(xs) != n:
            n = len(xs)
            table = _game_table(n)
        foot = foot_witness(xs).index
        maxima_checks += n
        for plans, rounds, results, foot_results in table[foot]:
            cases += plans
            for theirs, ours in rounds:
                if ours is None or subs[ours] < subs[theirs]:
                    violations += 1
                    if first is None:
                        plan = DelPlan(tuple(not theirs >> i & 1 for i in range(n)))
                        altered = DelPlan(_alter(plan.actions, foot))
                        first = f"xs={xs!r} plan={plan} altered={altered}"
            if max(foot_results(subs)) < max(results(subs)):
                # no message: a plan reaching the best keeps the foot, so
                # its rewrite, unsound or below the best, already lost above
                violations += 1
    return VerifyReport(cases, maxima_checks, violations, first)


def _double_row(row: list, c) -> list:
    """The subsequences of ``xs + c`` from those of ``xs``: each without
    ``c``, then each with it, so entry ``j`` of a sequence's full row
    keeps position i exactly when bit i of ``j`` is set."""
    return row + [r + c for r in row]


def _game_table(n: int) -> list:
    """Every round over length ``n`` with the sequence left out.

    A plan, and its result, is named by its index into a sequence's
    subsequences as :func:`_double_row` orders them: the mask of the
    positions it keeps.  Per foot, then per d >= 1, the table holds the
    number of d-deletion plans; the rounds in :func:`enumerate_plans`
    order, each the plan's index and its rewrite's, with ``None`` for a
    rewrite that is not a plan over length ``n`` with d deletions that
    deletes the foot; then getters of the results of the d-deletion
    plans, shared by every foot, and of those deleting the foot.  A
    rewrite is judged by its positions, whatever sequence kind
    ``_alter`` hands back.  A round whose rewrite is its own plan, one
    that already deletes the foot, is sound and ties on every sequence,
    so it is settled here and left out of the rounds.
    """
    groups = [[p.actions for p in enumerate_plans(d, n)] for d in range(1, n + 1)]
    kept = {actions: sum(1 << i for i, a in enumerate(actions) if a == KEEP)
            for group in groups for actions in group}
    results = [_results([kept[actions] for actions in group]) for group in groups]
    table = []
    for foot in range(n):
        rows = []
        for d, (group, plans_results) in enumerate(zip(groups, results), 1):
            rounds = []
            for actions in group:
                a = tuple(_alter(actions, foot))
                sound = a in kept and sum(a) == d and a[foot]
                if sound and a == actions:
                    continue
                rounds.append((kept[actions], kept[a] if sound else None))
            deletes_foot = _results([kept[a] for a in group if a[foot]])
            rows.append((len(group), rounds, plans_results, deletes_foot))
        table.append(rows)
    return table


def _results(indices: list[int]):
    """A getter of the subsequences at ``indices`` as one tuple: the
    first index is listed twice, since a getter of one index returns the
    item itself, and the d = n group has one plan."""
    return itemgetter(indices[0], *indices)
