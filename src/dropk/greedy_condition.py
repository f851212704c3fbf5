"""Deletion plans and the exchange game behind the greedy step.

``solve_greedy`` rests on one combinatorial fact: however an opponent
deletes d >= 1 elements of a sequence, the plan can be rewritten so that
it deletes the hill foot while producing a result at least as large.
This module makes that argument executable.  Plans are per-position
keep/delete instructions and ``alter`` is the rewriting strategy;
``check_mono`` and ``check_unfoot`` play one round through it.  A round
is won when the rewrite deletes the foot, keeps the opponent's deletion
count and gives a result no smaller.

``verify_greedy_condition`` plays every round up to a given length and
reports any violation instead of raising; its docstring says how.
"""

from __future__ import annotations

from itertools import combinations, compress
from operator import itemgetter, lt, not_
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

    A rewrite depends only on the plan and the foot, never on the
    sequence, so each length is played from a table built through
    ``_alter`` when the one :func:`dropk.core.sequences` stream reaches
    it: per foot, every plan's rewrite.  A sound rewrite is itself one
    of the d-deletion plans, so its result is already among the
    opponents' results.  Every subsequence of a sequence is grown once,
    as the sequence's own kind, by :func:`dropk.core.grow_rows`, from
    those of the prefix it shares with the sequence before.  A sequence
    then costs one pick of every plan's result, one pick of the sound
    rewrites' results, one ``sum(map(lt, ...))`` over all its rounds,
    and a max of all and of the foot-deleting results per d.  A rewrite
    that is not a plan of d deletions over the same length, or that
    keeps the foot, is left out of the pick: it loses on every sequence.
    """
    cases = maxima_checks = violations = n = 0
    first: str | None = None
    for xs, subs in grow_rows(sequences(alphabet, max_len, 1), _double_row):
        if len(xs) != n:
            n = len(xs)
            plans, pick, rows = _game_table(n)
        altered, sound, ours_get, maxima = rows[foot_witness(xs).index]
        adversary = pick(subs)
        ours = ours_get(adversary)
        cases += len(plans)
        maxima_checks += n
        lost = len(adversary) - len(ours) + sum(map(lt, ours, compress(adversary, sound)))
        if lost:
            violations += lost
            if first is None:
                # the first plan whose rewrite is unsound or loses on value
                ours_iter = iter(ours)
                i = next(i for i, ok in enumerate(sound)
                         if not ok or next(ours_iter) < adversary[i])
                first = f"xs={xs!r} plan={DelPlan(plans[i])} altered={DelPlan(altered[i])}"
        for span, deletes_foot in maxima:
            results = adversary[span]
            if max(compress(results, deletes_foot)) < max(results):
                # no message: a plan reaching the best keeps the foot, so
                # its rewrite, unsound or below the best, already lost above
                violations += 1
    return VerifyReport(cases, maxima_checks, violations, first)


def _getter(kept: tuple[int, ...]):
    """``xs -> tuple(xs[i] for i in kept)``.  ``itemgetter`` alone
    returns a bare element for one index and cannot take none."""
    if len(kept) > 1:
        return itemgetter(*kept)
    if kept:
        (i,) = kept
        return lambda xs: (xs[i],)
    return lambda xs: ()


def _double_row(row: list, c) -> list:
    """The subsequences of ``xs + c`` from those of ``xs``: each without
    ``c``, then each with it, so entry ``j`` of a sequence's full row
    keeps position i exactly when bit i of ``j`` is set."""
    return row + [r + c for r in row]


def _game_table(n: int) -> tuple:
    """Every round over length ``n`` with the sequence left out.

    The plans are those of every d >= 1 in order, d first, then
    :func:`enumerate_plans` order.  The table holds them, one ``pick``
    that takes every plan's result out of a sequence's subsequences, as
    :func:`_double_row` orders them, and, per foot: the rewrites, which
    rewrites are sound (a plan over length ``n`` with the opponent's
    deletion count that deletes the foot), one getter that picks the
    sound rewrites' results out of the opponents' results, and, per d,
    the slice of the d-deletion plans with which of them delete the foot.
    """
    groups = [[p.actions for p in enumerate_plans(d, n)] for d in range(1, n + 1)]
    plans = [actions for group in groups for actions in group]
    pick = _getter(tuple(sum(1 << i for i, a in enumerate(actions) if a == KEEP)
                         for actions in plans))
    index = {actions: i for i, actions in enumerate(plans)}
    spans, start = [], 0
    for group in groups:
        spans.append(slice(start, start + len(group)))
        start += len(group)
    rows = []
    for foot in range(n):
        # a rewrite is judged by its positions, whatever sequence kind
        # _alter hands back
        altered = [tuple(_alter(actions, foot)) for actions in plans]
        sound = bytes(a in index and sum(a) == sum(actions) and bool(a[foot])
                      for a, actions in zip(altered, plans))
        ours_get = _getter(tuple(index[a] for a, ok in zip(altered, sound) if ok))
        maxima = [(span, bytes(actions[foot] for actions in plans[span])) for span in spans]
        rows.append((altered, sound, ours_get, maxima))
    return plans, pick, rows
