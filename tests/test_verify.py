import re

import pytest

import dropk.greedy
import dropk.verify
from dropk.greedy_condition import VerifyReport, verify_greedy_condition
from dropk.verify import equivalence_sweep, mono_aux_sweep


@pytest.mark.parametrize("sweep", [equivalence_sweep, verify_greedy_condition, mono_aux_sweep])
def test_empty_alphabet_raises(sweep):
    # a sweep over no tokens, or over no lengths, checks nothing, so it
    # must not pass
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        sweep(3, "")
    shortest = 0 if sweep is equivalence_sweep else 1
    with pytest.raises(ValueError, match="max_len must be >= "):
        sweep(shortest - 1, "12")


def test_a_sweep_over_no_lengths_raises():
    with pytest.raises(ValueError, match="max_len must be >= min_len"):
        equivalence_sweep(3, "12", 4)


BROKEN_STEPS = [
    lambda xs: xs[:-1],  # deletes the last element instead of the foot
    lambda xs: xs[2:],  # deletes two: lands outside the shorter rows, must report
    lambda xs: xs[1:] + xs[:1],  # deletes none: lands on a row of its own length, must report
]


@pytest.mark.parametrize("step", BROKEN_STEPS)
def test_greedy_column_runs_the_real_greedy_step(monkeypatch, step):
    # every greedy row starts with solve_greedy(1, ·), so a broken greedy
    # step must show up in the greedy column alone
    monkeypatch.setattr(dropk.greedy, "gstep", step)
    report = equivalence_sweep(4, "123")
    # mismatches by how many elements the broken step deletes
    assert report.violations == {0: 426, 1: 205, 2: 371}[4 - len(step("1234"))]
    naive, greedy, linear = re.fullmatch(
        r"xs=\S+ k=\d+: naive=(\S+) greedy=(\S+) linear=(\S+)", report.first_counterexample
    ).groups()
    assert naive == linear != greedy


@pytest.mark.parametrize("step", [None, *BROKEN_STEPS])
@pytest.mark.parametrize("max_len, alphabet", [(5, "123"), (4, (3, 1, 2))])
def test_the_longest_length_and_the_shorter_ones_add_up(monkeypatch, step, max_len, alphabet):
    # dropk verify sweeps the longest length and the shorter ones apart
    # and adds the two reports up, the shorter part's first mismatch first
    if step is not None:
        monkeypatch.setattr(dropk.greedy, "gstep", step)
    whole = equivalence_sweep(max_len, alphabet)
    shorter = equivalence_sweep(max_len - 1, alphabet)
    longest = equivalence_sweep(max_len, alphabet, max_len)
    assert shorter.cases + longest.cases == whole.cases
    assert shorter.violations + longest.violations == whole.violations
    assert (shorter.first_counterexample is None) == (step is None)
    assert whole.first_counterexample == (shorter.first_counterexample
                                          or longest.first_counterexample)


@pytest.mark.parametrize("min_len", [0, 1, 5, 6])
def test_greedy_column_takes_one_step_per_sequence(monkeypatch, min_len):
    # row k of gstep(xs) is row k + 1 of xs, so each nonempty sequence
    # costs one greedy step: 3 + 9 + ... + 729 calls, not one per k, and
    # the rows below min_len take theirs too, uncompared
    calls = 0
    real = dropk.verify.solve_greedy

    def counted(k, xs):
        nonlocal calls
        calls += 1
        return real(k, xs)

    monkeypatch.setattr(dropk.verify, "solve_greedy", counted)
    cases = sum(3**n * (n + 1) for n in range(min_len, 7))
    assert equivalence_sweep(6, "123", min_len) == VerifyReport(cases, 0, 0, None)
    assert calls == 1092


def test_mono_aux_sweep_counts_no_maxima():
    assert mono_aux_sweep(4, "123") == VerifyReport(240, 0, 0, None)


@pytest.mark.parametrize("max_len, alphabet", [
    (6, (3, 1, 2)),  # tuple keys in the greedy rows
    (5, "a\u00e9\U0001f600"),  # the scan's UTF-32 path
])
def test_equivalence_sweep_beyond_latin_1_strings(max_len, alphabet):
    report = equivalence_sweep(max_len, alphabet)
    assert report.violations == 0
    assert report.cases == sum(3**n * (n + 1) for n in range(max_len + 1))
