import re

import pytest

import dropk.greedy
from dropk.greedy_condition import verify_greedy_condition
from dropk.verify import equivalence_sweep, mono_aux_sweep


@pytest.mark.parametrize("sweep", [equivalence_sweep, verify_greedy_condition, mono_aux_sweep])
def test_empty_alphabet_raises(sweep):
    # a sweep over no tokens checks nothing, so it must not pass
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        sweep(3, "")


@pytest.mark.parametrize("step", [
    lambda xs: xs[:-1],  # deletes the last element instead of the foot
    lambda xs: xs[2:],  # deletes two: the cascade must report, not raise
])
def test_greedy_column_runs_the_real_greedy_step(monkeypatch, step):
    # the sweep cascades through solve_greedy(1, ·), so a broken greedy
    # step must show up in the greedy column alone
    monkeypatch.setattr(dropk.greedy, "gstep", step)
    report = equivalence_sweep(4, "123")
    assert report.violations > 0
    naive, greedy, linear = re.fullmatch(
        r"xs=\S+ k=\d+: naive=(\S+) greedy=(\S+) linear=(\S+)", report.first_counterexample
    ).groups()
    assert naive == linear != greedy
