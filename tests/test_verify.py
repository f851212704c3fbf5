import pytest

from dropk.greedy_condition import verify_greedy_condition
from dropk.verify import equivalence_sweep, mono_aux_sweep


@pytest.mark.parametrize("sweep", [equivalence_sweep, verify_greedy_condition, mono_aux_sweep])
def test_empty_alphabet_raises(sweep):
    # a sweep over no tokens checks nothing, so it must not pass
    with pytest.raises(ValueError, match="alphabet must be nonempty"):
        sweep(3, "")
