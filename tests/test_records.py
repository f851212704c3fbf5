"""The plain records: equal fields make equal, equally hashed records,
the repr names every field, and no field can be reassigned."""

import pytest

from dropk.greedy_condition import DelPlan, foot_witness, verify_greedy_condition
from dropk.linear import scan_events

# (name, a factory of one record, the fields it shows in order, a factory
# of a record that differs in some field)
RECORDS = [
    ("DelPlan", lambda: DelPlan.from_string("kdk"), ["actions"],
     lambda: DelPlan.from_string("kkd")),
    ("FootWitness", lambda: foot_witness("8766678"), ["index", "target_length"],
     lambda: foot_witness("87")),
    ("ScanEvent", lambda: next(scan_events(1, "19")),
     ["action", "element", "k", "index", "depth"],
     lambda: next(scan_events(1, "91"))),
    ("VerifyReport", lambda: verify_greedy_condition(2, "ab"),
     ["cases", "maxima_checks", "violations", "first_counterexample"],
     lambda: verify_greedy_condition(3, "ab")),
]


@pytest.mark.parametrize("name, make, fields, make_other", RECORDS,
                         ids=[r[0] for r in RECORDS])
def test_record_contract(name, make, fields, make_other):
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert record != make_other()

    text = repr(record)
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert text.startswith(f"{name}(") and text.endswith(shown + ")")

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
