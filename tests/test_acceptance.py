"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion, or `alcove selftest` for the same checks from the command line.
"""

import time

import pytest

from alcove.acceptance import CRITERIA, UnknownCriteriaError, select_criteria

SEED = 7


@pytest.mark.parametrize("name,func", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, func):
    t0 = time.monotonic()
    try:
        detail = func(SEED)
    except AssertionError as exc:
        print(f"FAIL {name}: {exc}")
        raise
    print(f"PASS {name} ({time.monotonic() - t0:.2f}s): {detail}")


def test_select_by_name_or_number_in_suite_order():
    picked = select_criteria(["10-lie-structural", "3", "1"])
    assert [name for name, _ in picked] == ["1-su2-closed-form", "3-ring-axioms", "10-lie-structural"]
    assert select_criteria(None) == CRITERIA
    assert select_criteria(["3", "3-ring-axioms"]) == [CRITERIA[2]]


def test_select_unknown_names_raise_in_given_order():
    # blank names are dropped, not listed as unknown
    with pytest.raises(UnknownCriteriaError, match=r"^unknown criteria: 99, ring$"):
        select_criteria(["99", "1", "ring", ""])


def test_select_strips_names_and_refuses_a_list_that_names_none():
    assert select_criteria([" 3", "", "1 "]) == [CRITERIA[0], CRITERIA[2]]
    for names in ([], [""], [" ", ""]):
        with pytest.raises(UnknownCriteriaError, match=r"^no criterion named$"):
            select_criteria(names)
