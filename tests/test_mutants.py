"""Every row of the mutant table still points at one place in the code and
at tests that exist; `python3 tests/mutants.py` runs the mutants."""

import re

import pytest

import mutants


def test_row_names_are_unique():
    assert len(mutants.BY_NAME) == len(mutants.ROWS)


@pytest.mark.parametrize("row", mutants.ROWS, ids=[row.name for row in mutants.ROWS])
def test_row_mutates_one_place_and_names_existing_tests(row):
    text = (mutants.ROOT / row.path).read_text()
    assert text.count(row.source) == 1
    assert mutants.mutate(text, row) != text
    assert row.tests
    for test in row.tests:
        path, *names = test.split("::")
        source = (mutants.ROOT / path).read_text()
        *classes, function = names
        for name in classes:
            assert re.search(rf"^class {name}\b", source, re.M), test
        assert re.search(rf"^\s*def {function.split('[')[0]}\(", source, re.M), test
