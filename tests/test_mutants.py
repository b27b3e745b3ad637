"""The mutant table (tests/mutants.py) stays applicable as the code moves.
Running the mutants themselves is the table's own job, not tier 1's."""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutants_old_text_occurs_once_in_its_file(m):
    text = (ROOT / m.file).read_text()
    assert text.count(m.old) == 1
    assert m.new != m.old


def test_each_mutant_names_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.tests, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            func = re.sub(r"\[.*\]$", "", name)
            assert re.search(rf"^def {func}\(", (ROOT / path).read_text(), re.M), test
