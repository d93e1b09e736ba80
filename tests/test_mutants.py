"""The mutant list of tests/mutants.py still applies to the checkout."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("number", range(1, len(MUTANTS) + 1))
def test_old_text_occurs_once(number):
    mutant = MUTANTS[number - 1]
    text = Path(ROOT, mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
