"""The mutant list stays applicable: each mutant's old text occurs exactly
once in its file, and its tests exist.  No mutant runs here; see
tests/run_mutants.py."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once(mutant):
    text = (ROOT / "src" / "qforge" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert f"def {name}(" in (ROOT / path).read_text(), node
