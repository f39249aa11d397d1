"""The seeded-defect catalogue (``tests/mutants.py``) against the shipped tree.

Pure text, no copies and no subprocesses: every patch of every mutant must
anchor exactly once, so a refactor that moves code out from under a mutant
fails tier-1 instead of only the catalogue's CI run.  The checks each
mutant names are run by ``python -m tests.mutants``.
"""

import pytest

from tests.mutants import CATALOGUE, MUTANTS, ROOT, patched_sources


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda mutant: mutant.name)
def test_every_patch_anchors_once_on_the_shipped_tree(mutant):
    for patch in mutant.patches:
        shipped = (ROOT / patch.path).read_text(encoding="utf-8")
        assert shipped.count(patch.anchor) == 1, patch.path
        assert patch.replacement != patch.anchor
    for path, text in patched_sources(mutant).items():
        assert text != (ROOT / path).read_text(encoding="utf-8")


def test_names_are_unique_and_every_mutant_records_a_verdict():
    assert len(MUTANTS) == len(CATALOGUE)
    assert all(mutant.killers or mutant.misses for mutant in CATALOGUE)
