"""Every entry of the mutant register (`tests/mutants.py`) still applies:
its old text occurs exactly once in its file, and the tests it names
exist.  So a refactor that moves the code an entry breaks moves the entry
too.  Running the mutants is `python3 tests/mutants.py`, not Tier-1."""

from mutants import MUTANTS, ROOT


def test_every_mutant_applies_exactly_once():
    assert len(MUTANTS) >= 49
    assert [(m.file, m.old) for m in MUTANTS
            if (ROOT / m.file).read_text().count(m.old) != 1] == []
    missing = []
    for m in MUTANTS:
        assert m.reason and m.tests and m.old != m.new
        for test in m.tests:
            path, _, name = test.partition("::")
            if not (ROOT / path).is_file() or f"\ndef {name}(" not in (ROOT / path).read_text():
                missing.append(test)
    assert missing == []
