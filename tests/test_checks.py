import pytest

from modasc import checks

SMALL = checks.Caps(words=6)


def test_all_suites_pass_at_small_depth():
    results = checks.run_suite("all", SMALL)
    assert len(results) == sum(
        len(fns) for name, fns in checks.SUITES.items() if name != "all"
    )
    failing = [(r.tag, r.witness) for r in results if not r.passed]
    assert failing == []
    assert len({r.tag for r in results}) == len(results)


def test_named_suites_are_subsets():
    all_tags = {r.tag for r in checks.run_suite("all", SMALL)}
    for name in ("bijections", "transport", "equivalences", "identities"):
        tags = {r.tag for r in checks.run_suite(name, SMALL)}
        assert tags <= all_tags


def test_unknown_suite():
    with pytest.raises(ValueError):
        checks.run_suite("everything", SMALL)


def test_printed_sequences_check_returns_a_witness(broken_tables):
    witness = checks.check_printed_sequences(SMALL)
    assert witness == "221/modasc formula differs at n=8; quoted 1,1,2,5,14,44,155,607,2618"


def test_printed_sequences_check_asks_only_for_quoted_rows(monkeypatch):
    asked = []
    table_rows = checks.table_rows

    def spy(kinds, n_max, cap):
        asked.append(tuple(kinds))
        return table_rows(kinds, n_max, cap)

    monkeypatch.setattr(checks, "table_rows", spy)
    assert checks.check_printed_sequences(SMALL) is None
    assert asked == [("quoted",)]


def test_caps_derive_paths_and_partitions():
    assert (SMALL.paths, SMALL.partitions) == (9, 9)
    assert (checks.Caps(words=10).paths, checks.Caps(words=10).partitions) == (12, 12)
    with pytest.raises(TypeError):
        checks.Caps(words=6, paths=8)
