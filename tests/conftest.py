import pytest
from hypothesis import settings

from modasc import counting

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tuple_children():
    """The tests' own expansion of a word w into its children, as tuples in
    the order of their last letters, leaving out those whose last letter a
    has bit a set in `bad`: the succession rule of `modasc.words`, written
    out again so that it shares no code with the expansion it checks."""

    def children(w, prim, bad=0):
        m, last = max(w, default=0), w[-1] if w else 0
        for a in range(1, last if prim else last + 1):
            if not bad >> a & 1:
                yield (*w, a)
        for a in range(last + 1, m + 2):
            if not bad >> a & 1:
                yield (*(v + (v >= a) for v in w), a)

    return children


@pytest.fixture(scope="session")
def tuple_levels(tuple_children):
    """Levels 0..top of the `tuple_children` expansion, each sorted: a
    reference for the levels of `modasc.words` that shares no code with
    them."""

    def levels(prim, top):
        level, out = [()], [[()]]
        for _ in range(top):
            level = [c for w in level for c in tuple_children(w, prim)]
            out.append(sorted(level))
        return out

    return levels


@pytest.fixture
def broken_tables(monkeypatch):
    """One wrong entry in each numeric table: the TABLE1 family of 11 over
    modasc, the last pinned 111/modasc value and the last quoted 221/modasc
    value."""
    table1 = list(counting.TABLE1)
    table1[0] = table1[0]._replace(modasc="powers_of_two")
    monkeypatch.setattr(counting, "TABLE1", tuple(table1))
    table2 = dict(counting.TABLE2)
    table2[("111", "modasc")] = (1, 2, 4, 10, 29, 97, 367, 1551)
    monkeypatch.setattr(counting, "TABLE2", table2)
    printed = dict(counting.PRINTED_SEQUENCES)
    printed[("221", "modasc")] = (0, (1, 1, 2, 5, 14, 44, 155, 607, 2618))
    monkeypatch.setattr(counting, "PRINTED_SEQUENCES", printed)
