import pytest
from hypothesis import settings

from modasc import counting

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


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
