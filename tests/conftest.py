import weakref

import pytest

from kneserlab import graphs
from kneserlab.graphs import Family, build


@pytest.fixture
def fresh_live(monkeypatch):
    """An empty graphs._live table for the test, as in a fresh process: a
    graph that a session fixture holds is constructed again, and so does
    not carry its memo into the test."""
    table = weakref.WeakValueDictionary()
    monkeypatch.setattr(graphs, "_live", table)
    return table


@pytest.fixture(scope="session")
def odd3():
    return build(Family.odd(3))


@pytest.fixture(scope="session")
def odd4():
    return build(Family.odd(4))


@pytest.fixture(scope="session")
def odd5():
    return build(Family.odd(5))


@pytest.fixture(scope="session")
def middle2():
    return build(Family.middle_levels(2))


@pytest.fixture(scope="session")
def middle3():
    return build(Family.middle_levels(3))


@pytest.fixture(scope="session")
def middle4():
    return build(Family.middle_levels(4))
