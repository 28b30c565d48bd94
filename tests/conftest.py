import pytest

from deckrecon import Graph, cycle_graph, path_graph


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def house():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


@pytest.fixture
def bull():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])
