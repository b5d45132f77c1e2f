import numpy as np
import pytest

from spectral_nsr.graph import NodeMeta, ReasoningGraph, build_graph
from spectral_nsr.harness import SyntheticTask
from spectral_nsr.symbolic import KnowledgeBase


def make_nodes(n, kind="proposition"):
    return [NodeMeta(i, kind, f"n{i}") for i in range(n)]


def path_graph(n, weight=1.0):
    edges = [(i, i + 1, weight) for i in range(n - 1)]
    return build_graph(make_nodes(n), edges)


def random_graph(rng, n, density=0.2, max_weight=1.0):
    """Erdos-Renyi style graph; guaranteed at least one edge."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, float(rng.uniform(0.1, max_weight))))
    if not edges:
        edges.append((0, 1, 1.0))
    return build_graph(make_nodes(n), edges)


def graph_task(graph, x0, labels):
    """A task on ``graph`` with signal ``x0`` and node -> 0/1 ``labels``, for the trainer."""
    return SyntheticTask("graph", "random", 0, 0, graph, np.asarray(x0, dtype=np.float64), KnowledgeBase(()), labels)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def p3():
    return path_graph(3)
