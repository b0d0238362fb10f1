"""Shared fixtures and seeded-random helpers for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from bandrec.graph import Graph, layout_bandwidth


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi style draw used for cross-checking harnesses."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def all_graphs(n: int):
    """Every labelled graph on n nodes (2^(n choose 2) of them)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def distances_by_scan(g: Graph) -> list[list[float]]:
    """All-pairs hop distances (``inf`` across components) by Floyd-Warshall
    over an explicit matrix, independent of the BFS under test."""
    inf = float("inf")
    n = g.n
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for m in range(n):
        for i in range(n):
            dim = d[i][m]
            if dim == inf:
                continue
            row = d[m]
            for j in range(n):
                if dim + row[j] < d[i][j]:
                    d[i][j] = dim + row[j]
    return d


def regime_ks(n: int) -> range:
    """Every k the recognizer searches at size n: floor((n-1)/2) .. n-2."""
    return range((n - 1) // 2, max((n - 1) // 2, n - 1))


def assert_certified(g: Graph, k: int, result) -> None:
    """Positive verdicts must come with a layout of bandwidth at most k."""
    assert result.verdict
    assert result.certificate is not None
    assert layout_bandwidth(g, result.certificate) <= k


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
