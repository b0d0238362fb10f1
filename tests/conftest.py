"""Shared fixtures and seeded-random helpers for the test suite."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import strategies as st

from bandrec.graph import Graph, Layout, layout_bandwidth


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi style draw used for cross-checking harnesses."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def all_graphs(n: int):
    """Every labelled graph on n nodes (2^(n choose 2) of them)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


@st.composite
def graphs(draw, max_n: int = 8):
    """Any labelled graph on 1..max_n nodes, disconnected ones included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def constructive_negatives(draw, min_n: int, max_n: int):
    """A ``(g, k)`` negative by proof, at any n: ``k = n-w-1`` for ``w`` 2 or 3.

    In a layout of bandwidth at most ``k`` the nodes at positions 0 and n-1
    are non-adjacent, and each is non-adjacent to at least ``w`` others. Here
    only two nodes ``x`` and ``y`` miss ``w`` nodes, and they are adjacent, so
    no such layout exists. Each of them misses its own disjoint set of ``w``
    nodes, every other node misses fewer than ``w`` (random non-edges drawn
    among the rest), and the nodes are relabelled at random. The draws come
    from a numpy generator seeded by hypothesis.
    """
    w = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(max(min_n, 2 * w + 2), max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Before relabelling: x = 0, y = 1, x misses 2..w+1, y misses w+2..2w+1.
    missing = [(0, a) for a in range(2, w + 2)] + [(1, b) for b in range(w + 2, 2 * w + 2)]
    misses = [0, 0] + [1] * (2 * w) + [0] * (n - 2 * w - 2)
    others = list(combinations(range(2, n), 2))
    for i in rng.permutation(len(others)):
        u, v = others[i]
        if misses[u] < w - 1 and misses[v] < w - 1 and rng.random() < 0.5:
            missing.append((u, v))
            misses[u] += 1
            misses[v] += 1
    missing = set(missing)
    order = [int(v) for v in rng.permutation(n)]
    edges = [(order[u], order[v]) for u, v in combinations(range(n), 2) if (u, v) not in missing]
    return Graph(n, edges), n - w - 1


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


def bounds_by_definition(g: Graph) -> tuple[int, int]:
    """Both growth ratios evaluated per node from ``distances_by_scan``, as
    ``(alpha, gamma)``, sharing nothing with the breadth-first walk of
    ``bandwidth_bounds``."""
    dist = distances_by_scan(g)
    alpha, gamma = 0, None
    for v in range(g.n):
        finite = [dist[v][w] for w in range(g.n) if w != v and dist[v][w] != float("inf")]
        ecc = max(finite, default=0)
        a = c = 0
        for k in range(1, int(ecc) + 1):
            size = sum(1 for x in finite if x <= k)
            a = max(a, -(-size // (2 * k)))
            c = max(c, -(-size // k))
        alpha = max(alpha, a)
        gamma = c if gamma is None else min(gamma, c)
    return alpha, gamma


def regime_ks(n: int) -> range:
    """Every k the recognizer searches at size n: floor((n-1)/2) .. n-2."""
    return range((n - 1) // 2, max((n - 1) // 2, n - 1))


def assert_certified(g: Graph, k: int, result) -> None:
    """Positive verdicts must come with a layout of bandwidth at most k.

    The layout's two maps must be mutually inverse tuples of plain ints, and
    it must equal the layout the public constructor builds from its
    positions, whichever way it was made.
    """
    assert result.verdict
    certificate = result.certificate
    assert certificate is not None
    forward, inverse = certificate.forward, certificate.inverse
    assert type(forward) is tuple and type(inverse) is tuple
    assert all(type(x) is int for x in forward + inverse)
    assert len(forward) == len(inverse) == g.n
    assert all(inverse[p] == v for v, p in enumerate(forward))
    assert certificate == Layout.from_inverse(inverse)
    assert layout_bandwidth(g, certificate) <= k


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
