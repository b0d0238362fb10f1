import tracemalloc

import pytest

from bandrec.baselines import exact_bandwidth_bruteforce
from bandrec.bounds import BandwidthBounds, alpha_bound, bandwidth_bounds, gamma_bound
from bandrec.families import (
    complete_bipartite_graph,
    complete_graph,
    empty_graph,
    lollipop_graph,
    path_graph,
)
from bandrec.generate import generate_affirmative_case
from bandrec.graph import Graph
from conftest import all_graphs, bounds_by_definition, random_graph


class TestClosedFormFamilies:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_complete_bipartite(self, n):
        g = complete_bipartite_graph(n, n)
        assert alpha_bound(g) == -(-n // 2)
        assert gamma_bound(g) == n

    @pytest.mark.parametrize("n", range(5, 9))
    def test_lollipop(self, n):
        g = lollipop_graph(n, n)
        assert gamma_bound(g) == 2
        assert alpha_bound(g) == -(-n // 2)

    def test_neither_bound_dominates(self):
        lolli = lollipop_graph(5, 5)
        assert alpha_bound(lolli) == 3 > 2 == gamma_bound(lolli)
        bip = complete_bipartite_graph(4, 4)
        assert gamma_bound(bip) == 4 > 2 == alpha_bound(bip)


class TestEdgeCases:
    def test_edgeless(self):
        g = empty_graph(4)
        assert alpha_bound(g) == 0
        assert gamma_bound(g) == 0

    def test_single_node(self):
        assert bandwidth_bounds(empty_graph(1)) == BandwidthBounds(0, 0)

    def test_isolated_node_zeroes_gamma(self):
        # One isolated node gives gamma = 0 even next to a dense component.
        g = Graph(7, complete_bipartite_graph(3, 3).edges)
        assert gamma_bound(g) == 0
        assert alpha_bound(g) == alpha_bound(complete_bipartite_graph(3, 3))

    def test_path_alpha_matches_independent_computation(self):
        g = path_graph(5)
        assert bounds_by_definition(g) == (1, 1)
        assert alpha_bound(g) == 1

    def test_combined(self):
        assert bandwidth_bounds(complete_bipartite_graph(4, 4)).combined == 4


class TestLowerBoundProperty:
    def test_exhaustive_small(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                beta = exact_bandwidth_bruteforce(g)
                b = bandwidth_bounds(g)
                assert b.alpha <= beta
                assert b.gamma <= beta
                if n <= 4:  # the O(n^3)-per-graph definition cross-check stays cheap
                    assert b == BandwidthBounds(*bounds_by_definition(g))

    def test_random_graphs(self, rng):
        for _ in range(120):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            beta = exact_bandwidth_bruteforce(g)
            b = bandwidth_bounds(g)
            assert b.alpha <= beta
            assert b.gamma <= beta
            assert (b.alpha, b.gamma) == bounds_by_definition(g)


def _complete_split(hubs: int, leaves: int, hubs_first: bool = True) -> Graph:
    """``hubs`` nodes joined to each other and to every one of ``leaves``
    pairwise non-adjacent nodes; the hubs take the lowest ids or the highest."""
    hub_ids = range(hubs) if hubs_first else range(leaves, leaves + hubs)
    others = [v for v in range(hubs + leaves) if v not in hub_ids]
    edges = [(h, v) for i, h in enumerate(hub_ids) for v in [*hub_ids[i + 1 :], *others]]
    return Graph(hubs + leaves, edges)


def _wheel(rim: int, hub_first: bool = True) -> Graph:
    """A cycle of ``rim`` nodes and one hub joined to all of them; the hub is
    node 0 or node ``rim``."""
    offset, hub = (1, 0) if hub_first else (0, rim)
    cycle = [(offset + i, offset + (i + 1) % rim) for i in range(rim)]
    spokes = [(hub, offset + i) for i in range(rim)]
    return Graph(rim + 1, cycle + spokes)


def _union(*parts: Graph) -> Graph:
    """The disjoint union, each part's ids shifted past the ones before it."""
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


class _CountingMasks(tuple):
    """A neighbour-mask tuple that counts its indexed reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


class _CountedGraph:
    """Exposes only what ``bandwidth_bounds`` reads, with counted masks."""

    def __init__(self, g: Graph):
        self.n = g.n
        self.neighbor_masks = _CountingMasks(g.neighbor_masks)


class TestWalkStops:
    def test_walk_ends_once_every_node_is_seen(self):
        # Each node's first layer already holds the rest of K8, so each walk
        # reads only its own mask; a walk that expanded that layer would
        # also read its 7 neighbours' masks (64 reads).
        g = _CountedGraph(complete_graph(8))
        assert bandwidth_bounds(g) == BandwidthBounds(4, 7)
        assert g.neighbor_masks.reads == 8

    def test_walk_stops_before_reaching_the_whole_graph(self):
        # In K_{4,4} each node's degree 4 already reaches ceil((8-1)/2), so
        # no walk expands its first layer, although seen holds only 5 of the
        # 8 nodes; a walk that ran on to the whole graph would also read its
        # 4 neighbours' masks (40 reads).
        g = _CountedGraph(complete_bipartite_graph(4, 4))
        assert bandwidth_bounds(g) == BandwidthBounds(2, 4)
        assert g.neighbor_masks.reads == 8

    def test_walk_stops_on_a_disconnected_graph(self):
        # K_{5,5} plus an isolated node: each of its nodes has degree
        # ceil((11-1)/2) and reads only its own mask; the isolated node's
        # walk reads none. A walk that ran on to an empty frontier would
        # expand both layers of each K_{5,5} node (10 * (1 + 5 + 4) + 1 reads).
        g = _CountedGraph(Graph(11, complete_bipartite_graph(5, 5).edges))
        assert bandwidth_bounds(g) == BandwidthBounds(3, 0)
        assert g.neighbor_masks.reads == 11

    def test_layer_ends_once_it_holds_every_node(self):
        # Two hubs joined to each other and to 6 leaves: a hub's degree 7
        # reaches ceil((8-1)/2) and reads only its own mask. A leaf's degree 2
        # does not, so it expands its first layer, the two hubs; the first
        # hub's mask already brings in every node, so the leaf reads 2 masks,
        # not 3 (2 + 6 * 2 reads; 20 if each layer read all its masks).
        g = _CountedGraph(_complete_split(2, 6))
        assert bandwidth_bounds(g) == BandwidthBounds(4, 4)
        assert g.neighbor_masks.reads == 14

    def test_disconnected_walk_runs_to_an_empty_frontier(self):
        # Two triangles and an isolated node: a triangle node's degree 2 is
        # below ceil((7-1)/2), so each triangle node also expands its 2-node
        # first layer and stops at the empty frontier (7 + 6 * 2 reads).
        g = _CountedGraph(Graph(7, [(0, 1), (0, 2), (1, 2), (4, 5), (5, 6), (4, 6)]))
        assert bandwidth_bounds(g) == BandwidthBounds(1, 0)
        assert g.neighbor_masks.reads == 19

    def test_affirmative_cases_match_the_definition(self, rng):
        # The perfbench affirm regime (k = n-2 or n-3) and dense random
        # graphs with n above 9, where the walks stop at the ceil rule, and
        # unions of two consecutive draws, where many run on to an empty
        # frontier instead.
        draws = []
        for _ in range(12):
            n = int(rng.integers(10, 25))
            k = n - int(rng.integers(2, 4))
            draws.append(generate_affirmative_case(n, k, int(rng.integers(0, 2**31)))[0])
        for _ in range(12):
            n = int(rng.integers(10, 25))
            draws.append(random_graph(rng, n, float(rng.uniform(0.5, 0.95))))
        for g in draws:
            assert bandwidth_bounds(g) == BandwidthBounds(*bounds_by_definition(g))
        for a, b in zip(draws, draws[1:]):
            union = _union(a, b)
            assert bandwidth_bounds(union) == BandwidthBounds(*bounds_by_definition(union))

    def test_layers_filling_early_or_late_match_the_definition(self, rng):
        # A layer holds every node after its first mask in a complete split
        # graph (a leaf's first layer is all hubs) and in a wheel whose hub is
        # node 0, but only after its last mask when the hub is the highest
        # id; affirm-regime draws up to n = 40 fill anywhere in between. In
        # disjoint unions of these no layer ever fills.
        draws = [_complete_split(h, leaves, first) for h in (1, 2, 3) for leaves in (1, 4, 7) for first in (True, False)]
        draws += [_wheel(rim, first) for rim in (3, 5, 8, 11) for first in (True, False)]
        for _ in range(10):
            n = int(rng.integers(16, 41))
            k = n - int(rng.integers(2, 4))
            draws.append(generate_affirmative_case(n, k, int(rng.integers(0, 2**31)))[0])
        unions = [_union(a, b) for a, b in zip(draws[::3], draws[1::3])]
        for g in draws + unions:
            assert bandwidth_bounds(g) == BandwidthBounds(*bounds_by_definition(g))


@pytest.mark.parametrize("op", [alpha_bound, gamma_bound, bandwidth_bounds])
def test_large_call_stays_lean(op, rng):
    # Coarse memory check: bounds on (n=200, m~2000) should allocate far less
    # than the graph itself; catches accidental O(n^2) scratch structures.
    g = random_graph(rng, 200, 0.1)
    assert g.m > 1500
    op(g)  # warm any lazy interpreter state
    tracemalloc.start()
    op(g)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 256 * 1024
