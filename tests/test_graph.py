import copy
import pickle
from dataclasses import FrozenInstanceError
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandrec.bounds import BandwidthBounds, bandwidth_bounds
from bandrec.families import complete_graph, cycle_graph, empty_graph, lollipop_graph, path_graph
from bandrec.graph import Graph, Layout, connected_components, layout_bandwidth
from bandrec.recognition import recognize
from conftest import assert_certified, bounds_by_definition, graphs


class TestGraphConstruction:
    def test_edges_normalised_and_deduped(self):
        g = Graph(4, [(3, 0), (0, 3), (1, 2)])
        assert g.edges == ((0, 3), (1, 2))
        assert g.m == 2

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_node_count_coerced(self):
        g = Graph(np.int64(5), cycle_graph(5).edges)
        assert type(g.n) is int
        assert_certified(g, 2, recognize(g, 2))

    @pytest.mark.parametrize("n", [True, 3.0])
    def test_rejects_non_integer_node_count(self, n):
        with pytest.raises(TypeError):
            Graph(n)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_numpy_endpoints_coerced(self):
        # 1 << np.int64(70) overflows, so an uncoerced endpoint would set no mask bit.
        g = Graph(100, [(np.int64(0), np.int64(70))])
        assert g.adjacent(0, 70) and g.adjacent(70, 0)
        assert g.edges == ((0, 70),)
        assert all(type(x) is int for x in g.edges[0])
        assert (0, 70) in connected_components(g)

    def test_rejects_bool_endpoint(self):
        with pytest.raises(TypeError, match="bool"):
            Graph(3, [(True, 2)])

    def test_immutable(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 5
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'forward'"):
            Layout([1, 0]).forward = (0, 1)

    @given(graphs())
    def test_adjacency_symmetric(self, g):
        for u in range(g.n):
            for v in range(g.n):
                assert g.adjacent(u, v) == g.adjacent(v, u)
                assert g.adjacent(u, v) == (((min(u, v), max(u, v)) in set(g.edges)) and u != v)
        for v in range(g.n):
            listed = sorted({w for edge in g.edges if v in edge for w in edge} - {v})
            assert g.degree(v) == len(listed)

    def test_relabeled_preserves_structure(self):
        g = Graph(4, [(0, 1), (2, 3)])
        h = g.relabeled([3, 2, 1, 0])
        assert h.edges == ((0, 1), (2, 3))
        with pytest.raises(ValueError):
            g.relabeled([0, 0, 1, 2])

    def test_subgraph(self):
        g = Graph(5, [(0, 1), (1, 4), (2, 3)])
        sub, mapping = g.subgraph([0, 1, 4])
        assert mapping == (0, 1, 4)
        assert sub.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize(
        "nodes,error",
        [
            ([0, 99], ValueError),
            ([-1, 0], ValueError),
            ([0, 1.0], TypeError),
            ([True, 2], TypeError),
            ([], ValueError),
            ([2, 0, 2], ValueError),
            ([np.int64(1), 1], ValueError),
        ],
    )
    def test_subgraph_rejects_bad_node_ids(self, nodes, error):
        with pytest.raises(error):
            Graph(5, [(0, 1)]).subgraph(nodes)

    def test_subgraph_mapping_coerced(self):
        _, mapping = Graph(5, [(0, 1)]).subgraph([np.int64(1), np.int64(0)])
        assert mapping == (0, 1)
        assert all(type(v) is int for v in mapping)


class TestFastPaths:
    """Plain in-range ints skip the id check in Graph's constructor; every
    other id must still meet it. relabeled checks every entry."""

    def test_mixed_endpoints_stored_as_int(self):
        g = Graph(3, [(np.int64(0), 1), (2, np.uint8(1))])
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(x) is int for edge in g.edges for x in edge)

    @pytest.mark.parametrize("edge", [(0, True), (False, 1)])
    def test_bool_endpoint_raises(self, edge):
        with pytest.raises(TypeError, match="must be an integer, not bool"):
            Graph(3, [edge])

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((0, 3), "node 3 out of range for n=3"),
            ((-1, 2), "node -1 out of range for n=3"),
            ((np.int64(5), 0), "node 5 out of range for n=3"),
            ((1, 1), "self-loop on node 1 is not allowed"),
            ((np.int64(2), 2), "self-loop on node 2 is not allowed"),
        ],
    )
    def test_bad_endpoint_messages(self, edge, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Graph(3, [edge])

    @given(graphs(max_n=10), st.randoms(use_true_random=False))
    def test_relabeled_matches_construction(self, g, random):
        mapping = list(range(g.n))
        random.shuffle(mapping)
        h = g.relabeled(mapping)
        expected = Graph(g.n, ((mapping[u], mapping[v]) for u, v in g.edges))
        assert h == expected
        assert h.neighbor_masks == expected.neighbor_masks

    def test_relabeled_numpy_mapping(self):
        h = Graph(4, [(0, 1), (1, 2)]).relabeled(np.array([3, 0, 2, 1]))
        assert h.edges == ((0, 2), (0, 3))
        assert all(type(x) is int for edge in h.edges for x in edge)

    def test_relabeled_rejects_bool_mapping(self):
        with pytest.raises(TypeError, match="bool"):
            Graph(2, [(0, 1)]).relabeled([True, False])

    @pytest.mark.parametrize("mapping", [[0, 0, 1], [0, 1], [0, 1, 3], [1, 2, 3]])
    def test_relabeled_rejects_non_bijection(self, mapping):
        with pytest.raises(ValueError, match=r"^relabeling must be a bijection onto 0\.\.n-1$"):
            Graph(3, [(0, 1)]).relabeled(mapping)


def random_multi_component_graph(rng, n):
    """Random edges inside each block of a random partition of 0..n-1."""
    order = [int(v) for v in rng.permutation(n)]
    cuts = sorted(int(c) for c in rng.choice(range(1, n), size=min(3, n - 1), replace=False))
    edges = []
    for block in np.split(order, cuts):
        for a, b in combinations(sorted(int(v) for v in block), 2):
            if rng.random() < 0.5:
                edges.append((a, b))
    return Graph(n, edges)


class TestSubgraphReference:
    def test_matches_the_definition(self):
        # Induced: local nodes i < j are adjacent iff the nodes they stand
        # for are, and the local ids follow the original ones in order.
        rng = np.random.default_rng(6060)
        for _ in range(40):
            g = random_multi_component_graph(rng, int(rng.integers(2, 25)))
            subsets = list(connected_components(g))
            for _ in range(3):
                size = int(rng.integers(1, g.n + 1))
                subsets.append(tuple(int(v) for v in rng.choice(g.n, size=size, replace=False)))
            for nodes in subsets:
                sub, mapping = g.subgraph(nodes)
                assert mapping == tuple(sorted(nodes))
                assert sub.n == len(mapping)
                for i, j in combinations(range(sub.n), 2):
                    assert sub.adjacent(i, j) == g.adjacent(mapping[i], mapping[j])


class TestLayout:
    def test_identity_and_inverse(self):
        layout = Layout.identity(4)
        assert layout.forward == (0, 1, 2, 3)
        assert layout.inverse == (0, 1, 2, 3)
        assert Layout.from_inverse([2, 0, 1]).forward == (1, 2, 0)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Layout([0, 0, 1])
        with pytest.raises(ValueError):
            Layout([0, 1, 3])
        with pytest.raises(ValueError):
            Layout.from_inverse([1, 1, 2])

    def test_from_inverse_validates_once(self, monkeypatch):
        built = []
        init = Layout.__init__

        def counting_init(self, forward):
            built.append(tuple(forward))
            init(self, forward)

        monkeypatch.setattr(Layout, "__init__", counting_init)
        layout = Layout.from_inverse([2, 0, 3, 1])
        assert built == [(2, 0, 3, 1)]
        assert layout.inverse == (2, 0, 3, 1)
        assert layout.forward == (1, 3, 0, 2)
        with pytest.raises(ValueError, match="layout is not a bijection onto 0..n-1"):
            Layout.from_inverse([1, 1, 2])
        assert built == [(2, 0, 3, 1), (1, 1, 2)]

    def test_rejects_no_positions(self):
        with pytest.raises(ValueError, match="^layout needs at least one node$"):
            Layout(())

    def test_reversed(self):
        layout = Layout([2, 0, 1])
        assert layout.reversed().forward == (0, 2, 1)

    def test_narrow_positions_coerced(self):
        # uint8 positions would wrap on subtraction: 0 - 1 reads 255.
        layout = Layout(np.array([0, 1], dtype=np.uint8))
        assert all(type(p) is int for p in layout.forward + layout.inverse)
        assert layout_bandwidth(Graph(2, [(0, 1)]), layout) == 1

    def test_numpy_positions_accepted(self):
        layout = Layout([np.int64(2), np.int64(0), np.int64(1)])
        assert layout == Layout([2, 0, 1])
        assert all(type(p) is int for p in layout.forward)

    @pytest.mark.parametrize(
        "build",
        [lambda: Layout([True, False]), lambda: Layout.from_inverse([True, False]), lambda: Layout.identity(True)],
        ids=["init", "from_inverse", "identity"],
    )
    def test_rejects_bool_positions(self, build):
        with pytest.raises(TypeError, match="bool"):
            build()

    def test_reprs(self):
        assert repr(Layout([2, 0, 1])) == "Layout(forward=(2, 0, 1))"
        assert repr(cycle_graph(5)) == "Graph(n=5, m=5)"


@pytest.mark.parametrize(
    "duplicate", [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))], ids=["deepcopy", "pickle"]
)
class TestRoundTrip:
    # neighbor_masks and inverse are compare=False, so each is checked by hand.
    def test_graph(self, duplicate):
        g = cycle_graph(5)
        twin = duplicate(g)
        assert twin == g and hash(twin) == hash(g)
        assert twin.neighbor_masks == g.neighbor_masks

    def test_layout(self, duplicate):
        layout = Layout.from_inverse([2, 0, 3, 1])
        twin = duplicate(layout)
        assert twin == layout and hash(twin) == hash(layout)
        assert twin.inverse == layout.inverse

    def test_recognition_result(self, duplicate):
        result = recognize(cycle_graph(5), 2)
        twin = duplicate(result)
        assert twin == result
        assert twin.certificate.inverse == result.certificate.inverse


class TestLayoutBandwidth:
    def test_path_identity(self):
        assert layout_bandwidth(path_graph(4), Layout.identity(4)) == 1

    @pytest.mark.parametrize("forward", list(permutations(range(3))))
    def test_triangle_any_layout(self, forward):
        assert layout_bandwidth(complete_graph(3), Layout(forward)) == 2

    def test_long_edge_dominates(self):
        g = Graph(4, [(0, 3), (1, 2)])
        assert layout_bandwidth(g, Layout.identity(4)) == 3

    def test_edgeless_is_zero(self):
        assert layout_bandwidth(empty_graph(5), Layout.identity(5)) == 0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            layout_bandwidth(path_graph(4), Layout.identity(5))

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_range_and_reversal_invariance(self, g, random):
        forward = list(range(g.n))
        random.shuffle(forward)
        layout = Layout(forward)
        b = layout_bandwidth(g, layout)
        assert 0 <= b <= g.n - 1
        assert layout_bandwidth(g, layout.reversed()) == b


class TestConnectedComponents:
    def test_edgeless_singletons(self):
        assert connected_components(empty_graph(3)) == ((0,), (1,), (2,))

    def test_complete_single_component(self):
        assert connected_components(complete_graph(4)) == ((0, 1, 2, 3),)

    def test_two_pairs(self):
        assert connected_components(Graph(4, [(0, 1), (2, 3)])) == ((0, 1), (2, 3))

    @given(graphs())
    def test_partition_and_no_cross_edges(self, g):
        components = connected_components(g)
        seen = sorted(v for comp in components for v in comp)
        assert seen == list(range(g.n))
        index_of = {v: i for i, comp in enumerate(components) for v in comp}
        for u, v in g.edges:
            assert index_of[u] == index_of[v]
        assert all(list(comp) == sorted(comp) for comp in components)
        mins = [comp[0] for comp in components]
        assert mins == sorted(mins)


class TestBfsLayers:
    # The breadth-first layers from each node are walked inline by
    # bandwidth_bounds over the neighbour masks, so they are read here
    # through the bounds: c_v = max_d ceil(|N_d(v)| / d) over the running
    # layer sums |N_d(v)|, alpha = ceil(max_v c_v / 2) and gamma = min_v c_v.
    def test_path(self):
        # From an end each depth adds one node (sums 1, 2, ..., n-1), from an
        # inner node at most two, so c_v is 1 at the ends and at most 2.
        for n in range(2, 10):
            assert bandwidth_bounds(path_graph(n)) == BandwidthBounds(1, 1)
        # The path 3-0-4-1-2, whose layers do not follow the node ids.
        assert bandwidth_bounds(Graph(5, [(3, 0), (0, 4), (4, 1), (1, 2)])) == BandwidthBounds(1, 1)

    def test_complete(self):
        # One layer of n-1 nodes from every node.
        for n in range(2, 8):
            assert bandwidth_bounds(complete_graph(n)) == BandwidthBounds(-(-(n - 1) // 2), n - 1)

    def test_isolated(self):
        # The walk from an isolated node has no layer, so its c_v is 0.
        assert bandwidth_bounds(empty_graph(3)) == BandwidthBounds(0, 0)
        # Node 1 sits between the ids of the edge's ends and the walk from
        # it still reaches nothing; 0 and 2 each reach one layer of one node.
        assert bandwidth_bounds(Graph(3, [(0, 2)])) == BandwidthBounds(1, 0)

    @given(graphs())
    def test_strictly_increasing_up_to_component(self, g):
        # Each walk stays in its component, so the whole graph's alpha is
        # the largest of its component copies' and its gamma the smallest,
        # which lets recognize bound each component on its own view.
        components = connected_components(g)
        b = bandwidth_bounds(g)
        parts = [bandwidth_bounds(g.subgraph(c)[0]) for c in components]
        assert b.alpha == max(p.alpha for p in parts)
        assert b.gamma == min(p.gamma for p in parts)
        # A walk has no layer only from a single-node component; any other
        # walk's first layer holds a neighbour, which makes c_v at least 1.
        assert (b.gamma == 0) == any(len(c) == 1 for c in components)

    @given(graphs())
    def test_matches_distance_matrix(self, g):
        # The definition counts hop distances from a Floyd-Warshall matrix,
        # so it shares nothing with the breadth-first walk under test.
        assert bandwidth_bounds(g) == BandwidthBounds(*bounds_by_definition(g))


class TestFamilyGuards:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cycle_needs_three_nodes(self, n):
        with pytest.raises(ValueError, match="^cycle needs at least 3 nodes$"):
            cycle_graph(n)

    @pytest.mark.parametrize("clique,tail", [(0, 2), (3, -1)])
    def test_lollipop_needs_a_clique_and_a_tail(self, clique, tail):
        with pytest.raises(ValueError, match="^lollipop needs a nonempty clique and nonnegative tail$"):
            lollipop_graph(clique, tail)
