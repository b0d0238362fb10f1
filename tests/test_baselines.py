import tracemalloc
from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandrec import graph, recognition
from bandrec.baselines import (
    BRUTEFORCE_MAX_NODES,
    _half_table,
    bandwidth_at_most,
    exact_bandwidth_bruteforce,
    naive_recognition,
)
from bandrec.families import complete_graph, cycle_graph, empty_graph, path_graph
from bandrec.graph import Graph, Layout, connected_components, layout_bandwidth
from bandrec.recognition import SEARCH_EXHAUSTED, OutOfRegimeError, recognize
from bandrec.generate import generate_negative_case
from conftest import all_graphs, assert_certified, random_graph, regime_ks


class TestExactBandwidthBruteforce:
    @pytest.mark.parametrize(
        "g,beta",
        [
            (complete_graph(4), 3),
            (path_graph(5), 1),
            (cycle_graph(6), 2),
            (empty_graph(7), 0),
            (Graph(1), 0),
        ],
        ids=["K4", "P5", "C6", "edgeless", "single"],
    )
    def test_known_values(self, g, beta):
        assert exact_bandwidth_bruteforce(g) == beta

    def test_guard(self):
        assert BRUTEFORCE_MAX_NODES == 9
        with pytest.raises(ValueError):
            exact_bandwidth_bruteforce(empty_graph(10))

    def test_range_and_zero_iff_edgeless(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.8)))
            beta = exact_bandwidth_bruteforce(g)
            assert 0 <= beta <= n - 1
            assert (beta == 0) == (g.m == 0)

    def test_nine_nodes_stay_small(self):
        # The 9!/2 columns take 1.6 MB as int8 and are built a block at a
        # time; listing all 9! layouts as tuples first peaked near 56 MiB.
        _half_table.cache_clear()
        tracemalloc.start()
        try:
            assert exact_bandwidth_bruteforce(cycle_graph(9)) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    @pytest.mark.parametrize("n", range(2, BRUTEFORCE_MAX_NODES + 1))
    def test_half_table(self, n):
        pos = _half_table(n)
        assert pos.shape == (n, factorial(n) // 2)
        assert pos.dtype == np.int8
        assert (np.sort(pos, axis=0) == np.arange(n)[:, None]).all()
        assert np.unique(pos, axis=1).shape[1] == pos.shape[1]
        assert (pos[0] < pos[1]).all()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_every_layout(self, data):
        n = data.draw(st.integers(min_value=1, max_value=7))
        pairs = list(combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(n, edges)
        reference = min(layout_bandwidth(g, Layout(p)) for p in permutations(range(n)))
        assert exact_bandwidth_bruteforce(g) == reference

    def test_component_maximum(self, rng):
        # beta of a disconnected graph is the max over its components
        for _ in range(20):
            left = random_graph(rng, int(rng.integers(2, 5)), 0.6)
            right = random_graph(rng, int(rng.integers(2, 5)), 0.6)
            edges = list(left.edges) + [(u + left.n, v + left.n) for u, v in right.edges]
            g = Graph(left.n + right.n, edges)
            per_component = []
            for comp in connected_components(g):
                sub, _ = g.subgraph(comp)
                per_component.append(exact_bandwidth_bruteforce(sub))
            assert exact_bandwidth_bruteforce(g) == max(per_component)


class TestNaiveRecognition:
    def test_cycle_affirmative(self):
        g = cycle_graph(5)
        assert_certified(g, 2, naive_recognition(g, 2))

    def test_complete_negative(self):
        result = naive_recognition(complete_graph(4), 2)
        assert not result.verdict
        assert result.negative_reason == SEARCH_EXHAUSTED

    def test_trivial_large_k(self):
        result = naive_recognition(complete_graph(4), 3)
        assert result.verdict
        assert result.certificate == Layout.identity(4)

    def test_shares_no_code_with_the_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the oracle called into the engine")

        for name in (
            "enumerate_left_partial_layouts",
            "build_blocked_index",
            "check_hall_and_build_right",
            "assemble_certificate",
        ):
            monkeypatch.setattr(recognition, name, engine)
        g = cycle_graph(5)
        assert_certified(g, 2, naive_recognition(g, 2))
        assert naive_recognition(complete_graph(4), 2).negative_reason == SEARCH_EXHAUSTED

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            naive_recognition(path_graph(8), 2)
        with pytest.raises(ValueError):
            naive_recognition(path_graph(3), -1)

    def test_regime_floor_is_on_the_whole_graph(self):
        # Two disjoint C_5 at k=2: each component's floor is 2, so recognize
        # decides it, but the 10-node graph's floor is 4, so the oracle refuses.
        c5 = cycle_graph(5).edges
        g = Graph(10, list(c5) + [(u + 5, v + 5) for u, v in c5])
        assert_certified(g, 2, recognize(g, 2))
        with pytest.raises(OutOfRegimeError):
            naive_recognition(g, 2)

    def test_agreement_harness(self, rng):
        # 200 random graphs across n = 6..10, every regime k; the weighting
        # keeps the O(n^(2(n-k))) negatives affordable.
        sizes = [6] * 60 + [7] * 55 + [8] * 45 + [9] * 30 + [10] * 10
        assert len(sizes) == 200
        for n in sizes:
            g = random_graph(rng, n, float(rng.uniform(0.15, 0.75)))
            for k in regime_ks(n):
                fast = recognize(g, k)
                slow = naive_recognition(g, k)
                assert fast.verdict == slow.verdict, f"n={n} k={k} edges={g.edges}"
                if fast.verdict:
                    assert_certified(g, k, fast)
                    assert_certified(g, k, slow)


class TestBandwidthAtMost:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_bruteforce_on_every_small_graph(self, n):
        for g in all_graphs(n):
            beta = exact_bandwidth_bruteforce(g)
            for k in range(n):
                assert bandwidth_at_most(g, k) == (beta <= k), f"k={k} edges={g.edges}"

    def test_matches_bruteforce_on_random_graphs(self, rng):
        for _ in range(120):
            n = int(rng.integers(7, 10))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            beta = exact_bandwidth_bruteforce(g)
            for k in range(n):
                assert bandwidth_at_most(g, k) == (beta <= k), f"n={n} k={k} edges={g.edges}"

    def test_no_regime_floor(self):
        # recognize refuses P_8 at k=2 and below; the oracle decides any k.
        assert bandwidth_at_most(path_graph(8), 1)
        assert not bandwidth_at_most(path_graph(8), 0)
        assert bandwidth_at_most(empty_graph(8), 0)
        assert not bandwidth_at_most(cycle_graph(12), 1)
        assert bandwidth_at_most(Graph(1), 0)

    def test_components_are_decided_apart(self):
        # A 9-node negative among 40 isolated nodes: searched as one
        # component, every order of the isolated nodes would be tried.
        neg, _ = generate_negative_case(9, 4, seed=0)
        g = Graph(49, [(u + 20, v + 20) for u, v in neg.edges])
        assert not bandwidth_at_most(g, 4)
        assert bandwidth_at_most(g, 8)

    def test_long_component_is_searched_without_recursion(self):
        # A search that recursed once per position would pass Python's
        # default recursion limit of 1,000 frames on these paths.
        path = path_graph(1100)
        assert bandwidth_at_most(path, 1) is True
        triangle = [(1100, 1101), (1101, 1102), (1100, 1102)]
        # The path is laid out in full before the triangle fails.
        assert bandwidth_at_most(Graph(1103, list(path.edges) + triangle), 1) is False

    def test_k_coerced_like_the_engine(self):
        assert bandwidth_at_most(cycle_graph(5), np.int64(2))
        for k in (True, 2.5):
            with pytest.raises(TypeError):
                bandwidth_at_most(cycle_graph(5), k)
        with pytest.raises(ValueError):
            bandwidth_at_most(cycle_graph(5), -1)

    def test_shares_no_code_with_the_engine(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the oracle called into the engine")

        for name in (
            "recognize",
            "_solve_component",
            "enumerate_left_partial_layouts",
            "build_blocked_index",
            "check_hall_and_build_right",
            "assemble_certificate",
            "bandwidth_bounds",
            "connected_components",
            "require_regime",
        ):
            monkeypatch.setattr(recognition, name, engine)
        monkeypatch.setattr(graph, "connected_components", engine)
        monkeypatch.setattr(Graph, "subgraph", engine)
        assert bandwidth_at_most(cycle_graph(5), 2)
        assert not bandwidth_at_most(complete_graph(4), 2)


# Both deciders take k by the rule node ids follow: operator.index, bool refused.
DECIDERS = pytest.mark.parametrize("decide", [recognize, naive_recognition], ids=["recognize", "naive"])


@DECIDERS
def test_numpy_k_coerced(decide):
    g = cycle_graph(5)
    assert_certified(g, 2, decide(g, np.int64(2)))


@DECIDERS
@pytest.mark.parametrize("k", [True, 2.5], ids=["bool", "float"])
def test_non_integer_k_rejected(decide, k):
    with pytest.raises(TypeError):
        decide(complete_graph(4), k)
