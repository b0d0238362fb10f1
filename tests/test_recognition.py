import os
import subprocess
import sys
import textwrap
from bisect import bisect_right
from functools import cache
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandrec
from bandrec import recognition
from bandrec.baselines import bandwidth_at_most, exact_bandwidth_bruteforce
from bandrec.bounds import bandwidth_bounds
from bandrec.families import (
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    star_graph,
)
from bandrec.generate import (
    GenParams,
    generate_affirmative_case,
    generate_negative_case,
    random_banded_matrix,
)
from bandrec.graph import Graph, Layout, connected_components, layout_bandwidth
from bandrec.recognition import (
    BOUNDS_CUTOFF,
    SEARCH_EXHAUSTED,
    OutOfRegimeError,
    assemble_certificate,
    build_blocked_index,
    check_hall_and_build_right,
    enumerate_left_partial_layouts,
    recognize,
)
from conftest import (
    all_graphs,
    assert_certified,
    bounds_by_definition,
    constructive_negatives,
    disjoint_union,
    feasible_right_exists,
    random_graph,
    regime_ks,
)


@st.composite
def graph_k_left(draw, min_n: int = 4, max_n: int = 9):
    """A graph, an in-regime k, and a random left partial layout for them."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    k = draw(st.integers((n - 1) // 2, n - 2))
    left = tuple(draw(st.permutations(range(n)))[: n - k - 1])
    return Graph(n, edges), k, left


def random_left(rng, n, k):
    return tuple(int(v) for v in rng.permutation(n)[: n - k - 1])


@st.composite
def connected_pieces(draw, max_n: int):
    """A connected graph on 1 to ``max_n`` nodes: a random tree plus random extra edges."""
    n = draw(st.integers(1, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    extra = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    return Graph(n, tree + extra)


@st.composite
def shuffled_unions(draw, min_pieces: int, max_pieces: int, max_n: int):
    """A union of connected pieces, one component each, in a random id order."""
    pieces = draw(st.lists(connected_pieces(max_n), min_size=min_pieces, max_size=max_pieces))
    order = draw(st.permutations(range(sum(piece.n for piece in pieces))))
    g = disjoint_union(pieces, order)
    assert len(connected_components(g)) == len(pieces)
    return g


class TestEnumeration:
    def test_single_position_assignments(self):
        got = list(enumerate_left_partial_layouts(empty_graph(5), 3))
        assert got == [(0,), (1,), (2,), (3,), (4,)]

    @pytest.mark.parametrize(
        "n,k,count",
        [(5, 3, 5), (5, 2, 20), (12, 10, 12), (7, 4, 42), (8, 5, 56), (8, 4, 336), (8, 3, 1680)],
    )
    def test_counts(self, n, k, count):
        assert count == factorial(n) // factorial(k + 1)
        assert sum(1 for _ in enumerate_left_partial_layouts(empty_graph(n), k)) == count

    def test_counts_every_regime_k_up_to_n8(self):
        for n in range(2, 9):
            for k in range((n - 1) // 2, n):
                stream = enumerate_left_partial_layouts(empty_graph(n), k)
                assert sum(1 for _ in stream) == factorial(n) // factorial(k + 1)

    def test_unique_and_lexicographic(self):
        seen = list(enumerate_left_partial_layouts(empty_graph(6), 3))
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)

    def test_each_left_is_distinct_nodes(self):
        for n in range(2, 8):
            for k in regime_ks(n):
                for left in enumerate_left_partial_layouts(empty_graph(n), k):
                    assert isinstance(left, tuple)
                    assert len(left) == len(set(left)) == n - k - 1
                    assert set(left) <= set(range(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_k_n_minus_1_yields_the_empty_left(self, n):
        # n!/(k+1)! = 1 at k = n-1: the one left with no positions.
        assert list(enumerate_left_partial_layouts(empty_graph(n), n - 1)) == [()]

    @pytest.mark.parametrize("k", [-1, 1, 6])
    def test_out_of_range_k_rejected(self, k):
        # The call itself raises, before any next.
        with pytest.raises(ValueError):
            enumerate_left_partial_layouts(empty_graph(6), k)

    def test_numpy_k_is_read_as_an_int(self):
        g = empty_graph(6)
        assert list(enumerate_left_partial_layouts(g, np.int64(3))) == list(enumerate_left_partial_layouts(g, 3))

    @pytest.mark.parametrize("k", [True, 3.0])
    def test_bool_and_float_k_raise_type_error(self, k):
        with pytest.raises(TypeError):
            enumerate_left_partial_layouts(empty_graph(6), k)

    def test_negative_k_is_named(self):
        with pytest.raises(ValueError, match="nonnegative"):
            enumerate_left_partial_layouts(empty_graph(6), -1)


class TestBlockedIndex:
    def test_edgeless_all_sentinel(self):
        assert build_blocked_index(empty_graph(6), (0, 1)) == (0b111100,) * 3

    def test_complete_all_blocked_at_zero(self):
        assert build_blocked_index(complete_graph(5), (2,)) == (0b11011, 0)

    def test_star_leaves_blocked_by_centre(self):
        assert build_blocked_index(star_graph(4), (0, 1)) == (0b11100, 0, 0)

    def test_minimum_index_wins(self):
        # node 4, adjacent to both left nodes, leaves at the first pool: index 0
        g = Graph(5, [(0, 4), (1, 4), (1, 3)])
        chain = build_blocked_index(g, (0, 1))
        assert chain == (0b11100, 0b01100, 0b00100)
        assert check_hall_and_build_right(chain, 5, 2) == [3, 2]

    def test_repeated_node_stays_placed(self):
        # clearing bits, not toggling them: a second 1 does not unplace it
        chain = build_blocked_index(empty_graph(4), (1, 1))
        assert chain[0] == 0b1101


class TestHallCheck:
    def test_edgeless_feasible_with_tail_nodes(self):
        chain = build_blocked_index(empty_graph(6), (0, 1))
        assert check_hall_and_build_right(chain, 6, 3) == [4, 5]

    def test_complete_infeasible(self):
        chain = build_blocked_index(complete_graph(4), (0,))
        assert check_hall_and_build_right(chain, 4, 2) is None

    @pytest.mark.parametrize("assignment", [(0, 2), (1, 4)])
    def test_cycle_infeasible_lefts(self, assignment):
        g = cycle_graph(5)
        assert check_hall_and_build_right(build_blocked_index(g, assignment), 5, 2) is None
        assert not feasible_right_exists(g, 2, assignment)

    def test_cycle_has_some_feasible_left(self):
        g = cycle_graph(5)
        feasible = [
            left
            for left in enumerate_left_partial_layouts(g, 2)
            if check_hall_and_build_right(build_blocked_index(g, left), 5, 2) is not None
        ]
        assert feasible  # the recognizer still succeeds overall
        assert (0, 1) in feasible

    @given(graph_k_left(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce_existence(self, case):
        # Presence of a constructed right == existence of any feasible right.
        g, k, left = case
        right = check_hall_and_build_right(build_blocked_index(g, left), g.n, k)
        assert (right is not None) == feasible_right_exists(g, k, left)
        if right is not None:
            cert = Layout.from_inverse(assemble_certificate(left, right, g, k))
            assert layout_bandwidth(g, cert) <= k


def right_by_sort_and_bisect(g, k, left):
    """The Hall check as first written: blocked values from an edge scan, the
    unplaced nodes sorted stably by them, each count a binary search, and the
    last n-k-1 nodes of the sorted order as the right assignment."""
    n = g.n
    width = n - k - 1
    blocked = {}
    for v in range(n):
        if v not in left:
            hits = [i for i, u in enumerate(left) if g.adjacent(u, v)]
            blocked[v] = hits[0] if hits else n
    nodes = sorted(blocked, key=blocked.__getitem__)
    values = [blocked[v] for v in nodes]
    for j in range(width):
        if len(nodes) - bisect_right(values, j) < width - j:
            return None
    return nodes[len(nodes) - width :]


def certificate_by_reference(g, k):
    """The sweep's certificate, built without the engine: the first
    lexicographic left whose sort-and-bisect check passes, then the middle
    nodes in ascending id, then that right; None when no left passes."""
    for left in permutations(range(g.n), g.n - k - 1):
        right = right_by_sort_and_bisect(g, k, left)
        if right is not None:
            middle = [v for v in range(g.n) if v not in left and v not in right]
            return (*left, *middle, *right)
    return None


class TestPools:
    @given(graph_k_left(max_n=10))
    @settings(max_examples=100)
    def test_pools_are_the_candidate_sets(self, case):
        # chain[0] is the unplaced set, chain[j+1] is A_j: the unplaced nodes
        # adjacent to none of left[0..j]
        g, k, left = case
        chain = build_blocked_index(g, left)
        assert len(chain) == g.n - k
        assert chain[0] == sum(1 << v for v in range(g.n) if v not in left)
        for j, pool in enumerate(chain[1:]):
            a_j = sum(
                1 << v
                for v in range(g.n)
                if v not in left and all(not g.adjacent(left[i], v) for i in range(j + 1))
            )
            assert pool == a_j

    def test_hall_check_matches_sort_and_bisect(self, rng):
        passed = 0
        for _ in range(400):
            n = int(rng.integers(3, 11))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
            k = int(rng.integers((n - 1) // 2, n - 1))
            left = random_left(rng, n, k)
            right = check_hall_and_build_right(build_blocked_index(g, left), n, k)
            assert right == right_by_sort_and_bisect(g, k, left)
            passed += right is not None
        assert 0 < passed < 400


@st.composite
def graph_and_regime_k(draw, max_n: int = 10):
    """A graph whose highest ids may be isolated, and any regime k for it."""
    n = draw(st.integers(2, max_n))
    linked = n - draw(st.integers(0, n - 1))
    pairs = list(combinations(range(linked), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    k = draw(st.integers((n - 1) // 2, n - 2))
    return Graph(n, edges), k


def solve_per_left(g, k):
    """The sweep with no shared pools: every left gets its own chain and check."""
    for left in enumerate_left_partial_layouts(g, k):
        right = check_hall_and_build_right(build_blocked_index(g, left), g.n, k)
        if right is not None:
            return assemble_certificate(left, right, g, k)
    return None


class TestSolveComponent:
    @given(graph_and_regime_k())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_left_sweep(self, case):
        g, k = case
        assert recognition._solve_component(g, k) == solve_per_left(g, k)

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_matches_the_per_left_sweep_at_k_n_minus_2(self, rng, n):
        # One left position: every head is empty, so no head is ever dead.
        for _ in range(10):
            g = random_graph(rng, n, float(rng.uniform(0.3, 0.95)))
            assert recognition._solve_component(g, n - 2) == solve_per_left(g, n - 2)

    def test_negative_visits_every_left(self, monkeypatch):
        counts = {"heads": 0, "chains": 0, "checks": 0}
        enumerate_real = recognition.enumerate_left_partial_layouts
        index_real = recognition.build_blocked_index
        check_real = recognition.check_hall_and_build_right

        def counting_enumerate(g, k):
            for head in enumerate_real(g, k):
                counts["heads"] += 1
                yield head

        def counting_index(g, left):
            counts["chains"] += 1
            return index_real(g, left)

        def counting_check(chain, n, k):
            counts["checks"] += 1
            return check_real(chain, n, k)

        monkeypatch.setattr(recognition, "enumerate_left_partial_layouts", counting_enumerate)
        monkeypatch.setattr(recognition, "build_blocked_index", counting_index)
        monkeypatch.setattr(recognition, "check_hall_and_build_right", counting_check)
        g, _ = generate_negative_case(9, 4, seed=0)
        assert len(connected_components(g)) == 1
        assert recognize(g, 4).negative_reason == SEARCH_EXHAUSTED
        # The search draws heads, the lefts of k+1: every one of them.
        assert counts["heads"] == factorial(9) // factorial(6) == 504
        # One chain per head, and one more per left that gets a Hall check.
        assert counts["chains"] == 504 + counts["checks"]
        # Each head decides its n-w+1 = 6 lefts; a dead one spares their checks.
        assert counts["checks"] < 504 * (9 - 4 + 1) == 3024

    @pytest.mark.parametrize("n", range(3, 9))
    def test_heads_are_the_lefts_of_k_plus_1(self, n):
        # The prefixes left[:-1] of the k stream, in order, are the k+1 stream.
        g = empty_graph(n)
        for k in regime_ks(n):
            heads = list(dict.fromkeys(left[:-1] for left in enumerate_left_partial_layouts(g, k)))
            assert list(enumerate_left_partial_layouts(g, k + 1)) == heads

    def test_one_left_position_draws_its_head_from_the_enumerator(self, monkeypatch):
        calls = []
        real = recognition.enumerate_left_partial_layouts
        monkeypatch.setattr(
            recognition, "enumerate_left_partial_layouts", lambda g, k: calls.append((g.n, k)) or real(g, k)
        )
        g = cycle_graph(5)
        assert_certified(g, 3, recognize(g, 3))
        assert calls == [(5, 4)]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_the_per_left_sweep_on_every_small_graph(self, n):
        for g in all_graphs(n):
            for k in regime_ks(n):
                assert recognition._solve_component(g, k) == solve_per_left(g, k)


class TestAssembleCertificate:
    def test_edgeless_identity(self):
        g = empty_graph(6)
        cert = assemble_certificate((0, 1), [4, 5], g, 3)
        assert cert == [0, 1, 2, 3, 4, 5]
        assert layout_bandwidth(g, Layout.from_inverse(cert)) == 0

    def test_single_middle_slot(self):
        cert = assemble_certificate((3, 1), [0, 2], empty_graph(5), 2)
        # positions: left 0..1, middle 2, right 3..4
        assert cert == [3, 1, 4, 0, 2]

    def test_overlap_is_a_bug(self):
        with pytest.raises(RuntimeError):
            assemble_certificate((0, 1), [1, 5], empty_graph(6), 3)


class TestComponentView:
    @given(shuffled_unions(1, 5, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_subgraph_copy(self, g):
        # The masks recognize bounds and searches a component on are the
        # copy's, so every bound, verdict and certificate is the copy's too;
        # the bounds also match their definition, walked by a shortest-path
        # scan that shares nothing with bandwidth_bounds. One rank list
        # serves every view of the graph, as in recognize.
        rank = [0] * g.n
        for component in connected_components(g):
            if len(component) == 1:
                continue
            view = recognition._ComponentView(g.neighbor_masks, component, rank)
            sub, mapping = g.subgraph(component)
            assert mapping == component
            assert (view.n, view.neighbor_masks) == (sub.n, sub.neighbor_masks)
            bounds = bandwidth_bounds(view)
            assert bounds == bandwidth_bounds(sub)
            assert (bounds.alpha, bounds.gamma) == bounds_by_definition(sub)


class TestCertificateCheck:
    def test_matches_the_edge_walk(self, monkeypatch):
        # The check that recognize puts every yes certificate through must
        # return the layout exactly when the edge walk says "bandwidth at
        # most k", and raise otherwise, on both of its branches: w mask
        # tests while 3*w <= m, else the edge walk, which the patched module
        # global records.
        walked = []
        real = recognition.layout_bandwidth
        monkeypatch.setattr(recognition, "layout_bandwidth", lambda g, layout: walked.append(g) or real(g, layout))
        branches = set()

        @given(st.data())
        @settings(max_examples=300, deadline=None)
        def check(data):
            n = data.draw(st.integers(1, 14))
            pairs = list(combinations(range(n), 2))
            edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
            g = Graph(n, edges)
            layout = Layout(data.draw(st.permutations(range(n))))
            for k in range(n + 1):
                walked.clear()
                if layout_bandwidth(g, layout) <= k:
                    assert recognition._certify(g, list(layout.inverse), k) == layout
                else:
                    with pytest.raises(RuntimeError, match="^certificate has bandwidth above"):
                        recognition._certify(g, list(layout.inverse), k)
                edge_branch = 3 * (n - k - 1) > g.m
                assert walked == ([g] if edge_branch else [])
                branches.add(edge_branch)

        check()
        assert branches == {False, True}

    @pytest.mark.parametrize(
        "inverse", [[0, 1, 1, 3], [0, 1, 4, 3], [0, -1, 2, 3], [0, 1, 2]], ids=["repeat", "n", "-1", "short"]
    )
    def test_a_non_bijection_raises(self, inverse):
        # k = n-1 passes every bandwidth check, so only the bijection check can fire.
        with pytest.raises(RuntimeError, match="^certificate is not a bijection"):
            recognition._certify(path_graph(4), inverse, 3)


class TestRecognize:
    def test_complete_graph_cut_by_bounds(self):
        result = recognize(complete_graph(4), 2)
        assert not result.verdict
        assert result.certificate is None
        assert result.negative_reason == BOUNDS_CUTOFF

    def test_edgeless_identity_certificate(self):
        result = recognize(empty_graph(6), 3)
        assert result.verdict
        assert result.certificate == Layout.identity(6)

    def test_cycle(self):
        g = cycle_graph(5)
        assert exact_bandwidth_bruteforce(g) == 2
        assert_certified(g, 2, recognize(g, 2))

    def test_scrambled_banded_instance(self, rng):
        g = random_banded_matrix(GenParams(12, 8, 0.5, 424242))
        while True:
            relabeling = [int(x) for x in rng.permutation(12)]
            h = g.relabeled(relabeling)
            if layout_bandwidth(h, Layout.identity(12)) > 8:
                break
        assert_certified(h, 8, recognize(h, 8))

    def test_trivial_when_k_at_least_n_minus_1(self):
        result = recognize(complete_graph(4), 3)
        assert result.verdict
        assert result.certificate == Layout.identity(4)
        assert recognize(complete_graph(4), 99).verdict

    def test_trivial_k_on_a_disconnected_graph_is_rechecked(self, monkeypatch):
        # Each component is trivial at k = 3, laid out in ascending id, and
        # the concatenation goes through the same re-check as every yes.
        checked = []
        real = recognition._certify
        monkeypatch.setattr(recognition, "_certify", lambda g, inverse, k: checked.append(g) or real(g, inverse, k))
        g = Graph(4, [(0, 2)])
        result = recognize(g, 3)
        assert result.verdict
        assert result.certificate.inverse == (0, 2, 1, 3)
        assert checked == [g]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            recognize(path_graph(3), -1)

    def test_out_of_regime_component(self):
        # P_8 needs k >= 3 even though its bandwidth is 1
        with pytest.raises(OutOfRegimeError):
            recognize(path_graph(8), 2)
        # ... including when hidden inside a larger graph
        g = Graph(10, list(path_graph(8).edges) + [(8, 9)])
        with pytest.raises(OutOfRegimeError):
            recognize(g, 2)

    @pytest.mark.parametrize("in_regime", ["negative", "yes"])
    def test_answer_does_not_depend_on_which_component_comes_first(self, in_regime):
        # P_8 is below its floor at k=2. A search-negative piece answers no
        # in either id order; a yes piece leaves the raise in either order.
        piece = generate_negative_case(6, 2, seed=5)[0] if in_regime == "negative" else cycle_graph(5)
        for pieces in ([piece, path_graph(8)], [path_graph(8), piece]):
            g = disjoint_union(pieces, range(piece.n + 8))
            if in_regime == "negative":
                assert recognize(g, 2).negative_reason == SEARCH_EXHAUSTED
            else:
                with pytest.raises(OutOfRegimeError):
                    recognize(g, 2)

    def test_search_exhausted_reason(self):
        g, _ = generate_negative_case(6, 2, seed=5)
        result = recognize(g, 2)
        assert not result.verdict
        assert result.negative_reason == SEARCH_EXHAUSTED

    def test_connected_graph_is_not_copied(self, monkeypatch):
        def no_copy(self, nodes):
            raise AssertionError("subgraph of a connected graph")

        monkeypatch.setattr(Graph, "subgraph", no_copy)
        g = cycle_graph(5)
        assert_certified(g, 2, recognize(g, 2))

    def test_disconnected_graph_is_not_copied(self, monkeypatch):
        # Two C_5 with interleaved ids and an isolated node: both cycles are
        # bounded and searched on a view of g's masks, never on a copy.
        def no_copy(self, nodes):
            raise AssertionError("subgraph of a component")

        monkeypatch.setattr(Graph, "subgraph", no_copy)
        g = disjoint_union([cycle_graph(5), cycle_graph(5), Graph(1)], [0, 2, 4, 6, 8, 1, 3, 5, 7, 9, 10])
        assert_certified(g, 2, recognize(g, 2))

    def test_connected_graph_bounded_once(self, monkeypatch):
        bounded = []
        real = recognition.bandwidth_bounds
        monkeypatch.setattr(recognition, "bandwidth_bounds", lambda g: bounded.append(g) or real(g))
        g = cycle_graph(5)
        assert_certified(g, 2, recognize(g, 2))
        assert bounded == [g]

    def test_bounds_cutoff_wins_over_an_earlier_out_of_regime_component(self):
        # P_8 (out of regime at k=2) then K_4 (bandwidth 3): both say bandwidth > 2
        edges = list(path_graph(8).edges) + [(u + 8, v + 8) for u, v in complete_graph(4).edges]
        result = recognize(Graph(12, edges), 2)
        assert not result.verdict
        assert result.negative_reason == BOUNDS_CUTOFF

    def test_bounds_of_every_component_come_before_any_search(self, monkeypatch):
        neg, _ = generate_negative_case(6, 2, seed=5)
        edges = list(neg.edges) + [(u + 6, v + 6) for u, v in complete_graph(4).edges]
        solved = []
        real = recognition._solve_component
        monkeypatch.setattr(recognition, "_solve_component", lambda sub, k: solved.append(sub) or real(sub, k))
        result = recognize(Graph(10, edges), 2)
        assert not result.verdict
        assert result.negative_reason == BOUNDS_CUTOFF
        assert solved == []

    def test_certificates_match_the_reference_sweep(self, rng):
        # Byte for byte: the same left, middle and right as the sweep's
        # definition, on connected graphs at every regime k.
        searched = 0
        while searched < 60:
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n, float(rng.uniform(0.2, 0.7)))
            if len(connected_components(g)) != 1:
                continue
            searched += 1
            for k in regime_ks(n):
                result = recognize(g, k)
                expected = certificate_by_reference(g, k)
                assert result.verdict == (expected is not None), f"n={n} k={k} edges={g.edges}"
                if expected is not None:
                    assert result.certificate.inverse == expected, f"n={n} k={k} edges={g.edges}"

    @given(st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(st.just(k), shuffled_unions(2, 4, 2 * k + 2))))
    @settings(max_examples=80, deadline=None)
    def test_disconnected_certificates_match_the_reference_sweep(self, case):
        # Byte for byte on unions whose pieces are all in the regime: each
        # component's reference certificate on its subgraph copy, mapped
        # through the copy's ids, in order of smallest id; a trivial
        # component in ascending id.
        k, g = case
        expected = []
        for component in connected_components(g):
            if k >= len(component) - 1:
                expected.extend(component)
                continue
            sub, mapping = g.subgraph(component)
            local = certificate_by_reference(sub, k)
            if local is None:
                expected = None
                break
            expected.extend(mapping[v] for v in local)
        result = recognize(g, k)
        assert result.verdict == (expected is not None), f"k={k} edges={g.edges}"
        if expected is not None:
            assert result.certificate.inverse == tuple(expected), f"k={k} edges={g.edges}"

    def test_affirmative_builds_one_layout(self, monkeypatch):
        # The certificate check fills both maps itself, so the one layout of
        # a yes is made without Layout.__init__, and it equals the layout
        # the public constructor builds from the same positions.
        built = []
        init = Layout.__init__

        def counting_init(self, forward):
            built.append(tuple(forward))
            init(self, forward)

        monkeypatch.setattr(Layout, "__init__", counting_init)
        g = cycle_graph(5)
        result = recognize(g, 2)
        assert built == []
        monkeypatch.undo()
        assert result.certificate == Layout.from_inverse(result.certificate.inverse)
        assert layout_bandwidth(g, result.certificate) <= 2

    def test_disconnected_certificate_concatenation(self):
        # two C_5 copies: beta = 2, solvable per component at k = 2
        edges = list(cycle_graph(5).edges) + [(u + 5, v + 5) for u, v in cycle_graph(5).edges]
        g = Graph(10, edges)
        result = recognize(g, 2)
        assert_certified(g, 2, result)
        # first five positions hold the first component
        assert sorted(result.certificate.inverse[:5]) == [0, 1, 2, 3, 4]

    def test_mixed_component_sizes(self):
        # K_3 (trivial at k=2) plus C_5 (searched); order by smallest node id
        edges = [(0, 1), (0, 2), (1, 2)] + [(u + 3, v + 3) for u, v in cycle_graph(5).edges]
        g = Graph(8, edges)
        result = recognize(g, 2)
        assert_certified(g, 2, result)
        assert result.certificate.inverse[:3] == (0, 1, 2)

    def test_deterministic(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 10))
            g = random_graph(rng, n, 0.4)
            for k in regime_ks(n):
                first = recognize(g, k)
                second = recognize(g, k)
                assert first.verdict == second.verdict
                assert first.certificate == second.certificate
                assert first.negative_reason == second.negative_reason

    def test_agrees_with_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            beta = exact_bandwidth_bruteforce(g)
            for k in regime_ks(n):
                result = recognize(g, k)
                assert result.verdict == (beta <= k)
                if result.verdict:
                    assert_certified(g, k, result)

    def test_agrees_with_the_deadline_oracle_above_bruteforce(self, rng):
        # Connected graphs past brute force's n <= 9, at k = n-4 .. n-2.
        reasons = set()
        searched = 0
        while searched < 100:
            n = int(rng.integers(10, 13))
            g = random_graph(rng, n, float(rng.uniform(0.5, 0.95)))
            if len(connected_components(g)) != 1:
                continue
            searched += 1
            for k in range(n - 4, n - 1):
                result = recognize(g, k)
                assert result.verdict == bandwidth_at_most(g, k), f"n={n} k={k} edges={g.edges}"
                reasons.add(result.negative_reason)
        assert SEARCH_EXHAUSTED in reasons and None in reasons

    def test_concurrent_calls_share_graphs_safely(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        jobs = []
        for _ in range(12):
            n = int(rng.integers(6, 10))
            jobs.append((random_graph(rng, n, 0.4), int(rng.integers((n - 1) // 2, n - 1))))
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda job: recognize(*job), jobs))
        for (g, k), result in zip(jobs, results):
            assert result == recognize(g, k)

    def test_bad_certificate_raises_under_optimize(self):
        # A search that returns the identity for a relabelled path (stretch 5)
        # at k=4: the final certificate check must fire even with asserts off.
        # Alone the path has w=1 and m=5, so the mask tests catch it; with
        # six isolated nodes w=7 and m=5, so the edge walk must. A search
        # that places node 0 everywhere must fail the bijection check.
        script = textwrap.dedent(
            """
            import sys
            if __debug__:
                sys.exit("asserts are on; expected python -O")
            from bandrec import recognition
            from bandrec.families import path_graph
            from bandrec.graph import Graph

            recognition._solve_component = lambda sub, k: list(range(sub.n))
            path = path_graph(6).relabeled([0, 5, 1, 4, 2, 3])
            for g in (path, Graph(12, path.edges)):
                try:
                    recognition.recognize(g, 4)
                except RuntimeError as exc:
                    print("RuntimeError:", exc)
            recognition._solve_component = lambda sub, k: [0] * sub.n
            try:
                recognition.recognize(path, 4)
            except RuntimeError as exc:
                print("RuntimeError:", exc)
            """
        )
        src = str(Path(bandrec.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and all(line.startswith("RuntimeError: certificate") for line in lines), proc.stdout
        assert lines[2].startswith("RuntimeError: certificate is not a bijection"), proc.stdout


# Pieces whose answer at k alone is known, one of each kind of answer:
# "outside" is a path below its regime floor (it raises), "cut" a clique the
# bounds dismiss, "negative" a bounds-invisible negative the search must
# exhaust, and "yes" a scrambled affirmative.
PIECE_ANSWERS = {"outside": "raise", "cut": BOUNDS_CUTOFF, "negative": SEARCH_EXHAUSTED, "yes": True}


@cache
def answer_piece(kind, k, seed):
    if kind == "outside":
        return path_graph(2 * k + 3 + seed % 2)
    if kind == "cut":
        return complete_graph(k + 2)
    if kind == "negative":
        return generate_negative_case(2 * k + 2, k, seed)[0]
    return generate_affirmative_case(2 * k + 1, k, seed)[0]


def answer(g, k):
    """``recognize``'s answer: True, the negative reason, or "raise"."""
    try:
        result = recognize(g, k)
    except OutOfRegimeError:
        return "raise"
    if result.verdict:
        assert_certified(g, k, result)
        return True
    return result.negative_reason


@st.composite
def piece_unions(draw, kinds: tuple[str, ...] = tuple(sorted(PIECE_ANSWERS))):
    """Up to five answer pieces of the given kinds at k = 2 or 3, and a random id order."""
    k = draw(st.sampled_from([2, 3]))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    pieces = [answer_piece(kind, k, draw(st.integers(0, 2))) for kind in kinds]
    order = draw(st.permutations(range(sum(piece.n for piece in pieces))))
    return k, kinds, pieces, order


class TestMetamorphic:
    """Relations between answers that need no oracle, so they hold at any n."""

    def test_each_piece_answers_as_labelled(self):
        for kind, expected in PIECE_ANSWERS.items():
            for k in (2, 3):
                for seed in range(3):
                    assert answer(answer_piece(kind, k, seed), k) == expected

    @given(piece_unions())
    @settings(max_examples=120, deadline=None)
    def test_relabelling_keeps_the_answer(self, case):
        # The order and its reverse: near the identity, hypothesis's simplest
        # order, the reverse still puts the pieces' smallest ids the other way round.
        k, _, pieces, order = case
        assert answer(disjoint_union(pieces, order), k) == answer(disjoint_union(pieces, order[::-1]), k)

    @given(piece_unions())
    @settings(max_examples=120, deadline=None)
    def test_union_is_the_and_of_its_parts(self, case):
        # A three-valued AND: any no makes the union no, a bounds cutoff
        # winning over an exhausted search; otherwise any raise makes it
        # raise; otherwise it is yes.
        k, kinds, pieces, order = case
        parts = {PIECE_ANSWERS[kind] for kind in kinds}
        if BOUNDS_CUTOFF in parts:
            expected = BOUNDS_CUTOFF
        elif SEARCH_EXHAUSTED in parts:
            expected = SEARCH_EXHAUSTED
        elif "raise" in parts:
            expected = "raise"
        else:
            expected = True
        assert answer(disjoint_union(pieces, order), k) == expected

    @given(piece_unions(kinds=("yes",)))
    @settings(max_examples=60, deadline=None)
    def test_yes_stays_yes_at_k_plus_1(self, case):
        # Each yes piece has 2k+1 nodes, so it is searched at k+1 too.
        k, _, pieces, order = case
        g = disjoint_union(pieces, order)
        assert answer(g, k) is True
        assert answer(g, k + 1) is True

    @given(piece_unions(kinds=("yes",)), st.integers(min_value=0))
    @settings(max_examples=60, deadline=None)
    def test_deleting_an_edge_keeps_yes(self, case, pick):
        # A layout keeps its bandwidth on a subgraph, and every component
        # keeps at most 2k+1 nodes, so it stays in the regime.
        k, _, pieces, order = case
        g = disjoint_union(pieces, order)
        assert answer(g, k) is True
        gone = g.edges[pick % g.m]
        assert answer(Graph(g.n, [edge for edge in g.edges if edge != gone]), k) is True


class TestConstructiveNegatives:
    """Negatives by proof (see ``constructive_negatives``), so every engine
    is checked against a label that no engine produced, above brute force's
    ``n = 9`` too. Widths stay at 2 and 3: ``w = 4`` at ``n = 16`` already
    costs ``recognize`` milliseconds per call."""

    @staticmethod
    def assert_proof_holds(g, k):
        # The proof's premise on the drawn graph: exactly two nodes miss at
        # least w = n-k-1 others, and they are adjacent.
        wide = [v for v in range(g.n) if g.n - 1 - g.degree(v) >= g.n - k - 1]
        assert len(wide) == 2 and g.adjacent(*wide)

    @given(constructive_negatives(min_n=10, max_n=24))
    @settings(max_examples=60, deadline=None)
    def test_every_engine_says_no_above_bruteforce(self, case):
        g, k = case
        self.assert_proof_holds(g, k)
        # Node x reaches all but w nodes in one hop and the rest in two, so
        # gamma <= n-w-1 = k, and alpha <= ceil((n-1)/2) <= k: the bounds
        # cannot cut, and the search decides.
        assert recognize(g, k) == recognition.RecognitionResult(False, None, SEARCH_EXHAUSTED)
        assert not bandwidth_at_most(g, k)

    @given(constructive_negatives(min_n=6, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_bruteforce_confirms_the_family(self, case):
        g, k = case
        self.assert_proof_holds(g, k)
        assert exact_bandwidth_bruteforce(g) > k
        assert recognize(g, k) == recognition.RecognitionResult(False, None, SEARCH_EXHAUSTED)
        assert not bandwidth_at_most(g, k)
