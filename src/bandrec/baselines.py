"""Reference implementations used as correctness oracles.

``naive_recognition`` decides the same question as the fast recognizer by
the direct definition, with its own loop and its own certificate: try every
left layout against every right layout, and test each right node against
the neighbourhoods of the left nodes more than ``k`` positions away.
``exact_bandwidth_bruteforce`` minimises the layout bandwidth over every
layout outright, read from a cached column-major table of the n!/2 layouts
that put node 0 left of node 1 (each other layout is the reverse of one of
these). Both are meant for small n. ``bandwidth_at_most`` decides
bandwidth <= k at any n by a deadline search over positions, and labels
every generated negative. The oracles share only the ``k`` input check
:func:`~bandrec.recognition.coerce_k` with the fast path (and
``naive_recognition`` its regime rule,
:func:`~bandrec.recognition.require_regime`), so they have something
independent to disagree with.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, permutations
from math import factorial

import numpy as np

from .graph import Graph, Layout
from .recognition import SEARCH_EXHAUSTED, RecognitionResult, coerce_k, require_regime

BRUTEFORCE_MAX_NODES = 9


def naive_recognition(g: Graph, k: int) -> RecognitionResult:
    """Pair-enumeration recognizer: every left layout against every right layout.

    O(n^(2(n-k))) time; intended for n <= 10. Left layouts fill positions
    ``0..n-k-2`` and right layouts ``k+1..n-1``, both in lexicographic order;
    the first compatible pair is completed with the middle nodes in ascending
    id. ``k`` is coerced as :func:`~bandrec.recognition.recognize` coerces
    it, but the regime floor applies to the whole graph, not per component:
    a disconnected graph that ``recognize`` decides can raise
    :class:`~bandrec.recognition.OutOfRegimeError` here.
    """
    n = g.n
    k = coerce_k(k)
    if k >= n - 1:
        return RecognitionResult(True, Layout.identity(n))
    require_regime(n, k)

    masks = g.neighbor_masks
    width = n - k - 1
    for left in permutations(range(n), width):
        rest = [v for v in range(n) if v not in left]
        # right[j] sits more than k from left[0..j] only, so it must avoid
        # the union of their neighbourhoods: one bit test per right position.
        # Position 0 is also tested before the loop: 60-87% of the pairs in
        # the test suite's naive runs fail there, and skipping the zip for
        # them cuts the oracle's time there by 27-62%.
        unions = []
        union = 0
        for u in left:
            union |= masks[u]
            unions.append(union)
        first = unions[0]
        for right in permutations(rest, width):
            if first >> right[0] & 1:
                continue
            for union, v in zip(unions, right):
                if union >> v & 1:
                    break
            else:
                middle = [v for v in rest if v not in right]
                return RecognitionResult(True, Layout.from_inverse([*left, *middle, *right]))
    return RecognitionResult(False, None, SEARCH_EXHAUSTED)


@cache
def _half_table(n: int) -> np.ndarray:
    # Column-major (n, n!/2) int8 table, cached per process: entry [u, j] is
    # the position of node u in layout j, and the layouts are those with
    # node 0 left of node 1, in lexicographic order. One block per position
    # pair (a, b) of nodes 0 and 1: the other n-2 nodes take the remaining
    # positions in every order, and the block is transposed into its slice
    # of the preallocated table. Only the kept half is ever generated, so the
    # build peaks at about the table's own size (1.6 MB at n = 9).
    size = factorial(n - 2)
    pos = np.empty((n, n * (n - 1) // 2 * size), dtype=np.int8)
    for i, (a, b) in enumerate(combinations(range(n), 2)):
        rest = [p for p in range(n) if p != a and p != b]
        flat = chain.from_iterable(permutations(rest))
        block = np.fromiter(flat, np.int8, count=(n - 2) * size).reshape(size, n - 2)
        cols = slice(i * size, (i + 1) * size)
        pos[0, cols] = a
        pos[1, cols] = b
        pos[2:, cols] = block.T
    return pos


def exact_bandwidth_bruteforce(g: Graph) -> int:
    """Exact bandwidth by exhaustive minimisation over all n! layouts.

    Guarded to n <= 9; larger inputs raise ``ValueError``. Only the n!/2
    layouts with node 0 left of node 1 are scanned. That loses nothing: the
    reverse ``v -> n-1-pos[v]`` of a layout has the same edge gaps, and it
    puts node 0 left of node 1 exactly when the layout does not. The table
    is column-major, so ``pos[u]`` is one contiguous row of node ``u``'s
    positions, and each edge costs three contiguous int8 passes (subtract,
    abs, maximum) over n!/2 entries: about 0.6 ms for a 9-node negative.
    """
    if g.n > BRUTEFORCE_MAX_NODES:
        raise ValueError(
            f"brute-force bandwidth is limited to n <= {BRUTEFORCE_MAX_NODES}, got n={g.n}"
        )
    if not g.edges:
        return 0
    pos = _half_table(g.n)
    worst = np.zeros(pos.shape[1], dtype=np.int8)
    # One gap buffer for every edge: a fresh temporary per edge is mapped
    # and freed each time, which nearly doubles the call.
    gap = np.empty_like(worst)
    for u, v in g.edges:
        np.subtract(pos[u], pos[v], out=gap)
        np.abs(gap, out=gap)
        np.maximum(worst, gap, out=worst)
    return int(worst.min())


def bandwidth_at_most(g: Graph, k: int) -> bool:
    """Whether ``g`` has bandwidth at most ``k``, by a deadline search over positions.

    Each connected component is decided on its own, since a graph's
    bandwidth is the largest of its components'. A component of at most
    ``k+1`` nodes fits in any order, as no two of its positions are more
    than ``k`` apart, so it is never searched. A depth-first search fills
    the component's positions left to right. A node placed at position
    ``q`` gives each unplaced neighbour the deadline ``q + k``; an unplaced
    node's deadline is the earliest such one, or the last position when it
    has no placed neighbour. Before position ``p`` is filled, the ``i``-th
    earliest deadline must be at least ``p + i``, or those ``i+1`` nodes
    cannot all be placed in time, and the branch is cut. This is the
    positional search of Saxe (1980) and of MB-ID (Del Corso & Manzini,
    *Computing* 1999). ``k`` goes through
    :func:`~bandrec.recognition.coerce_k`, and there is no regime floor.
    The search is exponential in the worst case.
    """
    k = coerce_k(k)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    unseen = set(range(g.n))
    while unseen:
        component = {min(unseen)}
        frontier = list(component)
        while frontier:
            for u in adj[frontier.pop()]:
                if u not in component:
                    component.add(u)
                    frontier.append(u)
        unseen -= component
        if len(component) > k + 1 and not _lay_out(adj, component, k):
            return False
    return True


def _lay_out(adj: list[list[int]], unplaced: set[int], k: int) -> bool:
    # The deadline search over one component's nodes, which it consumes:
    # True iff they fill positions 0..size-1 with every edge within k.
    # stack[p] iterates the candidates for position p, sorted when the search
    # reached p; placed[p] is the node at p and the deadlines it moved.
    deadline = dict.fromkeys(unplaced, len(unplaced) - 1)
    stack = [iter(sorted(unplaced))]
    placed: list[tuple[int, list[tuple[int, int]]]] = []
    while stack:
        p = len(stack) - 1
        if len(placed) > p:  # every completion of placed[p] failed: undo it
            v, moved = placed.pop()
            for u, d in moved:
                deadline[u] = d
            unplaced.add(v)
        for v in stack[p]:
            unplaced.remove(v)
            moved = [(u, deadline[u]) for u in adj[v] if u in unplaced and deadline[u] > p + k]
            for u, _ in moved:
                deadline[u] = p + k
            # The i-th earliest deadline left must reach position p+1+i.
            ordered = sorted(deadline[u] for u in unplaced)
            if all(d > p + i for i, d in enumerate(ordered)):
                placed.append((v, moved))
                break
            for u, d in moved:
                deadline[u] = d
            unplaced.add(v)
        else:
            stack.pop()
            continue
        if not unplaced:
            return True
        stack.append(iter(sorted(unplaced)))
    return False
