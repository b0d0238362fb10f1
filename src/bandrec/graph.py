"""Core graph and layout types shared by every other module.

Nodes are dense integers ``0..n-1``; any external labelling must be resolved
before construction. Graphs are undirected and simple (no self-loops).
:class:`Graph` and :class:`Layout` are frozen, slotted dataclasses with
hand-written ``__init__``s, so they compare, hash, copy and pickle by value.
One function writes both stored forms of a graph, the sorted edge tuple and
the per-node bitmasks built from it, and refuses zero nodes. Edge queries
test one bit; breadth-first walks OR a frontier's masks, each with its own
inlined set-bit loop.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence


def _integer(v: object, what: str) -> int:
    # The one integer check of the package, for node ids, n and k: an
    # integer by operator.index, with bool refused though it is an int.
    if type(v) is bool:
        raise TypeError(f"{what} must be an integer, not bool: {v!r}")
    return operator.index(v)


def _node(v: object, n: int) -> int:
    # A node id: an integer within 0..n-1.
    v = _integer(v, "a node id")
    if not (0 <= v < n):
        raise ValueError(f"node {v} out of range for n={n}")
    return v


def _fill(g: Graph, n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    # The one writer of a Graph's fields. ``edges`` must be valid, normalised
    # to u < v and sorted; the masks are built from them, so the two agree.
    if n < 1:
        raise ValueError("graph needs at least one node (bandwidth of the empty graph is undefined)")
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", tuple(edges))
    object.__setattr__(g, "neighbor_masks", tuple(masks))
    return g


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Graph:
    """Undirected simple graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Node count, at least 1, coerced like an endpoint. The empty graph on
        zero nodes is rejected because its bandwidth is undefined.
    edges:
        Iterable of node pairs. Endpoints are coerced to ``int`` with
        ``operator.index`` (``bool`` raises ``TypeError``). Pairs are
        normalised to ``u < v`` and de-duplicated; self-loops and
        out-of-range endpoints raise ``ValueError``.

    The field ``neighbor_masks`` holds the per-node adjacency bitmasks: bit
    ``v`` of entry ``u`` is set iff ``{u, v}`` is an edge. It and the sorted
    edge tuple ``edges`` are written together by one function, so they
    always agree and every graph has a node; equality and hashing read ``n``
    and ``edges``. Instances are frozen and safe to share across threads.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    neighbor_masks: tuple[int, ...] = field(compare=False)

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()) -> None:
        n = _integer(n, "the node count")
        normalized = set()
        for u, v in edges:
            # Plain in-range ints skip _node, which checks every other id.
            u = u if type(u) is int and 0 <= u < n else _node(u, n)
            v = v if type(v) is int and 0 <= v < n else _node(v, n)
            if u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
            normalized.add((u, v) if u < v else (v, u))
        _fill(self, n, sorted(normalized))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def adjacent(self, u: int, v: int) -> bool:
        """Constant-time edge query."""
        return bool(self.neighbor_masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.neighbor_masks[v].bit_count()

    def relabeled(self, mapping: Sequence[int]) -> "Graph":
        """Graph with node ``v`` renamed to ``mapping[v]``.

        Entries are coerced like node ids (``operator.index``; ``bool``
        raises ``TypeError``), and the mapping must be a bijection onto
        ``0..n-1`` (``ValueError`` otherwise).
        """
        mapping = [x if type(x) is int else _integer(x, "a node id") for x in mapping]
        if sorted(mapping) != list(range(self.n)):
            raise ValueError("relabeling must be a bijection onto 0..n-1")
        # A bijection maps distinct valid edges to distinct valid edges, so
        # normalising and one sort make them ready for _fill.
        edges = []
        for u, v in self.edges:
            u, v = mapping[u], mapping[v]
            edges.append((u, v) if u < v else (v, u))
        edges.sort()
        return _fill(object.__new__(Graph), self.n, edges)

    def subgraph(self, nodes: Sequence[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``nodes``, relabelled to ``0..len(nodes)-1``.

        Returns the subgraph together with the local-to-original node mapping
        (``mapping[local] == original``). ``nodes`` must be distinct node ids
        of this graph, checked as :class:`Graph` checks edge endpoints, and
        non-empty: a graph has at least one node.
        """
        ids = [_node(v, self.n) for v in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("subgraph nodes must be distinct")
        mapping = tuple(sorted(ids))
        local = {orig: i for i, orig in enumerate(mapping)}
        kept = [(local[u], local[v]) for u, v in self.edges if u in local and v in local]
        return Graph(len(mapping), kept), mapping

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, slots=True, init=False)
class Layout:
    """Bijection from nodes to positions ``0..n-1``.

    ``forward[v]`` is the position of node ``v``; ``inverse[p]`` is the node
    at position ``p``. Entries are coerced like node ids (``operator.index``;
    ``bool`` raises ``TypeError``), so both maps hold plain ``int``s.
    Construction validates bijectivity, so every Layout in circulation
    satisfies ``inverse[forward[v]] == v``; the one unchecked constructor
    is private, and its callers check both maps themselves. Equality and
    hashing read ``forward`` only, since ``inverse`` follows from it.
    """

    forward: tuple[int, ...]
    inverse: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, forward: Sequence[int]) -> None:
        forward = tuple([p if type(p) is int else _integer(p, "a position") for p in forward])
        n = len(forward)
        if n < 1:
            raise ValueError("layout needs at least one node")
        inverse = [-1] * n
        for v, pos in enumerate(forward):
            if not (0 <= pos < n) or inverse[pos] != -1:
                raise ValueError("layout is not a bijection onto 0..n-1")
            inverse[pos] = v
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", tuple(inverse))

    @classmethod
    def identity(cls, n: int) -> "Layout":
        return cls(range(_integer(n, "the node count")))

    @classmethod
    def from_inverse(cls, inverse: Sequence[int]) -> "Layout":
        """Build from a position -> node sequence."""
        # Read as a forward map, ``inverse`` is the inverse layout, which
        # __init__ validates; swapping its two maps gives the layout wanted.
        flipped = cls(inverse)
        return cls._of(flipped.inverse, flipped.forward)

    @classmethod
    def _of(cls, forward: tuple[int, ...], inverse: tuple[int, ...]) -> "Layout":
        # A layout from its two maps as they stand, with no coercion or
        # check: the caller has made them mutually inverse tuples of plain
        # ints, as from_inverse and recognize's certificate check do.
        layout = object.__new__(cls)
        object.__setattr__(layout, "forward", forward)
        object.__setattr__(layout, "inverse", inverse)
        return layout

    @property
    def n(self) -> int:
        return len(self.forward)

    def reversed(self) -> "Layout":
        """Mirror layout ``v -> n-1-forward[v]``; preserves layout bandwidth."""
        n = self.n
        return Layout([n - 1 - p for p in self.forward])


def layout_bandwidth(g: Graph, layout: Layout) -> int:
    """Largest position difference across an edge under ``layout``.

    Returns 0 for edgeless graphs. Raises ``ValueError`` when the layout's
    size does not match the graph.
    """
    if layout.n != g.n:
        raise ValueError(f"layout size {layout.n} does not match graph size {g.n}")
    forward = layout.forward
    best = 0
    for u, v in g.edges:
        d = forward[u] - forward[v]
        if d < 0:
            d = -d
        if d > best:
            best = d
    return best


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """BFS partition into connected components, each sorted, ordered by smallest node id."""
    # A breadth-first closure per component, grown from its smallest
    # unassigned node, with the set-bit loop inlined.
    # Each node is in exactly one frontier, so it is listed as that frontier
    # is expanded, and each component's list is sorted once.
    masks = g.neighbor_masks
    components: list[tuple[int, ...]] = []
    unassigned = (1 << g.n) - 1
    while unassigned:
        member = frontier = unassigned & -unassigned
        nodes = []
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                nodes.append(v)
                reach |= masks[v]
                frontier ^= low
            frontier = reach & ~member
            member |= frontier
        unassigned ^= member
        nodes.sort()
        components.append(tuple(nodes))
    return tuple(components)
