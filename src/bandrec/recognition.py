"""Bandwidth recognition for large targets via a marriage-condition check.

Deciding whether a graph admits a layout of bandwidth at most ``k`` only
requires choosing which nodes occupy the first ``n-k-1`` and last ``n-k-1``
positions: every other pair of positions is within ``k`` of each other. The
recognizer therefore enumerates the left partial layouts, the tuples of
distinct nodes for the leftmost positions, and for each decides in
near-linear time whether the rightmost positions can be filled compatibly.
That feasibility question is a bipartite matching whose structure is nested,
so it collapses to ``n-k-1`` counting checks: position ``k+j+1`` may hold
any node of the pool ``A_j``, the unplaced nodes not adjacent to the left
nodes at indices ``<= j``, and a compatible assignment of all right
positions exists iff ``|A_j| >= n-k-j-1`` for every ``j``.

The pools are bitmasks over the node ids. One pass over the left nodes
builds the chain ``(unplaced, A_0, ..., A_{n-k-2})``, each pool from the one
before by clearing a neighbour mask (``A_j = A_{j-1} & ~N(left[j])``), and
each check is one popcount. When every check passes, the chain's layers (the
nodes that leave it at ``A_j``, then those that never leave) in ascending id
order yield a valid right assignment: its last ``n-k-1`` nodes. The
remaining nodes fill the middle positions, in ascending id order, and the
component's certificate is the position -> node list left, middle, right.

The search walks heads, a head being all of a left but its last node. The
heads of the ``k`` stream are exactly the lefts of ``k+1``, in the same
lexicographic order, so they come from the same enumeration; with one left
position, that is the one empty left of ``k+1 = n-1``. A head's chain
``(unplaced', B_0, ..., B_{n-k-3})`` comes from the same pass as a left's,
and a left's pool ``A_j`` is its head's ``B_j`` less at most the left's last
node, so a head pool below its need rules out every completion: a dead head
is passed over with none of its lefts drawn. Each left of a live head, last
node ascending, gets its own chain and check. Every left is still decided,
but a negative component pays per head, ``n!/(k+2)!`` of them, plus the
lefts of the live ones; the paper's ``O(n^(n-k+1))`` stays an upper bound.

This is worthwhile only when ``k >= floor((n-1)/2)``; below that the left
and right position blocks would overlap and the decomposition breaks down.
A component outside the regime raises :class:`OutOfRegimeError` rather than
silently falling back to another method, unless another component already
proves the answer is no.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Sequence

from .bounds import bandwidth_bounds
from .graph import Graph, Layout, _integer, connected_components, layout_bandwidth

BOUNDS_CUTOFF = "bounds_cutoff"
SEARCH_EXHAUSTED = "search_exhausted"


class OutOfRegimeError(ValueError):
    """Raised when some component needs k below half its size, where the
    left/right position split that the algorithm relies on does not exist."""


def coerce_k(k) -> int:
    """``k`` read by the package's integer rule, the one that seeds share
    (``operator.index``; ``bool`` or a non-integer raises ``TypeError``),
    with floor 0: a negative ``k`` raises ``ValueError``
    (``k must be a nonnegative integer, got -1``)."""
    return _integer(k, "k", 0)


def regime_floor(size: int) -> int:
    """The least ``k`` the method handles on ``size`` nodes: ``floor((size-1)/2)``."""
    return (size - 1) // 2


def require_regime(size: int, k: int) -> None:
    """Raise :class:`OutOfRegimeError` when ``k`` is below ``regime_floor(size)``."""
    if k < regime_floor(size):
        raise OutOfRegimeError(f"size {size} needs k >= {regime_floor(size)}, got k={k}")


@dataclass(frozen=True)
class RecognitionResult:
    """Verdict plus certificate layout (on success) or the reason it failed.

    ``negative_reason`` is ``"bounds_cutoff"`` when a lower bound already
    exceeds k, or ``"search_exhausted"`` when the search decided every left
    and found no feasible layout.
    """

    verdict: bool
    certificate: Layout | None = None
    negative_reason: str | None = None


def enumerate_left_partial_layouts(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Every left partial layout of ``g`` w.r.t. bandwidth ``k``, once each.

    A left partial layout is the tuple of ``n-k-1`` distinct nodes for the
    positions ``0..n-k-2``. The stream is lexicographic and contains exactly
    ``n! / (k+1)!`` tuples, so at ``k = n-1`` it is the one empty left; only
    O(n) state is held at a time. ``k`` goes through :func:`coerce_k`, and
    the call itself raises :class:`OutOfRegimeError` for a ``k`` below the
    regime floor and ``ValueError`` for one above ``n-1``. ``g`` may be a
    :class:`Graph` or ``recognize``'s component view: only ``g.n`` is read.
    """
    n = g.n
    k = coerce_k(k)
    require_regime(n, k)
    if k > n - 1:
        raise ValueError(f"k={k} is above n-1={n - 1}, so there are no left partial layouts")
    return permutations(range(n), n - k - 1)


def build_blocked_index(g: Graph, left: Sequence[int]) -> tuple[int, ...]:
    """The pool chain ``(unplaced, A_0, ..., A_{n-k-2})`` of ``left``, as bitmasks.

    ``unplaced`` holds the nodes off ``left``, and ``A_j`` those of them
    adjacent to none of ``left[0..j]``. The pools are nested, so a node
    leaves the chain at most once. ``g`` may be a :class:`Graph` or
    ``recognize``'s component view: only ``g.n`` and ``g.neighbor_masks``
    are read.
    """
    masks = g.neighbor_masks
    pool = (1 << g.n) - 1
    for u in left:
        pool &= ~(1 << u)
    chain = [pool]
    for u in left:
        pool &= ~masks[u]
        chain.append(pool)
    return tuple(chain)


def _short(chain: Sequence[int], need: int) -> bool:
    # Whether some pool chain[j+1] holds fewer than need-j nodes: the Hall
    # counting rule, shared by a left's chain and a head's pools.
    for pool in chain[1:]:
        if pool.bit_count() < need:
            return True
        need -= 1
    return False


def check_hall_and_build_right(chain: Sequence[int], n: int, k: int) -> list[int] | None:
    """Feasibility check for the right positions, and the assignment when it holds.

    ``chain`` is :func:`build_blocked_index`'s. Check ``j`` compares the
    popcount of the pool ``A_j = chain[j+1]`` with ``n-k-j-1``; the first
    failing check returns ``None``. Only when every check passes is ``right``
    built, where ``right[j]`` is the node for position ``k+j+1``: the last
    ``n-k-1`` nodes of the chain's layers in order, each layer in ascending
    node id.
    """
    width = n - k - 1
    if _short(chain, width):
        return None
    # The last nodes of the layer order, taken from the top down: the highest
    # ids of the never-blocked layer (the last pool) first, then of each
    # layer below it.
    right: list[int] = []
    above = 0
    for pool in reversed(chain):
        layer = pool & ~above
        above = pool
        while layer and len(right) < width:
            top = layer.bit_length() - 1
            right.append(top)
            layer ^= 1 << top
    right.reverse()
    return right


def assemble_certificate(left: Sequence[int], right: Sequence[int], g: Graph, k: int) -> list[int]:
    """Extend a feasible (left, right) pair to a full layout, as a position -> node list.

    Left nodes take positions ``0..n-k-2`` and right nodes ``k+1..n-1``; the
    remaining ``2k-n+2`` nodes fill the middle positions ``n-k-1..k`` in
    ascending id order. Overlapping left/right images indicate a bug in the
    caller and raise ``RuntimeError``. ``g`` may be a :class:`Graph` or
    ``recognize``'s component view: only ``g.n`` is read.
    """
    used = set(left)
    used.update(right)
    if len(used) != len(left) + len(right):
        raise RuntimeError("left and right partial layouts overlap; this should be unreachable")
    return [*left, *(v for v in range(g.n) if v not in used), *right]


def _solve_component(g: Graph, k: int) -> list[int] | None:
    # The paper's sweep over one connected component, by the module
    # docstring's head walk: the certificate as a position -> node list, or
    # None = infeasible. g is a Graph or recognize's component view: only n
    # and neighbor_masks are read.
    n = g.n
    width = n - k - 1
    for head in enumerate_left_partial_layouts(g, k + 1):
        chain = build_blocked_index(g, head)
        if _short(chain, width):
            continue
        unplaced = chain[0]
        for c in range(n):
            if unplaced >> c & 1:
                left = (*head, c)
                right = check_hall_and_build_right(build_blocked_index(g, left), n, k)
                if right is not None:
                    return assemble_certificate(left, right, g, k)
    return None


def _certify(g: Graph, inverse: Sequence[int], k: int) -> Layout:
    # recognize's certificate as a Layout, once the position -> node list
    # inverse places each node of g once (that check fills forward) and has
    # bandwidth at most k; RuntimeError otherwise, by raises that run under
    # python -O. An edge stretched beyond k has its right end at some
    # p >= k+1 and its left end at a position <= p-k-1, so it shows as a
    # bit of far, the nodes at those positions, in the mask of the node at
    # p: n-k-1 mask tests. The masks and the edges are written by one
    # function, so they agree. A mask step costs two to three edge steps,
    # so when 3*w > m (a sparse graph, a wide w) the edge walk runs instead.
    n = g.n
    if len(inverse) != n:
        raise RuntimeError(f"certificate is not a bijection: {len(inverse)} positions for n={n}")
    forward = [-1] * n
    for p, v in enumerate(inverse):
        if not 0 <= v < n or forward[v] != -1:
            raise RuntimeError(f"certificate is not a bijection: node {v} at position {p} for n={n}")
        forward[v] = p
    certificate = Layout._of(tuple(forward), tuple(inverse))
    if 3 * (n - k - 1) > g.m:
        if layout_bandwidth(g, certificate) <= k:
            return certificate
    else:
        masks = g.neighbor_masks
        far = 0
        for p in range(k + 1, n):
            far |= 1 << inverse[p - k - 1]
            if masks[inverse[p]] & far:
                break
        else:
            return certificate
    raise RuntimeError(f"certificate has bandwidth above k={k}; this should be unreachable")


class _ComponentView:
    # One connected component of a graph, over local ids: node i is the
    # component's i-th smallest id. It holds only what the bounds and the
    # search read of a Graph, n and neighbor_masks. rank is a list indexed
    # by the graph's ids, shared by every view of one recognize call: each
    # view writes its members' local ids into it, then sets both bits of
    # each edge from its smaller end u, the bits of masks[u] above u. There
    # are no id checks, sort, edge list or _fill: connected_components' ids
    # are distinct, sorted and in range, and a member's neighbours are all
    # members, so every rank read was written by this view.
    __slots__ = ("n", "neighbor_masks")

    def __init__(self, masks: Sequence[int], component: Sequence[int], rank: list[int]) -> None:
        for i, v in enumerate(component):
            rank[v] = i
        view = [0] * len(component)
        for i, u in enumerate(component):
            above = masks[u] >> u + 1
            while above:
                low = above & -above
                j = rank[low.bit_length() + u]
                view[i] |= 1 << j
                view[j] |= 1 << i
                above ^= low
        self.n = len(component)
        self.neighbor_masks = tuple(view)


def recognize(g: Graph, k: int) -> RecognitionResult:
    """Decide whether ``g`` has bandwidth at most ``k``; certify when it does.

    ``k`` goes through :func:`coerce_k`. The verdict is exact, and it does
    not depend on the node ids. A component with ``k >= n_C - 1`` is
    trivially laid out, its nodes in ascending id (so ``k >= n-1`` on a
    connected graph gives the identity). Every other component is bounded
    and searched on ``g`` itself when ``g`` is connected, and otherwise on a
    view of its neighbour masks over local ids, node ``i`` being its
    ``i``-th smallest id, with no :meth:`Graph.subgraph` copy: the local ids
    are the copy's, so the certificate is too. The views of one call read
    their local ids from one rank list, allocated per call and refilled per
    component, and take each edge once, from its smaller end. Each such
    component gets its lower bounds once, before any search: if one exceeds
    ``k`` the answer is a negative ``bounds_cutoff``, whichever component it
    is. Then every component with ``k >= floor((n_C - 1) / 2)`` is solved,
    in order of its smallest node id; a negative once every left of one of
    them is decided reports ``search_exhausted``, whichever component it
    is. Only when all of them say yes does a component below that floor
    raise :class:`OutOfRegimeError`. Otherwise the components' certificate
    layouts, mapped back to ids, are concatenated (a connected graph's is
    taken as it stands), and the whole certificate is re-checked in one
    pass that also builds the returned :class:`~bandrec.graph.Layout`. It
    must place each node exactly once, and have bandwidth at most ``k``,
    checked in ``w = n-k-1`` mask tests: for each position ``p`` from
    ``k+1`` to ``n-1``, the node at ``p`` must be adjacent to none of the
    nodes at positions ``0..p-k-1``. When ``3*w > m`` a walk over the ``m``
    edges is cheaper, and :func:`~bandrec.graph.layout_bandwidth` checks
    the same layout instead. A failed check raises ``RuntimeError``.
    """
    n = g.n
    k = coerce_k(k)

    # Whole-graph alpha is the largest component alpha and whole-graph gamma
    # the smallest component gamma, and a component with k >= n_C - 1 has
    # both at most k; so a whole-graph bound above k is always a bound above
    # k of one of the components bounded here.
    parts: list[tuple[Graph | _ComponentView | None, Sequence[int]]] = []
    outside: list[int] = []
    rank = [0] * n
    for component in connected_components(g):
        size = len(component)
        if k >= size - 1:
            # Any ordering works; ascending ids keep the result deterministic.
            parts.append((None, component))
            continue
        sub = g if size == n else _ComponentView(g.neighbor_masks, component, rank)
        if k < bandwidth_bounds(sub).combined:
            return RecognitionResult(False, None, BOUNDS_CUTOFF)
        if k < regime_floor(size):
            outside.append(size)
        else:
            parts.append((sub, component))

    inverse: list[int] = []
    for sub, mapping in parts:
        if sub is None:
            inverse.extend(mapping)
            continue
        order = _solve_component(sub, k)
        if order is None:
            return RecognitionResult(False, None, SEARCH_EXHAUSTED)
        if sub is g:
            # The one component spans g, so its local ids are g's.
            inverse = order
        else:
            inverse.extend(map(mapping.__getitem__, order))
    if outside:
        require_regime(outside[0], k)
    return RecognitionResult(True, _certify(g, inverse, k))
