"""Lower bounds on graph bandwidth from hop-neighbourhood growth.

Both bounds scan every node's cumulative neighbourhood sizes: a node with
many nodes within distance d forces large label gaps no matter how it is
placed. The sweep runs one bitmask BFS per node over the graph's neighbour
masks, ORing each reachable node's mask at most once and adding up each
layer's popcount, so it costs O(n^2) big-integer operations and O(n)
auxiliary space. A node's walk at depth d stops as soon as its ratio so far
is at least ceil((n-1)/(d+1)): no neighbourhood holds more than n-1 nodes,
so no deeper layer can raise it. On a connected graph this stops every walk
no later than reaching the whole graph would, and often well before. Within
a layer, the expansion stops as soon as the nodes reached so far are all n
nodes: OR is monotone, so a full mask stays full and the rest of the layer's
masks cannot change it. That stop never fires on a disconnected graph, whose
walks never reach every node. For a disconnected graph the scan is confined
to each node's own component, which keeps both quantities valid lower
bounds on the overall bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


@dataclass(frozen=True)
class BandwidthBounds:
    """The pair of bounds plus their maximum, used as one cutoff value."""

    alpha: int
    gamma: int

    @property
    def combined(self) -> int:
        return max(self.alpha, self.gamma)


def alpha_bound(g: Graph) -> int:
    """Max over nodes of the halved neighbourhood-growth ratio."""
    return bandwidth_bounds(g).alpha


def gamma_bound(g: Graph) -> int:
    """Min over nodes of the full neighbourhood-growth ratio.

    Any isolated node drives this to 0 (its inner maximum is empty).
    """
    return bandwidth_bounds(g).gamma


def bandwidth_bounds(g: Graph) -> BandwidthBounds:
    """Compute both bounds in a single sweep over the nodes.

    Per node ``v`` the sweep takes ``c_v = max_d ceil(|N_d(v)| / d)``, where
    ``N_d(v)`` holds the nodes at distance 1 to ``d`` from ``v``: its size is
    the running sum of the popcounts of the breadth-first layers from ``v``.
    The first layer is ``v``'s neighbour mask as it stands, so ``c_v`` starts
    at ``deg(v)``, the ``d = 1`` term, and the walk expands from there.
    It stops at depth ``d`` once ``c >= ceil((g.n-1)/(d+1))``, or when the
    frontier is empty. The rule is exact: every ``|N_d'(v)|`` is at most
    ``g.n-1``, so no term with ``d' > d`` can exceed ``ceil((g.n-1)/(d+1))``.
    On a connected graph it stops no later than reaching the whole graph
    would: then ``size`` is ``g.n-1``, so ``c >= ceil((g.n-1)/d)``, which is
    at least ``ceil((g.n-1)/(d+1))``.
    Each layer is built by ORing its nodes' masks into ``reach``, which starts
    from the nodes already seen; the set-bit loop leaves as soon as ``reach``
    holds all ``g.n`` nodes. The stop is exact: OR is monotone, so a full
    ``reach`` stays full, and ``reach & ~seen`` is the layer the whole loop
    would give. It never fires on a disconnected graph, where no walk
    reaches every node; ``recognize`` bounds only connected graphs, so there
    it can end the last layer of every walk early.
    Since ``ceil(x / 2d) == ceil(ceil(x / d) / 2)`` and halving with ceiling
    is monotone, the halved ratio's maximum is ``ceil(c_v / 2)``; so alpha is
    ``ceil(max_v c_v / 2)`` and gamma is ``min_v c_v``. ``g`` may be a
    :class:`Graph` or ``recognize``'s component view: only ``g.n`` and
    ``g.neighbor_masks`` are read.
    """
    masks = g.neighbor_masks
    most = g.n - 1  # the largest any |N_d(v)| can be
    full = (1 << g.n) - 1
    high = 0
    low = g.n  # above every c_v, which is at most n-1
    for v in range(g.n):
        # Layer d is the frontier: the nodes at distance exactly d. Layer 1
        # is masks[v], whose term is deg(v) itself, so the walk starts there.
        # It and its set-bit loop are inlined, with no generator, as this is
        # the inner loop of every bounds call.
        frontier = masks[v]
        seen = frontier | 1 << v
        c = size = frontier.bit_count()
        d = 1
        while c < -(-most // (d + 1)):
            # reach starts from seen, so once it holds every node each
            # further OR is a no-op and the layer is already complete.
            reach = seen
            while frontier:
                bit = frontier & -frontier
                reach |= masks[bit.bit_length() - 1]
                if reach == full:
                    break
                frontier ^= bit
            frontier = reach & ~seen
            if not frontier:
                break
            seen |= frontier
            d += 1
            size += frontier.bit_count()
            ratio = -(-size // d)
            if ratio > c:
                c = ratio
        if c > high:
            high = c
        if c < low:
            low = c
    return BandwidthBounds(-(-high // 2), low)
