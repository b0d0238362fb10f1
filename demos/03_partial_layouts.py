#!/usr/bin/env python3
# Under the hood: left partial layouts, the pool chain, and the nested
# counting check that replaces a factorial search over right layouts.

from bandrec import Layout, layout_bandwidth
from bandrec.families import cycle_graph
# The engine's internals live in bandrec.recognition; the package root does
# not re-export them.
from bandrec.recognition import (
    assemble_certificate,
    build_blocked_index,
    check_hall_and_build_right,
    enumerate_left_partial_layouts,
)

g = cycle_graph(5)
n, k = 5, 2

# For n=5, k=2 the outer loop walks all 5!/3! = 20 injective assignments of
# the two leftmost positions, in lexicographic order: each left is a plain
# tuple of nodes, position by position.
lefts = list(enumerate_left_partial_layouts(g, k))
print("left partial layouts:", len(lefts))
print("first five:", lefts[:5])


def nodes_of(mask):
    # A bitmask as its node list, ascending.
    return [v for v in range(n) if mask >> v & 1]


# For each left, the chain holds the bitmask of the unplaced nodes, then the
# pools: pool j is the unplaced nodes that no left node at positions 0..j is
# adjacent to, the candidates for right position k+j+1. Each pool is the one
# before minus a neighbour mask, so they shrink as j grows, and feasibility
# reduces to one popcount per pool.
for left in lefts[:4]:
    chain = build_blocked_index(g, left)
    right = check_hall_and_build_right(chain, n, k)
    pools = [nodes_of(pool) for pool in chain[1:]]
    print(f"left={left}  pools={pools}  ", end="")
    if right is None:
        print("no compatible right layout")
    else:
        # The certificate is a position -> node list: left, middle, right.
        order = assemble_certificate(left, right, g, k)
        cert = Layout.from_inverse(order)
        print(f"right={right}  layout={order}  bandwidth={layout_bandwidth(g, cert)}")

# The first feasible left layout ends the search; that is why affirmative
# instances are usually decided after a tiny fraction of the enumeration.
# A negative answer still decides every left, but the search walks heads
# (a left less its last node, the lefts of k+1): a head whose own pools fail
# a count rules out all its lefts at once, so a negative pays per head,
# n!/(k+2)! of them. The paper's O(n^(n-k+1)) is still an upper bound.
hits = sum(
    1
    for left in lefts
    if check_hall_and_build_right(build_blocked_index(g, left), n, k) is not None
)
print(f"{hits} of {len(lefts)} left layouts admit a right layout")
