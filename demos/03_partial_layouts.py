#!/usr/bin/env python3
# Under the hood: left partial layouts, the blocking index, and the nested
# counting check that replaces a factorial search over right layouts.

from bandrec import layout_bandwidth
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
# the two leftmost positions, in lexicographic order.
lefts = list(enumerate_left_partial_layouts(g, k))
print("left partial layouts:", len(lefts))
print("first five:", [pl.assignment for pl in lefts[:5]])

# For each left layout, pools[j] is the bitmask of the unplaced nodes that
# no left node at positions 0..j is adjacent to: the candidates for right
# position k+j+1. Each pool is the one before minus a neighbour mask, so they
# shrink as j grows, and feasibility reduces to one popcount per pool.
# blocked_of is a view derived from the pools: the first left position whose
# node is adjacent to v, or n when none is.
for pl in lefts[:4]:
    index = build_blocked_index(g, pl)
    right = check_hall_and_build_right(index, n, k)
    sizes = [pool.bit_count() for pool in index.pools]
    print(f"left={pl.assignment}  blocked={index.blocked_of}  pool sizes={sizes}  ", end="")
    if right is None:
        print("no compatible right layout")
    else:
        cert = assemble_certificate(pl, right, g, k)
        print(f"right={right}  layout={list(cert.inverse)}  bandwidth={layout_bandwidth(g, cert)}")

# The first feasible left layout ends the search; that is why affirmative
# instances are usually decided after a tiny fraction of the enumeration,
# while negative answers must pay for all of it.
hits = sum(
    1
    for pl in lefts
    if check_hall_and_build_right(build_blocked_index(g, pl), n, k) is not None
)
print(f"{hits} of {len(lefts)} left layouts admit a right layout")
