"""Seeded instance sets for the three workloads, labelled without the recognizer.

Every instance carries its own copy of the edge list and a label that never
comes from ``recognize``:

* ``affirm``: scrambled banded graphs from ``generate_affirmative_case``. The
  label is "yes" by construction, and the construction is turned into a
  certificate: replaying the generator's draws gives the scrambling
  permutation, whose inverse is a layout of stretch at most ``k``. That
  layout is checked here before the instance is accepted.
* ``sweep``: bounds-invisible negatives from ``generate_negative_case`` at
  ``n = 9``, each labelled by ``exact_bandwidth_bruteforce``.
* ``components``: disjoint unions of small pieces, randomly relabelled. The
  label is "yes" exactly when every piece's brute-force bandwidth is at most
  ``k``.

The same seed always gives the same instances; ``instances_digest`` states
that as one hash. Every workload has at least 100 instances, so that at
least 10 per-instance decide times lie beyond the 90th percentile.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np
from bandrec.baselines import exact_bandwidth_bruteforce
from bandrec.generate import (
    GenerationError,
    GenParams,
    generate_affirmative_case,
    generate_negative_case,
    random_banded_matrix,
)
from bandrec.graph import Graph

from verify import max_stretch

WORKLOADS = ("affirm", "sweep", "components")

# Affirmatives: k stays two or three below n, far from n/2, where a single
# affirmative search ran from 1 ms to minutes.
AFFIRM_SIZES = (16, 20, 24, 32, 40)
AFFIRM_OFFSETS = (2, 3)
AFFIRM_PER_CELL = 24

# Negatives at n = 9 are the largest that brute force labels in milliseconds.
# Twice as many k = 5 cases as k = 4 cases keeps the median inside the fast
# k = 5 cluster and the 90th percentile inside the slow k = 4 cluster, away
# from the gap between them where a quantile would jump.
SWEEP_N = 9
SWEEP_CELLS = ((4, 40), (5, 80))

# Components: unions of pieces drawn from a per-seed pool. Of every ten
# instances, five have only affirmative pieces, three have one negative piece
# that only a search exposes, and two have one dense piece (6 to 9 nodes)
# that the per-component bounds dismiss. Negative pieces have n = 8 (336
# lefts at k = 4), so no single slow cluster of calls straddles the 90th
# percentile. Affirmative pieces stop at n = 8: at n = 9, k = 4 sits on the
# regime floor, where search lengths are so heavy-tailed that the median
# depended on which few long-search pieces a seed happened to draw.
COMPONENTS_K = 4
COMPONENTS_INSTANCES = 300
COMPONENTS_PLAN = ("yes",) * 5 + ("negative",) * 3 + ("dense",) * 2
POOL_AFFIRM_SIZES = (6, 7, 8)
POOL_AFFIRM_PER_SIZE = 100
POOL_NEGATIVE_N = 8
POOL_NEGATIVES = 24
POOL_DENSE = 16
RESEEDS = 20


@dataclass(frozen=True)
class Instance:
    """One decision problem: does ``graph`` have bandwidth at most ``k``?

    ``edges`` is the benchmark's own copy, used by the certificate check.
    """

    graph: Graph
    edges: tuple[tuple[int, int], ...]
    k: int
    label: bool


@dataclass
class SetupTimes:
    """Set-up time split by layer, in nanoseconds."""

    generate_ns: int = 0
    label_ns: int = 0


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _generate(fn, n: int, k: int, rng: np.random.Generator, times: SetupTimes):
    # Generators give up on some seeds; draw the next seed from the same stream.
    for _ in range(RESEEDS):
        seed = _sub_seed(rng)
        t0 = time.perf_counter_ns()
        try:
            return (*fn(n, k, seed), seed)
        except GenerationError:
            continue
        finally:
            times.generate_ns += time.perf_counter_ns() - t0
    raise GenerationError(f"{fn.__name__}({n}, {k}) failed {RESEEDS} times")


def _affirmative_layout(n: int, k: int, seed: int, meta: dict) -> list[int]:
    # Replays generate_affirmative_case's draws in their documented order:
    # psi, p, band seed, then one permutation per scramble attempt. The last
    # permutation maps banded node v to node relabeling[v], and banded node v
    # sits at position v, so relabeling[v] goes to position v.
    rng = np.random.default_rng(seed)
    rng.integers(max(0, k - 2), k + 1)
    rng.uniform(0.3, 0.6)
    rng.integers(0, 2**63)
    for _ in range(meta["scramble_attempts"]):
        relabeling = rng.permutation(n)
    forward = [0] * n
    for position, node in enumerate(relabeling):
        forward[int(node)] = position
    return forward


def build_affirm(rng: np.random.Generator, times: SetupTimes) -> list[Instance]:
    out = []
    for n in AFFIRM_SIZES:
        for offset in AFFIRM_OFFSETS:
            k = n - offset
            for _ in range(AFFIRM_PER_CELL):
                g, meta, seed = _generate(generate_affirmative_case, n, k, rng, times)
                t0 = time.perf_counter_ns()
                edges = tuple(g.edges)
                stretch = max_stretch(edges, _affirmative_layout(n, k, seed, meta))
                times.label_ns += time.perf_counter_ns() - t0
                if stretch is None or stretch > k:
                    raise RuntimeError(
                        f"affirmative n={n} k={k} seed={seed}: replayed layout is no certificate"
                    )
                out.append(Instance(g, edges, k, True))
    return out


def _bruteforce(g: Graph, times: SetupTimes) -> int:
    t0 = time.perf_counter_ns()
    try:
        return exact_bandwidth_bruteforce(g)
    finally:
        times.label_ns += time.perf_counter_ns() - t0


def build_sweep(rng: np.random.Generator, times: SetupTimes) -> list[Instance]:
    out = []
    for k, count in SWEEP_CELLS:
        for _ in range(count):
            g = _generate(generate_negative_case, SWEEP_N, k, rng, times)[0]
            out.append(Instance(g, tuple(g.edges), k, _bruteforce(g, times) <= k))
    return out


def _dense_piece(rng: np.random.Generator, times: SetupTimes) -> Graph:
    # Every node of degree > k puts gamma, and so the combined bound, above k.
    n = int(rng.integers(6, 10))
    t0 = time.perf_counter_ns()
    try:
        while True:
            p = float(rng.uniform(0.85, 1.0))
            g = random_banded_matrix(GenParams(n, n - 1, p, _sub_seed(rng)))
            if min(g.degree(v) for v in range(n)) > COMPONENTS_K:
                return g
    finally:
        times.generate_ns += time.perf_counter_ns() - t0


def _union(pieces: list[Graph], rng: np.random.Generator) -> tuple[Graph, tuple]:
    total = sum(p.n for p in pieces)
    relabel = [int(x) for x in rng.permutation(total)]
    edges = []
    offset = 0
    for piece in pieces:
        edges.extend((relabel[u + offset], relabel[v + offset]) for u, v in piece.edges)
        offset += piece.n
    g = Graph(total, edges)
    return g, tuple(g.edges)


def build_components(rng: np.random.Generator, times: SetupTimes) -> list[Instance]:
    k = COMPONENTS_K
    affirm = [
        _generate(generate_affirmative_case, n, k, rng, times)[0]
        for n in POOL_AFFIRM_SIZES
        for _ in range(POOL_AFFIRM_PER_SIZE)
    ]
    negative = [
        _generate(generate_negative_case, POOL_NEGATIVE_N, k, rng, times)[0]
        for _ in range(POOL_NEGATIVES)
    ]
    dense = [_dense_piece(rng, times) for _ in range(POOL_DENSE)]
    pools = {"negative": negative, "dense": dense}
    fits = {id(g): _bruteforce(g, times) <= k for g in affirm + negative + dense}

    out = []
    for i in range(COMPONENTS_INSTANCES):
        kind = COMPONENTS_PLAN[i % len(COMPONENTS_PLAN)]
        count = 5 + i % 4
        picks = rng.integers(0, len(affirm), size=count)
        pieces = [affirm[j] for j in picks]
        if kind in pools:
            pieces[0] = pools[kind][int(rng.integers(0, len(pools[kind])))]
        g, edges = _union(pieces, rng)
        out.append(Instance(g, edges, k, all(fits[id(p)] for p in pieces)))
    return out


BUILDERS = {"affirm": build_affirm, "sweep": build_sweep, "components": build_components}


def build(workload: str, seed: int) -> tuple[list[Instance], SetupTimes]:
    """Instances of ``workload`` for ``seed``, with the set-up time they took."""
    code = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, code])
    times = SetupTimes()
    return BUILDERS[workload](rng, times), times


def instances_digest(instances: list[Instance]) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(repr((inst.graph.n, inst.edges, inst.k, inst.label)).encode())
    return h.hexdigest()
