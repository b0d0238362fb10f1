"""Reference implementations used as correctness oracles.

``naive_recognition`` decides the same question as the fast recognizer by
the direct definition, with its own loop and its own certificate: try every
left layout against every compatible right layout and test all far-apart
position pairs for edges. ``exact_bandwidth_bruteforce`` minimises the
layout bandwidth over all n! layouts outright. Both are meant for small n,
and neither shares code with the fast path, so they have something
independent to disagree with.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, permutations
from math import factorial

import numpy as np

from .graph import Graph, Layout, _integer
from .recognition import SEARCH_EXHAUSTED, OutOfRegimeError, RecognitionResult

BRUTEFORCE_MAX_NODES = 9


def naive_recognition(g: Graph, k: int) -> RecognitionResult:
    """Pair-enumeration recognizer: every left layout against every right layout.

    O(n^(2(n-k))) time; intended for n <= 10. Left layouts fill positions
    ``0..n-k-2`` and right layouts ``k+1..n-1``, both in lexicographic order;
    the first compatible pair is completed with the middle nodes in ascending
    id. ``k`` is checked as :func:`~bandrec.recognition.recognize` checks it.
    """
    n = g.n
    k = _integer(k, "k")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= n - 1:
        return RecognitionResult(True, Layout.identity(n))
    if k < (n - 1) // 2:
        raise OutOfRegimeError(f"graph of size {n} needs k >= {(n - 1) // 2}, got {k}")

    masks = g.neighbor_masks
    width = n - k - 1
    for left in permutations(range(n), width):
        rest = [v for v in range(n) if v not in left]
        for right in permutations(rest, width):
            feasible = True
            for i in range(width):
                mask = masks[left[i]]
                for j in range(i, width):
                    if mask >> right[j] & 1:
                        feasible = False
                        break
                if not feasible:
                    break
            if feasible:
                middle = [v for v in rest if v not in right]
                return RecognitionResult(True, Layout.from_inverse([*left, *middle, *right]))
    return RecognitionResult(False, None, SEARCH_EXHAUSTED)


@cache
def _layout_rows(n: int) -> np.ndarray:
    # All n! node->position maps, one per row; cached per process. The rows
    # stream straight into the int8 array: a list of n! tuples first would
    # take about 54 MB at n = 9, against the array's 3.3 MB.
    flat = chain.from_iterable(permutations(range(n)))
    return np.fromiter(flat, np.int8, count=n * factorial(n)).reshape(-1, n)


def exact_bandwidth_bruteforce(g: Graph) -> int:
    """Exact bandwidth by exhaustive minimisation over all n! layouts.

    Guarded to n <= 9; larger inputs raise ``ValueError``. The set of all
    layouts is closed under inversion, so rows can be treated directly as
    node -> position maps and each edge reduces to one vectorised
    |position difference| pass.
    """
    if g.n > BRUTEFORCE_MAX_NODES:
        raise ValueError(
            f"brute-force bandwidth is limited to n <= {BRUTEFORCE_MAX_NODES}, got n={g.n}"
        )
    if not g.edges:
        return 0
    pos = _layout_rows(g.n)
    worst = np.zeros(len(pos), dtype=np.int8)
    # One gap buffer for every edge: a fresh n!-entry temporary per edge is
    # mapped and freed each time, which nearly doubles the call.
    gap = np.empty_like(worst)
    for u, v in g.edges:
        np.subtract(pos[:, u], pos[:, v], out=gap)
        np.abs(gap, out=gap)
        np.maximum(worst, gap, out=worst)
    return int(worst.min())
