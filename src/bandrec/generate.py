"""Reproducible random instances for exercising the recognizer.

Banded graphs are drawn edge-by-edge inside a band of half-width psi around
the diagonal of the adjacency matrix, then patched so every label distance
1..psi is realised by at least one edge; the result is guaranteed to have
bandwidth at most psi. Affirmative benchmark cases scramble such a graph
with random layouts until the identity labelling stops being a witness, so
a recognizer has to actually find one; each attempt is scored on the drawn
graph, and only the accepted scramble is built as a graph. Negative cases
rejection-sample denser, wider bands until the bandwidth exceeds k while
both lower bounds stay at or below k, which rules out trivial bounds-based
dismissal; the bandwidth is decided by the deadline-search oracle
:func:`~bandrec.baselines.bandwidth_at_most`, never by the recognizer.
The two case kinds, the ``k`` range of each (:func:`check_case`) and the
generator of each (``GENERATORS``) are defined here for the whole package.

All draws come from numpy's seeded default generator (PCG64), so a given
seed reproduces the same instance on any platform. Entry points that need
several independent draws derive them from the one seed in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .baselines import bandwidth_at_most
from .bounds import bandwidth_bounds
from .graph import Graph, Layout, _integer, layout_bandwidth
from .recognition import coerce_k, regime_floor, require_regime

AFFIRMATIVE = "affirmative"
NEGATIVE = "negative"

AFFIRMATIVE_SCRAMBLE_BUDGET = 1000
NEGATIVE_SAMPLE_BUDGET = 200

# Each kind's largest k is n minus its gap. Affirmative: no labelling of n
# nodes has bandwidth above n-1, so no scramble can beat k = n-1. Negative:
# wider targets make the rejection sampling astronomically slow.
_CEILING_GAPS = {AFFIRMATIVE: 2, NEGATIVE: 4}
# Each kind's least k, where the regime floor is lower. Affirmative: a graph
# of bandwidth 0 is edgeless, so no scramble exceeds k = 0.
_FLOORS = {AFFIRMATIVE: 1, NEGATIVE: 0}


class GenerationError(RuntimeError):
    """A rejection-sampling loop ran out of retries; reseed and try again."""


@dataclass(frozen=True)
class GenParams:
    """Parameters of one banded draw: size, band half-width, edge probability, seed."""

    n: int
    psi: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        # n and psi are taken by the package's integer rule and stored as
        # plain ints; p may be any real but a bool.
        object.__setattr__(self, "n", _integer(self.n, "the node count"))
        object.__setattr__(self, "psi", _integer(self.psi, "psi"))
        if type(self.p) is bool:
            raise TypeError(f"p must be a probability, not bool: {self.p!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.psi <= self.n - 1:
            raise ValueError(f"psi must lie in [0, n-1], got {self.psi}")
        if not 0 < self.p <= 1:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")


def random_banded_matrix(params: GenParams) -> Graph:
    """Random graph whose identity-labelling bandwidth is at most ``params.psi``.

    Each pair with label distance <= psi becomes an edge independently with
    probability p. The coins are drawn in one vector, one per pair in a
    fixed row-major order; numpy's generator fills it with the same doubles
    as that many scalar draws, in the same order. Afterwards,
    every distance d in 1..psi that ended up unrealised gets one uniformly
    random edge at exactly that distance. Deterministic given the seed.
    """
    n, psi, p = params.n, params.psi, params.p
    rng = np.random.default_rng(params.seed)
    count = sum(min(psi, n - 1 - u) for u in range(n))
    coins = iter((rng.random(count) < p).tolist())
    # A tuple is made for each edge, not for each pair: pair tuples dropped
    # on a miss leave holes that the kept graphs' objects then fill, and the
    # affirm workload's decide times read about 3% slower for that scatter.
    edges = [(u, v) for u in range(n) for v in range(u + 1, min(u + psi, n - 1) + 1) if next(coins)]
    seen = {v - u for u, v in edges}
    for d in range(1, psi + 1):
        if d not in seen:
            u = int(rng.integers(0, n - d))
            edges.append((u, u + d))
    return Graph(n, edges)


def check_case(kind: str, n: int, k: int) -> tuple[int, int]:
    """``(n, k)`` as plain ints, once both are checked for a ``kind`` case.

    ``n`` and ``k`` are integers by :func:`~bandrec.recognition.coerce_k`'s
    rule: ``bool`` or a non-integer raises ``TypeError``, and a negative
    ``k`` raises ``ValueError``. ``ValueError`` is raised too unless ``k``
    is in the range of ``kind`` cases on ``n`` nodes: from the regime floor
    (below it, :class:`OutOfRegimeError`), and at least 1 for affirmative
    cases, to ``n-2`` for affirmative and ``n-4`` for negative cases.
    """
    n = _integer(n, "the node count")
    k = coerce_k(k)
    require_regime(n, k)
    floor = max(_FLOORS[kind], regime_floor(n))
    ceiling = n - _CEILING_GAPS[kind]
    if floor > ceiling:
        raise ValueError(f"no k admits {kind} cases on n={n} nodes, got k={k}")
    if not floor <= k <= ceiling:
        raise ValueError(f"{kind} cases need k in [{floor}, {ceiling}] for n={n}, got k={k}")
    return n, k


def generate_affirmative_case(n: int, k: int, seed: int) -> tuple[Graph, dict[str, Any]]:
    """Instance with bandwidth <= k whose identity labelling exceeds k.

    Draws psi uniformly from {k-2, k-1, k} (clamped at 0, and a drawn 0
    raised to 1) and p from [0.3, 0.6], builds a banded graph, then draws
    random relabellings until the identity labelling of the relabelled
    graph is no longer a bandwidth-k witness. Each attempt is scored on the
    drawn graph itself, as the bandwidth of the relabelling read as a
    layout, and only the accepted relabelling is built. ``k`` is checked by
    :func:`check_case` before any draw. Raises :class:`GenerationError` when
    the scramble budget runs out (callers reseed).
    """
    n, k = check_case(AFFIRMATIVE, n, k)
    rng = np.random.default_rng(seed)
    # psi = 0 would draw an edgeless graph, which no scramble lifts above
    # k >= 1; it is raised after the draw, so the random stream is unchanged.
    psi = max(1, int(rng.integers(max(0, k - 2), k + 1)))
    p = float(rng.uniform(0.3, 0.6))
    band_seed = int(rng.integers(0, 2**63))
    g = random_banded_matrix(GenParams(n, psi, p, band_seed))
    for attempt in range(1, AFFIRMATIVE_SCRAMBLE_BUDGET + 1):
        relabeling = rng.permutation(n).tolist()
        # Node v of g sits at position relabeling[v] of the relabelled graph's
        # identity labelling, so this is that labelling's bandwidth.
        identity_bandwidth = layout_bandwidth(g, Layout(relabeling))
        if identity_bandwidth > k:
            meta = {
                "kind": AFFIRMATIVE,
                "n": n,
                "k": k,
                "psi": psi,
                "p": p,
                "band_seed": band_seed,
                "scramble_attempts": attempt,
                "identity_bandwidth": identity_bandwidth,
            }
            return g.relabeled(relabeling), meta
    raise GenerationError(
        f"no scramble of the drawn graph exceeded k={k} after {AFFIRMATIVE_SCRAMBLE_BUDGET} layouts"
    )


def generate_negative_case(n: int, k: int, seed: int) -> tuple[Graph, dict[str, Any]]:
    """Instance with bandwidth > k that both lower bounds fail to expose.

    Repeatedly draws psi from {k+1, k+2, k+3} and p from [0.85, 0.95] until
    the sample satisfies max(alpha, gamma) <= k and bandwidth > k, the
    latter decided by :func:`~bandrec.baselines.bandwidth_at_most` at every
    ``n``, so no instance is labelled by the recognizer it tests. ``k`` is
    checked by :func:`check_case` before any draw.
    Raises :class:`GenerationError` when the attempt budget is exhausted.

    :func:`check_case` admits ``k = n-4`` at any ``n``, but near that
    ceiling the banded draws stop exceeding ``k`` as ``n`` grows. At
    ``k = n-4``, seeds 0-9 all succeeded up to ``n = 44`` (at most 115
    draws), 5 of 10 did at ``n = 48``, and seeds 0-2 all failed at
    ``n = 64``. So ``n = 44`` is the sampler's practical ceiling there.
    """
    n, k = check_case(NEGATIVE, n, k)
    rng = np.random.default_rng(seed)
    for attempt in range(1, NEGATIVE_SAMPLE_BUDGET + 1):
        psi = int(rng.integers(k + 1, k + 4))
        p = float(rng.uniform(0.85, 0.95))
        band_seed = int(rng.integers(0, 2**63))
        g = random_banded_matrix(GenParams(n, psi, p, band_seed))
        if bandwidth_bounds(g).combined > k or bandwidth_at_most(g, k):
            continue
        return g, {
            "kind": NEGATIVE,
            "n": n,
            "k": k,
            "psi": psi,
            "p": p,
            "band_seed": band_seed,
            "attempts": attempt,
        }
    raise GenerationError(f"no negative instance found in {NEGATIVE_SAMPLE_BUDGET} attempts")


GENERATORS = {AFFIRMATIVE: generate_affirmative_case, NEGATIVE: generate_negative_case}
