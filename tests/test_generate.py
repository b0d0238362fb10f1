import hashlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

from bandrec import baselines, generate, recognition
from bandrec.baselines import bandwidth_at_most, exact_bandwidth_bruteforce
from bandrec.bench import BenchConfig, BenchConfigError
from bandrec.bounds import bandwidth_bounds
from bandrec.families import complete_graph
from bandrec.generate import (
    AFFIRMATIVE,
    GENERATORS,
    NEGATIVE,
    GenerationError,
    GenParams,
    check_case,
    generate_affirmative_case,
    generate_negative_case,
    random_banded_matrix,
)
from bandrec.graph import Graph, Layout, layout_bandwidth
from bandrec.io import write_graph_text
from bandrec.recognition import SEARCH_EXHAUSTED, OutOfRegimeError, recognize
from conftest import assert_certified


class TestGenParams:
    @pytest.mark.parametrize(
        "n,psi,p",
        [(0, 0, 0.5), (5, -1, 0.5), (5, 5, 0.5), (5, 2, 0.0), (5, 2, 1.5)],
    )
    def test_invalid(self, n, psi, p):
        with pytest.raises(ValueError):
            GenParams(n, psi, p, seed=1)

    @pytest.mark.parametrize(
        "n,psi,p", [(10, 3.0, 0.4), (10.0, 3, 0.4), (10, True, 0.5), (True, 0, 0.5), (10, 3, True)]
    )
    def test_float_and_bool_raise_type_error(self, n, psi, p):
        with pytest.raises(TypeError):
            GenParams(n, psi, p, seed=1)

    def test_numpy_ints_are_stored_as_plain_ints(self):
        params = GenParams(np.int64(10), np.int64(3), 0.4, 0)
        assert (params.n, params.psi) == (10, 3) and type(params.n) is int and type(params.psi) is int
        assert random_banded_matrix(params) == random_banded_matrix(GenParams(10, 3, 0.4, 0))


class TestRandomBandedMatrix:
    def test_zero_width_band_is_edgeless(self):
        assert random_banded_matrix(GenParams(5, 0, 0.5, 3)).m == 0

    def test_full_band_certain_edges_is_complete(self):
        assert random_banded_matrix(GenParams(4, 3, 1.0, 3)) == complete_graph(4)

    def test_band_and_distance_guarantees(self):
        g = random_banded_matrix(GenParams(10, 3, 0.4, 11))
        distances = {v - u for u, v in g.edges}
        assert all(d <= 3 for d in distances)
        assert distances >= {1, 2, 3}
        assert layout_bandwidth(g, Layout.identity(10)) <= 3

    def test_distance_guarantee_survives_tiny_p(self):
        g = random_banded_matrix(GenParams(30, 4, 0.01, 5))
        assert {v - u for u, v in g.edges} >= {1, 2, 3, 4}

    def test_seed_determinism(self):
        a = random_banded_matrix(GenParams(12, 4, 0.5, 77))
        b = random_banded_matrix(GenParams(12, 4, 0.5, 77))
        assert a == b
        assert write_graph_text(a) == write_graph_text(b)

    def test_different_seeds_differ(self):
        drawn = {random_banded_matrix(GenParams(12, 4, 0.5, s)).edges for s in range(8)}
        assert len(drawn) > 1  # smoke check, not a hard guarantee


class TestAffirmativeCases:
    def test_contract(self):
        # soundness harness: every generated case really has bandwidth <= k,
        # and the identity labelling never gives that away
        cases = 0
        for n, k in [(10, 6), (12, 8), (12, 10), (14, 12)]:
            for seed in range(13):
                g, meta = generate_affirmative_case(n, k, seed)
                assert layout_bandwidth(g, Layout.identity(n)) > k
                assert meta["identity_bandwidth"] > k
                assert meta["psi"] <= k
                assert_certified(g, k, recognize(g, k))
                cases += 1
        assert cases >= 50

    def test_reproducible(self):
        a, meta_a = generate_affirmative_case(12, 10, 99)
        b, meta_b = generate_affirmative_case(12, 10, 99)
        assert a == b
        assert meta_a == meta_b

    def test_small_k_clamps_psi(self):
        g, meta = generate_affirmative_case(4, 2, seed=1)
        assert 1 <= meta["psi"] <= 2

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
    def test_small_k_never_draws_an_edgeless_graph(self, n, k):
        # psi = 0 would be edgeless, and no scramble lifts that above k.
        for seed in range(60):
            g, meta = generate_affirmative_case(n, k, seed)
            assert meta["psi"] >= 1
            assert layout_bandwidth(g, Layout.identity(n)) > k

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(generate, "AFFIRMATIVE_SCRAMBLE_BUDGET", 0)
        with pytest.raises(GenerationError):
            generate_affirmative_case(3, 1, seed=1)

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            generate_affirmative_case(12, 4, seed=0)

    def test_k_n_minus_1_rejected_before_drawing(self, monkeypatch):
        # The identity's bandwidth is at most n-1, so no scramble exceeds it.
        monkeypatch.setattr(generate, "np", _NO_DRAWS)
        with pytest.raises(ValueError, match=r"\[4, 8\]"):
            generate_affirmative_case(10, 9, 0)


class TestNegativeCases:
    def test_contract(self):
        g, meta = generate_negative_case(12, 8, seed=21)
        result = recognize(g, 8)
        assert not result.verdict
        assert result.negative_reason == SEARCH_EXHAUSTED
        assert bandwidth_bounds(g).combined <= 8
        assert meta["psi"] in (9, 10, 11)

    @pytest.mark.parametrize("n,k,seed", [(8, 4, 2), (9, 4, 1), (9, 5, 3), (7, 3, 4)])
    def test_label_agrees_with_bruteforce(self, n, k, seed):
        g, meta = generate_negative_case(n, k, seed=seed)
        assert exact_bandwidth_bruteforce(g) > k
        assert not recognize(g, k).verdict

    def test_small_n_uses_the_deadline_oracle(self, monkeypatch):
        # Below n = 10 the generator used to label by brute force; it now
        # asks the deadline search at every n.
        def engine(*args, **kwargs):
            raise AssertionError("a small negative was not labelled by the deadline search")

        labels = []

        def oracle(g, k):
            labels.append(bandwidth_at_most(g, k))
            return labels[-1]

        monkeypatch.setattr(baselines, "exact_bandwidth_bruteforce", engine)
        monkeypatch.setattr(recognition, "recognize", engine)
        monkeypatch.setattr(generate, "bandwidth_at_most", oracle)
        g, _ = generate_negative_case(8, 4, seed=2)
        assert labels and labels[-1] is False
        monkeypatch.undo()
        assert exact_bandwidth_bruteforce(g) > 4

    def test_meta_keeps_no_label(self):
        # Neither side of the old n <= 9 fork keeps a verifier name or a
        # bandwidth value.
        for n, k, seed in [(8, 4, 2), (12, 8, 21)]:
            _, meta = generate_negative_case(n, k, seed=seed)
            assert sorted(meta) == ["attempts", "band_seed", "k", "kind", "n", "p", "psi"]

    @pytest.mark.parametrize("n,k", [(12, 8), (14, 8)])
    def test_labelled_without_the_recognizer(self, monkeypatch, n, k):
        def engine(*args, **kwargs):
            raise AssertionError("a negative was labelled by the recognizer")

        monkeypatch.setattr(recognition, "recognize", engine)
        monkeypatch.setattr(recognition, "_solve_component", engine)
        for seed in range(3):
            g, meta = generate_negative_case(n, k, seed)
            assert (g.n, meta["k"]) == (n, k)

    @pytest.mark.parametrize("n,k", [(40, 20), (16, 8)])
    def test_fast_where_the_recognizer_hung(self, n, k):
        # Labelled by recognize, seed 0 took over 60 s at (40, 20) and 8.5 s
        # at (16, 8); the deadline search takes milliseconds.
        for seed in range(5):
            start = time.perf_counter()
            generate_negative_case(n, k, seed)
            assert time.perf_counter() - start < 1.0

    def test_reproducible(self):
        a, meta_a = generate_negative_case(12, 8, seed=5)
        b, meta_b = generate_negative_case(12, 8, seed=5)
        assert a == b
        assert meta_a == meta_b

    def test_k_cap(self):
        with pytest.raises(ValueError):
            generate_negative_case(12, 9, seed=0)  # k > n-4

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError):
            generate_negative_case(12, 3, seed=0)


def test_set_up_makes_no_subgraph_copy(monkeypatch):
    # The instance set-up perfbench runs: a relabelled affirmative, negatives
    # labelled by the deadline oracle, and brute force on those negatives.
    # Graph.subgraph costs O(m) per call, so none of them may make one.
    def no_copy(self, nodes):
        raise AssertionError("Graph.subgraph on a set-up path")

    monkeypatch.setattr(Graph, "subgraph", no_copy)
    generate_affirmative_case(16, 14, 0)
    for n in (9, 8):
        g, _ = generate_negative_case(n, 4, 0)
        exact_bandwidth_bruteforce(g)


class _Drew(Exception):
    """The stubbed generator was asked for random numbers: every check passed."""


def _refuse_to_draw(seed):
    raise _Drew


_NO_DRAWS = SimpleNamespace(random=SimpleNamespace(default_rng=_refuse_to_draw))

# Each kind's k range, written out here rather than read from the package:
# from floor((n-1)/2), the regime floor (and at least 1 for affirmative: a
# bandwidth-0 graph is edgeless, so no scramble exceeds k = 0), up to n-2
# (affirmative) or n-4 (negative).
RANGES = {
    AFFIRMATIVE: lambda n: (max(1, (n - 1) // 2), n - 2),
    NEGATIVE: lambda n: ((n - 1) // 2, n - 4),
}


def _cells():
    for kind, bounds in RANGES.items():
        for n in range(2, 15):
            lo, hi = bounds(n)
            for k in range(-1, n + 1):
                yield kind, n, k, lo, hi


class TestCaseRanges:
    def test_generators_check_the_range_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(generate, "np", _NO_DRAWS)
        for kind, n, k, lo, hi in _cells():
            if lo <= k <= hi:
                check_case(kind, n, k)
                with pytest.raises(_Drew):
                    GENERATORS[kind](n, k, 0)
            else:
                # A negative k fails coerce_k's check first, as in recognize.
                if k < 0:
                    error, match = ValueError, "k must be nonnegative"
                else:
                    error, match = OutOfRegimeError if k < (n - 1) // 2 else ValueError, None
                with pytest.raises(error, match=match):
                    check_case(kind, n, k)
                with pytest.raises(error, match=match):
                    GENERATORS[kind](n, k, 0)

    @pytest.mark.parametrize("kind", [AFFIRMATIVE, NEGATIVE])
    @pytest.mark.parametrize("n,k", [(12.0, 8), (12, 8.0), (True, 0), (3, True)])
    def test_float_and_bool_raise_type_error_before_any_draw(self, monkeypatch, kind, n, k):
        monkeypatch.setattr(generate, "np", _NO_DRAWS)
        with pytest.raises(TypeError):
            check_case(kind, n, k)
        with pytest.raises(TypeError):
            GENERATORS[kind](n, k, 0)

    @pytest.mark.parametrize("kind", [AFFIRMATIVE, NEGATIVE])
    def test_numpy_ints_are_read_as_plain_ints(self, kind):
        n, k = check_case(kind, np.int64(9), np.int64(4))
        assert (n, k) == (9, 4) and type(n) is int and type(k) is int
        _, meta = GENERATORS[kind](np.int64(9), np.int64(4), 0)
        assert type(meta["n"]) is int and type(meta["k"]) is int

    def test_bench_config_rejects_the_same_cells(self):
        for kind, n, k, lo, hi in _cells():
            field = "affirmative_offsets" if kind == AFFIRMATIVE else "negative_offsets"
            offsets = {"affirmative_offsets": (), "negative_offsets": (), field: (k - n,)}
            if lo <= k <= hi:
                BenchConfig(sizes=(n,), **offsets)
            else:
                with pytest.raises(BenchConfigError):
                    BenchConfig(sizes=(n,), **offsets)


def _digest(cases):
    # One hash over each case's (n, edges, meta): a changed draw, in the
    # graph or in any meta value, changes it.
    h = hashlib.sha256()
    for g, meta in cases:
        h.update(repr((g.n, g.edges, sorted(meta.items()))).encode())
    return h.hexdigest()[:16]


GOLDEN_SEEDS = range(4)


class TestGoldenOutputs:
    """The generators' outputs, pinned. The digests were recorded when every
    band coin was a scalar draw and every scramble attempt built its graph,
    so a change to the draw order, or to any output, fails here. The
    negative digests were re-pinned when ``meta`` lost its ``verifier`` and
    ``bandwidth`` keys; the graphs' own digests did not move."""

    @pytest.mark.parametrize(
        "n,psi,p,expected",
        [
            (9, 4, 0.5, "0cad5d955bf6a19d"),
            (16, 3, 0.05, "dd3f43648900b3f1"),
            (40, 12, 0.4, "1310ed12fa8642f5"),
            (40, 39, 0.3, "e717858cd87b2d4b"),
        ],
    )
    def test_random_banded_matrix(self, n, psi, p, expected):
        cases = ((random_banded_matrix(GenParams(n, psi, p, seed)), {}) for seed in GOLDEN_SEEDS)
        assert _digest(cases) == expected

    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (9, 4, "262d60097fb28605"),
            (9, 7, "693e4ca8e7867717"),
            (40, 20, "39358fccabf8adc5"),
            (40, 37, "e39fe29bc0583be8"),
        ],
    )
    def test_affirmative(self, n, k, expected):
        assert _digest(generate_affirmative_case(n, k, seed) for seed in GOLDEN_SEEDS) == expected

    @pytest.mark.parametrize(
        "n,k,count,expected",
        [
            (9, 4, 4, "e9926754ba88234a"),
            (9, 5, 4, "2e75b139b6ade464"),
            (12, 8, 4, "a093ac08b8d4ee22"),
            (40, 36, 2, "f66b5e98056b4b97"),
        ],
    )
    def test_negative(self, n, k, count, expected):
        # Two seeds at n=40 keep the cell cheap.
        assert _digest(generate_negative_case(n, k, seed) for seed in range(count)) == expected
