"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Several criteria are timing-sensitive; they use
generous tolerances meant to hold on any commodity machine.
"""

import csv
import statistics
import time
from itertools import permutations

import numpy as np

from bandrec.baselines import exact_bandwidth_bruteforce, naive_recognition
from bandrec.bench import AFFIRMATIVE, CSV_COLUMNS, BenchConfig, run_bench, write_records_csv
from bandrec.bounds import alpha_bound, gamma_bound
from bandrec.families import complete_bipartite_graph, lollipop_graph
from bandrec.generate import (
    GenParams,
    generate_affirmative_case,
    generate_negative_case,
    random_banded_matrix,
)
from bandrec.graph import layout_bandwidth
from bandrec.io import write_graph_text
from bandrec.recognition import build_blocked_index, check_hall_and_build_right, recognize
from conftest import all_graphs, random_graph, regime_ks


class SoundnessRecorder:
    """Counts every certificate check performed across the suite."""

    def __init__(self):
        self.checked = 0
        self.violations = []

    def check(self, g, k, result):
        assert result.verdict and result.certificate is not None
        self.checked += 1
        if layout_bandwidth(g, result.certificate) > k:
            self.violations.append((g.edges, k))


SOUNDNESS = SoundnessRecorder()


def report(criterion: int, label: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({label}): PASS")


def test_criterion_1_oracle_equivalence_exhaustive():
    mismatches = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            beta = exact_bandwidth_bruteforce(g)
            for k in regime_ks(n):
                result = recognize(g, k)
                if result.verdict != (beta <= k):
                    mismatches += 1
                if result.verdict:
                    SOUNDNESS.check(g, k, result)
    assert mismatches == 0
    report(1, "oracle equivalence, exhaustive n<=6")


def test_criterion_2_oracle_equivalence_randomized():
    rng = np.random.default_rng(2202)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(7, 10))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        beta = exact_bandwidth_bruteforce(g)
        for k in regime_ks(n):
            fast = recognize(g, k)
            slow = naive_recognition(g, k)
            if fast.verdict != (beta <= k) or slow.verdict != (beta <= k):
                mismatches += 1
            if fast.verdict:
                SOUNDNESS.check(g, k, fast)
                SOUNDNESS.check(g, k, slow)
    assert mismatches == 0
    report(2, "oracle equivalence, 500 random graphs n in [7,9]")


def test_criterion_3_certificate_soundness():
    if SOUNDNESS.checked == 0:  # self-sufficient when run in isolation
        rng = np.random.default_rng(3303)
        for _ in range(50):
            n = int(rng.integers(5, 10))
            g = random_graph(rng, n, 0.4)
            for k in regime_ks(n):
                result = recognize(g, k)
                if result.verdict:
                    SOUNDNESS.check(g, k, result)
    assert SOUNDNESS.checked > 0
    assert SOUNDNESS.violations == []
    report(3, f"certificate soundness, {SOUNDNESS.checked} certificates checked")


def test_criterion_4_closed_form_bound_values():
    for n in range(2, 7):
        g = complete_bipartite_graph(n, n)
        assert alpha_bound(g) == -(-n // 2)
        assert gamma_bound(g) == n
    for n in range(5, 9):
        g = lollipop_graph(n, n)
        assert gamma_bound(g) == 2
        assert alpha_bound(g) == -(-n // 2)
    report(4, "alpha/gamma closed forms on complete bipartite and lollipop families")


def _feasible_right_exists(g, k, left):
    width = g.n - k - 1
    rest = [v for v in range(g.n) if v not in left]
    for right in permutations(rest, width):
        if all(
            not g.adjacent(left[i], right[j])
            for i in range(width)
            for j in range(i, width)
        ):
            return True
    return False


def test_criterion_5_hall_check_equivalence():
    rng = np.random.default_rng(5505)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 11))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        k = int(rng.integers((n - 1) // 2, n - 1))
        assignment = tuple(int(v) for v in rng.permutation(n)[: n - k - 1])
        left = tuple(assignment)
        right = check_hall_and_build_right(build_blocked_index(g, left), n, k)
        if (right is not None) != _feasible_right_exists(g, k, left):
            mismatches += 1
    assert mismatches == 0
    report(5, "marriage-condition check vs brute-force right-layout search, 200 pairs")


def _median_solve_seconds(instances, k):
    times = []
    for g in instances:
        start = time.perf_counter()
        result = recognize(g, k)
        times.append(time.perf_counter() - start)
        assert not result.verdict
    return statistics.median(times)


def test_criterion_6_negative_scaling_trend():
    n = 14
    instances = {
        k: [generate_negative_case(n, k, seed=6600 + 10 * k + i)[0] for i in range(5)]
        for k in (n - 6, n - 4)
    }
    slow = _median_solve_seconds(instances[n - 6], n - 6)
    fast = _median_solve_seconds(instances[n - 4], n - 4)
    assert slow >= (n / 2) * fast, f"expected >= {n/2}x gap, got {slow/fast:.1f}x"
    report(6, f"negative scaling at n=14: k=8 median {slow*1e3:.0f} ms vs k=10 median {fast*1e3:.2f} ms")


def test_criterion_7_affirmative_speed_and_naive_gap():
    # (18, 16) affirmative solves well under the 100 ms ceiling
    for i in range(5):
        g, _ = generate_affirmative_case(18, 16, seed=7700 + i)
        start = time.perf_counter()
        result = recognize(g, 16)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"instance {i} took {elapsed*1e3:.1f} ms"
        SOUNDNESS.check(g, 16, result)

    # the pair-enumeration baseline is strictly slower on (10, 6) negatives
    fast_times, slow_times = [], []
    for i in range(5):
        g, _ = generate_negative_case(10, 6, seed=7750 + i)
        start = time.perf_counter()
        assert not recognize(g, 6).verdict
        fast_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert not naive_recognition(g, 6).verdict
        slow_times.append(time.perf_counter() - start)
    assert statistics.median(slow_times) > statistics.median(fast_times)
    report(
        7,
        "affirmative (18,16) under 100 ms; baseline slower on (10,6) negatives "
        f"({statistics.median(slow_times)*1e3:.1f} ms vs {statistics.median(fast_times)*1e3:.2f} ms)",
    )


def test_criterion_8_generator_contracts():
    rng = np.random.default_rng(8808)
    draws = 0
    for n in (8, 12, 16, 24):
        for psi_frac in (0.2, 0.5, 0.9):
            psi = max(1, int(psi_frac * (n - 1)))
            for p in (0.15, 0.5, 0.9):
                for _ in range(3):
                    seed = int(rng.integers(0, 2**63))
                    g = random_banded_matrix(GenParams(n, psi, p, seed))
                    assert all(v - u <= psi for u, v in g.edges)
                    assert {v - u for u, v in g.edges} == set(range(1, psi + 1))
                    again = random_banded_matrix(GenParams(n, psi, p, seed))
                    assert write_graph_text(g) == write_graph_text(again)
                    draws += 1
    assert draws >= 100
    report(8, f"banded generator contracts over {draws} seeded draws")


def test_criterion_9_benchmark_harness(tmp_path):
    config = BenchConfig(
        sizes=(10, 12),
        affirmative_offsets=(-6, -4, -2),
        negative_offsets=(-6, -4),
        cases_per_pair=5,
        timeout_s=10.0,
        repetitions=3,
        algorithms=("hall",),
        seed=9909,
    )
    records = run_bench(config)
    assert len(records) == 2 * 5 * 5  # sizes x (3 affirmative + 2 negative offsets) x cases

    out = tmp_path / "bench.csv"
    with open(out, "w", newline="") as fh:
        write_records_csv(records, fh)
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        rows = list(reader)
    assert len(rows) == len(records)
    for row in rows:
        assert row["status"] in {"solved", "tle", "error"}
        if row["status"] == "solved":
            expected = "true" if row["case_kind"] == AFFIRMATIVE else "false"
            assert row["verdict"] == expected
            assert int(row["min_runtime_ns"]) > 0
        else:
            assert row["verdict"] == "" and row["min_runtime_ns"] == ""
    solved = sum(1 for r in rows if r["status"] == "solved")
    report(9, f"benchmark harness produced {len(rows)} schema-valid rows ({solved} solved)")
