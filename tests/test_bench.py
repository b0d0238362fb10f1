import io
import multiprocessing as mp
from types import SimpleNamespace

import numpy as np
import pytest

from bandrec import bench
from bandrec.bench import (
    AFFIRMATIVE,
    CSV_COLUMNS,
    NEGATIVE,
    BenchConfig,
    BenchConfigError,
    BenchRecord,
    instance_seed,
    run_bench,
    solve_with_timeout,
    summarize,
    write_records_csv,
)
from bandrec.families import complete_graph, cycle_graph
from bandrec.generate import GenerationError, generate_affirmative_case


def small_config(**overrides):
    base = dict(
        sizes=(12,),
        affirmative_offsets=(-2,),
        negative_offsets=(),
        cases_per_pair=2,
        timeout_s=10.0,
        repetitions=3,
        algorithms=("hall",),
        seed=7,
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBenchRecord:
    def test_solved_needs_verdict_and_timing(self):
        BenchRecord("a", 10, 6, AFFIRMATIVE, "hall", 1, "solved", True, 123)
        with pytest.raises(ValueError):
            BenchRecord("a", 10, 6, AFFIRMATIVE, "hall", 1, "solved", True, None)
        with pytest.raises(ValueError):
            BenchRecord("a", 10, 6, AFFIRMATIVE, "hall", 1, "tle", True, 123)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        BenchConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sizes=()),
            dict(cases_per_pair=0),
            dict(timeout_s=0.0),
            dict(repetitions=2),
            dict(algorithms=("quantum",)),
            dict(affirmative_offsets=(), negative_offsets=()),  # no cells at all
            dict(affirmative_offsets=(-9,)),  # k below the regime floor
            dict(affirmative_offsets=(), negative_offsets=(-2,)),  # k > n-4
            dict(seed=-1),
            dict(sizes=(8,), affirmative_offsets=(-1,)),  # k = n-1: no scramble beats it
            dict(timeout_s=float("nan")),
            dict(timeout_s=float("inf")),
            dict(repetitions=3.5),
            dict(cases_per_pair=1.5),
            dict(cases_per_pair=True),
            dict(seed=0.5),
            dict(seed=True),
            dict(seed=None),
            dict(sizes=(12.0,)),
            dict(timeout_s=True),
            dict(timeout_s="5"),
            dict(timeout_s=None),
            dict(sizes=("a",)),
            dict(sizes=10),
            dict(affirmative_offsets=None, negative_offsets=(-4,)),
            dict(algorithms=None),
            dict(algorithms=("hall", "hall")),  # each instance would run twice into one cell
            dict(algorithms="naive"),  # one name, not the letters n, a, i, v, e
            dict(algorithms=(["hall"],)),
            dict(timeout_s=3e6),  # longer than the pipe poll can wait
        ],
    )
    def test_rejects(self, overrides):
        with pytest.raises(BenchConfigError):
            small_config(**overrides)

    def test_longest_timeout_is_accepted(self):
        # (2**31 - 1) ms is the longest wait the pipe poll takes on Linux.
        assert small_config(timeout_s=(2**31 - 1) / 1000).timeout_s == 2147483.647

    @pytest.mark.parametrize("overrides", [dict(sizes=()), dict(affirmative_offsets=(), negative_offsets=())])
    def test_no_cells_is_one_rule(self, overrides):
        with pytest.raises(BenchConfigError, match="^the config has no cells"):
            small_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(sizes=10), "^sizes must be a sequence of integers, got 10$"),
            (dict(sizes=("a",)), "^an entry of sizes must be an integer, got 'a'$"),
            (dict(affirmative_offsets=None), "^affirmative_offsets must be a sequence of integers, got None$"),
            (dict(negative_offsets=(True,)), "^an entry of negative_offsets must be an integer, not bool: True$"),
        ],
    )
    def test_sequence_errors_name_their_field(self, overrides, message):
        with pytest.raises(BenchConfigError, match=message):
            small_config(**overrides)

    def test_sequences_are_stored_as_int_tuples(self):
        config = small_config(sizes=[np.int64(10), 12], affirmative_offsets=[-2], negative_offsets=[-6])
        assert config == small_config(sizes=(10, 12), negative_offsets=(-6,))
        assert all(type(x) is int for x in (*config.sizes, *config.affirmative_offsets, *config.negative_offsets))
        assert hash(config) == hash(small_config(sizes=(10, 12), negative_offsets=(-6,)))

    def test_algorithms_are_stored_as_a_str_tuple(self):
        config = small_config(algorithms=["hall", np.str_("naive")])
        assert config.algorithms == ("hall", "naive")
        assert all(type(name) is str for name in config.algorithms)
        assert hash(config) == hash(small_config(algorithms=("hall", "naive")))

    def test_a_bare_algorithm_name_is_refused_by_name(self):
        with pytest.raises(BenchConfigError, match="^algorithms must be a sequence of names, got 'naive'$"):
            small_config(algorithms="naive")

    def test_numpy_counts_are_stored_as_plain_ints(self):
        config = small_config(cases_per_pair=np.int64(2), repetitions=np.int64(3), seed=np.int64(7))
        assert config == small_config()
        assert all(type(x) is int for x in (config.cases_per_pair, config.repetitions, config.seed))


class TestInstanceSeeds:
    def test_deterministic_and_distinct(self):
        a = instance_seed(7, AFFIRMATIVE, 12, 10, 0)
        assert a == instance_seed(7, AFFIRMATIVE, 12, 10, 0)
        others = {
            instance_seed(7, AFFIRMATIVE, 12, 10, 1),
            instance_seed(7, NEGATIVE, 12, 10, 0),
            instance_seed(8, AFFIRMATIVE, 12, 10, 0),
            instance_seed(7, AFFIRMATIVE, 12, 8, 0),
        }
        assert a not in others
        assert 0 <= a < 2**64


class TestSolveWithTimeout:
    def test_solved_true_and_false(self):
        status, verdict, _ns, error = solve_with_timeout(cycle_graph(5), 2, "hall", 10.0, 3)
        assert (status, verdict, error) == ("solved", True, None)
        status, verdict, _ns, error = solve_with_timeout(complete_graph(5), 3, "hall", 10.0, 3)
        assert (status, verdict, error) == ("solved", False, None)

    def test_degenerate_timeout_is_tle(self):
        assert solve_with_timeout(cycle_graph(5), 2, "hall", 1e-9, 3) == ("tle", None, None, None)

    def test_worker_exception_is_error(self):
        # k = -1 raises inside the child, and its text comes back
        status, verdict, ns, error = solve_with_timeout(cycle_graph(5), -1, "hall", 10.0, 3)
        assert (status, verdict, ns) == ("error", None, None)
        assert error == repr(ValueError("k must be a nonnegative integer, got -1"))

    def test_verdict_that_changes_between_repetitions_is_error(self, monkeypatch):
        # The worker runs in this process, so the fake needs no particular start method.
        verdicts = iter([True, True, False])
        monkeypatch.setitem(bench.ALGORITHMS, "flaky", lambda g, k: SimpleNamespace(verdict=next(verdicts)))
        receiver, sender = mp.Pipe(duplex=False)
        g = cycle_graph(5)
        bench._solve_worker(sender, g, 2, "flaky", 3)
        assert receiver.recv() == ("error", None, None, "the verdict changed between repetitions")
        receiver.close()


def _silent_worker(conn, *args):
    # A child that dies before reporting: its end of the pipe closes unsent.
    conn.close()


def test_child_without_a_result_is_error(monkeypatch):
    monkeypatch.setattr(bench, "_solve_worker", _silent_worker)
    assert solve_with_timeout(cycle_graph(5), 2, "hall", 10.0, 3) == (
        "error",
        None,
        None,
        "the solver process exited without a result",
    )


def test_solved_rows_carry_positive_minimum_runtime():
    g, _ = generate_affirmative_case(12, 10, seed=4)
    status, verdict, ns, _error = solve_with_timeout(g, 10, "hall", 10.0, 3)
    # tle and error rows carry None: see TestSolveWithTimeout
    assert (status, verdict) == ("solved", True) and ns > 0


class TestRunBench:
    def test_rows_and_csv_schema(self):
        records = run_bench(small_config(algorithms=("hall", "naive")))
        # instances x algorithms x kinds
        assert len(records) == 2 * 2 * 1
        buf = io.StringIO()
        write_records_csv(records, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(records) + 1
        for record in records:
            assert record.status == "solved"
            assert record.verdict is True  # affirmative instances

    def test_negative_kind_verdicts(self):
        records = run_bench(small_config(affirmative_offsets=(), negative_offsets=(-4,), sizes=(10,)))
        assert records
        for record in records:
            assert record.status == "solved"
            assert record.verdict is False

    def test_default_protocol_affirmative_cell(self):
        # the stock protocol: 5 cases at (n=12, offset -2), five solved true rows
        records = run_bench(small_config(cases_per_pair=5))
        assert len(records) == 5
        assert all(r.status == "solved" and r.verdict is True for r in records)

    def test_same_seed_same_instances(self):
        def sans_timing(record):
            return (
                record.instance_id,
                record.n,
                record.k,
                record.case_kind,
                record.algorithm,
                record.seed,
                record.status,
                record.verdict,
            )

        first = run_bench(small_config())
        second = run_bench(small_config())
        assert [sans_timing(r) for r in first] == [sans_timing(r) for r in second]

    def test_error_text_on_progress_line(self, monkeypatch):
        monkeypatch.setattr(bench, "solve_with_timeout", lambda *args: ("error", None, None, "ValueError('boom')"))
        lines = []
        (record,) = run_bench(small_config(cases_per_pair=1), progress=lines.append)
        assert record.status == "error" and record.verdict is None
        assert lines == [f"{record.instance_id} hall: error ValueError('boom')"]

    def test_parent_never_solves(self, monkeypatch):
        calls = []
        hall = bench.ALGORITHMS["hall"]

        def counting(g, k):
            calls.append(k)
            return hall(g, k)

        monkeypatch.setitem(bench.ALGORITHMS, "hall", counting)
        records = run_bench(small_config())
        assert all(r.status == "solved" for r in records)
        assert calls == []  # every solve ran in a child process

    def test_generation_failure_reseeds(self, monkeypatch):
        generate, tried = bench.GENERATORS[AFFIRMATIVE], []

        def fails_once(n, k, seed):
            tried.append(seed)
            if len(tried) == 1:
                raise GenerationError("out of budget")
            return generate(n, k, seed)

        monkeypatch.setitem(bench.GENERATORS, AFFIRMATIVE, fails_once)
        (record,) = run_bench(small_config(cases_per_pair=1))
        first = instance_seed(7, AFFIRMATIVE, 12, 10, 0)
        assert tried == [first, (first + 0x9E3779B97F4A7C15) % 2**64]
        assert record.seed == tried[1] and record.status == "solved"

    def test_generation_gives_up_after_the_reseeds(self, monkeypatch):
        tried = []

        def always_fails(n, k, seed):
            tried.append(seed)
            raise GenerationError("out of budget")

        monkeypatch.setitem(bench.GENERATORS, AFFIRMATIVE, always_fails)
        first = instance_seed(7, AFFIRMATIVE, 12, 10, 0)
        message = f"^could not generate the affirmative instance for n=12, k=10 from seed {first}$"
        with pytest.raises(GenerationError, match=message):
            run_bench(small_config(cases_per_pair=1))
        assert len(tried) == len(set(tried)) == bench.GENERATION_RESEEDS and tried[0] == first

    def test_summary_shape(self):
        records = run_bench(small_config())
        table = summarize(records)
        assert "(12,10)" in table
        assert "solved" in table.splitlines()[0]


def test_summary_of_a_cell_with_no_solved_row():
    record = BenchRecord("aff-n12-k10-i000", 12, 10, AFFIRMATIVE, "hall", 0, "tle")
    assert summarize([record]).splitlines()[-1].split() == ["(12,10)", AFFIRMATIVE, "hall", "0", "1", "-"]
