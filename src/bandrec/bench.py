"""Timeout-governed benchmark harness over generated instances.

For every configured (n, k, case kind) cell the harness generates seeded
instances and runs each algorithm on each instance in a separate process
under a wall-clock timeout, so a hung or slow run is killed without
corrupting the parent. The child does all of a run's solving: it times
every repetition on a monotonic nanosecond clock and reports the verdict
with the minimum, which suppresses scheduler and cache noise better than a
mean would. The timeout covers the whole run, repetitions included, and the
parent never calls a solver. Results land in a CSV with one row per
(instance, algorithm) run plus a printable per-cell summary.

Reported times include the lower-bound computation the recognizer performs
internally.

Seeds: every instance seed derives from the master seed via
``numpy.random.SeedSequence(master, spawn_key=(kind, n, k, index))`` folded
to 64 bits, so a rerun with the same master seed regenerates identical
instances regardless of which cells are selected.
"""

from __future__ import annotations

import csv
import multiprocessing as mp
import numbers
import statistics
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Sequence, TextIO

from .baselines import naive_recognition
from .generate import AFFIRMATIVE, GENERATORS, NEGATIVE, GenerationError, check_case
from .graph import Graph, _integer
from .recognition import recognize

_KIND_CODES = {AFFIRMATIVE: 0, NEGATIVE: 1}

ALGORITHMS: dict[str, Callable[[Graph, int], Any]] = {
    "hall": recognize,
    "naive": naive_recognition,
}

GENERATION_RESEEDS = 5
_MAX_TIMEOUT_S = (2**31 - 1) / 1000  # the pipe poll's ceiling on Linux: a C int of milliseconds


class BenchConfigError(ValueError):
    """The requested benchmark configuration is unusable."""


@dataclass(frozen=True)
class BenchRecord:
    """One timed (instance, algorithm) run."""

    instance_id: str
    n: int
    k: int
    case_kind: str
    algorithm: str
    seed: int
    status: str  # solved | tle | error
    verdict: bool | None = None
    min_runtime_ns: int | None = None

    def __post_init__(self) -> None:
        solved = self.status == "solved"
        if solved != (self.verdict is not None and self.min_runtime_ns is not None):
            raise ValueError("verdict and min_runtime_ns must be present exactly for solved rows")


# The CSV columns are BenchRecord's fields, in order.
CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...] = (10, 12)
    affirmative_offsets: tuple[int, ...] = (-6, -4, -2)
    negative_offsets: tuple[int, ...] = (-6, -4)
    cases_per_pair: int = 5
    timeout_s: float = 10.0
    repetitions: int = 5
    algorithms: tuple[str, ...] = ("hall",)
    seed: int = 0

    def __post_init__(self) -> None:
        # Checked at construction, so an unusable config cannot exist: any TypeError
        # or ValueError below, a malformed tuple's too, becomes a BenchConfigError.
        # Each size and offset, the counts and the seed are read by the package's
        # integer rule, the last three with their floors; the three sequences are
        # stored as int tuples, and the algorithms as a tuple of str.
        try:
            for name in ("sizes", "affirmative_offsets", "negative_offsets"):
                values = getattr(self, name)
                if not isinstance(values, Iterable):
                    raise TypeError(f"{name} must be a sequence of integers, got {values!r}")
                object.__setattr__(self, name, tuple(_integer(v, f"an entry of {name}") for v in values))
            for name, least in (("cases_per_pair", 1), ("repetitions", 3), ("seed", 0)):
                object.__setattr__(self, name, _integer(getattr(self, name), name, least))
            timeout = self.timeout_s
            # A bool is not a number of seconds; the range test is also false for nan.
            if type(timeout) is bool or not isinstance(timeout, numbers.Real) or not 0 < timeout <= _MAX_TIMEOUT_S:
                raise ValueError(
                    f"timeout must be a finite positive number of seconds, at most {_MAX_TIMEOUT_S}, got {timeout!r}"
                )
            chosen = self.algorithms
            # A bare string is one name, not a sequence of one-letter names.
            if isinstance(chosen, str) or not isinstance(chosen, Iterable):
                raise TypeError(f"algorithms must be a sequence of names, got {chosen!r}")
            chosen = tuple(chosen)
            named = all(isinstance(name, str) for name in chosen)
            if not named or not chosen or len(set(chosen)) < len(chosen) or not set(chosen) <= ALGORITHMS.keys():
                raise ValueError(f"need one or more distinct algorithms from {sorted(ALGORITHMS)}, got {chosen!r}")
            object.__setattr__(self, "algorithms", tuple(str(name) for name in chosen))
            cells = list(self.cells())
            if not cells:
                raise ValueError("the config has no cells: sizes, or both offset lists, are empty")
            for cell in cells:
                check_case(*cell)
        except (TypeError, ValueError) as exc:
            raise BenchConfigError(str(exc)) from exc

    def cells(self) -> Iterable[tuple[str, int, int]]:
        # An empty offset tuple skips its kind.
        for kind, offsets in ((AFFIRMATIVE, self.affirmative_offsets), (NEGATIVE, self.negative_offsets)):
            for n in self.sizes:
                for off in offsets:
                    yield kind, n, n + off


def instance_seed(master: int, kind: str, n: int, k: int, index: int) -> int:
    """Fold a per-instance SeedSequence stream into one recordable 64-bit seed."""
    import numpy as np
    ss = np.random.SeedSequence(master, spawn_key=(_KIND_CODES[kind], n, k, index))
    hi, lo = ss.generate_state(2, np.uint32)
    return int(hi) << 32 | int(lo)


def _generate_instance(kind: str, n: int, k: int, seed: int) -> tuple[Graph, int]:
    current = seed
    for _ in range(GENERATION_RESEEDS):
        try:
            g, _meta = GENERATORS[kind](n, k, current)
            return g, current
        except GenerationError:
            # Deterministic reseed: walk the same 64-bit space.
            current = (current + 0x9E3779B97F4A7C15) % 2**64
    raise GenerationError(f"could not generate the {kind} instance for n={n}, k={k} from seed {seed}")


def _solve_worker(conn, g: Graph, k: int, algorithm: str, repetitions: int) -> None:
    """Child body: ``repetitions`` timed solves, then one 4-tuple for ``solve_with_timeout``."""
    try:
        solver = ALGORITHMS[algorithm]
        verdicts, times = set(), []
        for _ in range(repetitions):
            start = time.perf_counter_ns()
            result = solver(g, k)
            times.append(time.perf_counter_ns() - start)
            verdicts.add(bool(result.verdict))
        if len(verdicts) == 1:
            conn.send(("solved", verdicts.pop(), min(times), None))
        else:
            conn.send(("error", None, None, "the verdict changed between repetitions"))
    except Exception as exc:  # surfaced as an 'error' row in the parent
        conn.send(("error", None, None, repr(exc)))
    finally:
        conn.close()


def solve_with_timeout(
    g: Graph, k: int, algorithm: str, timeout_s: float, repetitions: int
) -> tuple[str, bool | None, int | None, str | None]:
    """One run in a separate process; ('solved'|'tle'|'error', verdict, min ns, error).

    The child solves ``repetitions`` times and reports the verdict and the
    minimum wall-clock nanoseconds of one solve; both are set only for solved
    runs, and the error text (the child's ``repr`` of its exception, or a
    note that the verdict changed between repetitions) only for error runs.
    The wall clock starts before the child is spawned, so process startup and
    every repetition count against the budget, and a run is solved only if
    its result arrives inside the window; a degenerate budget therefore
    yields tle no matter how fast the child is.
    """
    receiver, sender = mp.Pipe(duplex=False)
    proc = mp.Process(target=_solve_worker, args=(sender, g, k, algorithm, repetitions))
    start = time.perf_counter()
    proc.start()
    sender.close()
    try:
        remaining = timeout_s - (time.perf_counter() - start)
        arrived = receiver.poll(max(0.0, remaining))
        if not arrived or time.perf_counter() - start > timeout_s:
            return "tle", None, None, None
        try:
            return receiver.recv()
        except EOFError:  # child died before reporting
            return "error", None, None, "the solver process exited without a result"
    finally:
        if proc.is_alive():
            proc.terminate()
        proc.join()
        receiver.close()


def run_bench(config: BenchConfig, progress: Callable[[str], None] | None = None) -> list[BenchRecord]:
    """Generate, verify, and time every configured cell; returns all records."""
    say = progress or (lambda _msg: None)
    records: list[BenchRecord] = []
    for kind, n, k in config.cells():
        for index in range(config.cases_per_pair):
            seed = instance_seed(config.seed, kind, n, k, index)
            g, used_seed = _generate_instance(kind, n, k, seed)
            iid = f"{kind[:3]}-n{n}-k{k}-i{index:03d}"
            for algorithm in config.algorithms:
                status, verdict, ns, error = solve_with_timeout(
                    g, k, algorithm, config.timeout_s, config.repetitions
                )
                records.append(BenchRecord(iid, n, k, kind, algorithm, used_seed, status, verdict, ns))
                line = f"{iid} {algorithm}: {status}"
                if ns:
                    line += f" {ns} ns"
                elif error:
                    line += f" {error}"
                say(line)
    return records


def write_records_csv(records: Sequence[BenchRecord], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        # csv writes None as an empty cell; booleans are written lowercase.
        values = (getattr(r, name) for name in CSV_COLUMNS)
        writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in values)


def summarize(records: Sequence[BenchRecord]) -> str:
    """Per-(n, k, kind, algorithm) table: solved / TLE counts and mean+-std ms."""
    cells: dict[tuple[int, int, str, str], list[BenchRecord]] = {}
    for r in records:
        cells.setdefault((r.n, r.k, r.case_kind, r.algorithm), []).append(r)
    header = f"{'(n,k)':<10} {'case':<12} {'algorithm':<10} {'solved':>6} {'tle':>4}  time (ms)"
    lines = [header, "-" * len(header)]
    for (n, k, kind, algorithm), rows in sorted(cells.items()):
        solved = [r for r in rows if r.status == "solved"]
        tle = sum(1 for r in rows if r.status == "tle")
        if solved:
            ms = [r.min_runtime_ns / 1e6 for r in solved]  # type: ignore[operator]
            mean = statistics.fmean(ms)
            std = statistics.stdev(ms) if len(ms) > 1 else 0.0
            timing = f"{mean:.3f} +- {std:.3f}"
        else:
            timing = "-"
        lines.append(f"{f'({n},{k})':<10} {kind:<12} {algorithm:<10} {len(solved):>6} {tle:>4}  {timing}")
    return "\n".join(lines)
