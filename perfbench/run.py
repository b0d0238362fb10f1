"""Closed-loop benchmark of ``bandrec.recognition.recognize``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

One process, one thread, one caller: each ``recognize(g, k)`` is issued only
after the previous one returned. The instances come from ``--seed`` alone
(see ``instances.py``); the program only ever sees the generated graphs.

A run has three phases:

1. Set-up, repeated at least ``SETUP_REPEATS`` times and until
   ``SETUP_SECONDS`` have passed: instance generation, labelling without
   the recognizer, and a warm-up. Each repeat is scaled to reference speed
   by gauge readings taken around it, and the median is reported.
2. The timed phase: whole passes over the instances, in one seeded order,
   until ``--seconds`` have passed and at least ``MIN_PASSES`` passes were
   made. Every result is checked against its label and, when affirmative,
   its certificate is checked by ``verify.py``. Between calls, every 10 ms,
   the machine-speed gauge of ``gauge.py`` is read, and each call's wall
   time is scaled to the gauge's reference speed by the readings nearest
   to it. Each instance's decide time is the median of its scaled calls;
   the latency quantiles and the throughput are taken over those
   per-instance times. Passes take turns on the CPUs the process may use.
3. With ``--trace 1`` only: the same phase again with every layer boundary
   wrapped (see ``tracing.py``). It must give the same result digest. A
   traced run gives each of the two phases half of ``--seconds``.

Lines before the last are diagnostics, one JSON object each: the gauge
timed before set-up and after the last phase, the unscaled median decide
time, the digests of instances and results, verdict counts, failures with
their error text, and absent trace boundaries. The last line is the result the harness reads:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import gauge
from tracing import Tracer
from verify import failure, outcome, result_key, results_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
WARMUP_CALLS = 16
MIN_PASSES = 3
CALIBRATION_READINGS = 50
SETUP_READINGS = 10
KEPT_ERRORS = 5


def _import_program():
    """Import bandrec from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bandrec" / "__init__.py").is_file():
        sys.exit(f"bandrec sources not found under {SRC.relative_to(ROOT)}/ of this checkout")
    sys.path.insert(0, str(SRC))
    import bandrec

    if Path(bandrec.__file__).resolve().parent != SRC / "bandrec":
        sys.exit(f"imported bandrec from {bandrec.__file__}, not from this checkout")


@dataclass
class Phase:
    """Outcome of one closed-loop phase."""

    calls: int = 0
    samples: list[list[tuple[int, int]]] = field(default_factory=list)  # per instance: (start, ns)
    gauge: gauge.Readings = field(default_factory=gauge.Readings)
    passes: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    keys: list[str | None] = field(default_factory=list)
    outcomes: dict[str, int] = field(default_factory=dict)  # first pass only

    def decide_ms(self) -> list[float]:
        """Per instance, the median of its calls scaled to reference speed."""
        return [
            statistics.median(self.gauge.scale(t, ns) for t, ns in calls) for calls in self.samples
        ]

    def raw_ms(self) -> list[float]:
        """Per instance, the median of its calls' unscaled wall times."""
        return [statistics.median(ns for _, ns in calls) / 1e6 for calls in self.samples]


def run_phase(instances, order, seconds, recognize, tracer=None) -> Phase:
    """Call ``recognize`` on ``instances`` in ``order``, pass after pass.

    Stops after the first whole pass that ends with ``seconds`` elapsed and
    at least ``MIN_PASSES`` passes made. A call fails when it raises, when its
    verdict contradicts the label, when its certificate fails the check, or
    when it differs from the same instance's result in an earlier pass.
    """
    phase = Phase(samples=[[] for _ in instances], keys=[None] * len(instances))
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while phase.passes < MIN_PASSES or time.perf_counter() - start < seconds:
            # One CPU can be slowed by a neighbour for a whole run; passes
            # take turns on each CPU this process may use.
            os.sched_setaffinity(0, {cpus[phase.passes % len(cpus)]})
            _run_pass(instances, order, recognize, tracer, phase)
    finally:
        os.sched_setaffinity(0, cpus)
    return phase


def _run_pass(instances, order, recognize, tracer, phase: Phase) -> None:
    for i in order:
        inst = instances[i]
        phase.gauge.take_if_due(time.perf_counter_ns())
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter_ns()
        try:
            result = recognize(inst.graph, inst.k)
        except Exception as exc:  # a raising call is counted, not fatal
            result = exc
        ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end(ns)
        phase.calls += 1
        phase.samples[i].append((t0, ns))
        why = failure(inst, result)
        key = result_key(result)
        if phase.keys[i] is None:
            phase.keys[i] = key
            name = outcome(result)
            phase.outcomes[name] = phase.outcomes.get(name, 0) + 1
        elif why is None and key != phase.keys[i]:
            why = f"result differs from pass 1: {key}"
        if why is not None:
            phase.failed += 1
            if len(phase.errors) < KEPT_ERRORS:
                phase.errors.append(f"instance {i}: {why}")
    phase.passes += 1


class Setup(NamedTuple):
    instances: list
    order: list[int]
    digest: str
    total_ns: int
    times: object  # instances.SetupTimes


def setup(workload: str, seed: int, recognize) -> Setup:
    """Build, label and warm up once."""
    import numpy as np

    from instances import build, instances_digest

    t0 = time.perf_counter_ns()
    instances, times = build(workload, seed)
    order = [int(i) for i in np.random.default_rng([seed, 99]).permutation(len(instances))]
    for i in order[:WARMUP_CALLS]:
        recognize(instances[i].graph, instances[i].k)
    total_ns = time.perf_counter_ns() - t0
    return Setup(instances, order, instances_digest(instances), total_ns, times)


def _diag(**fields) -> None:
    print(json.dumps(fields, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("affirm", "sweep", "components"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from bandrec import recognition
    from bandrec.graph import Graph

    recognize = recognition.recognize
    calibration_before = gauge.median_ms(CALIBRATION_READINGS)

    # Only the last instance set is kept, so that memory does not grow with
    # the number of repeats.
    # Each set-up is scaled to reference speed by gauge readings around it.
    repeats = []
    scaled_s = []
    while len(repeats) < SETUP_REPEATS or sum(r.total_ns for r in repeats) < SETUP_SECONDS * 1e9:
        readings = [gauge.read() for _ in range(SETUP_READINGS)]
        last = setup(args.workload, args.seed, recognize)
        readings += [gauge.read() for _ in range(SETUP_READINGS)]
        repeats.append(last._replace(instances=None, order=None))
        scaled_s.append(last.total_ns * gauge.REFERENCE_MS / statistics.median(readings) / 1e3)
    digests = {r.digest for r in repeats}
    if len(digests) != 1:
        sys.exit(f"the same seed built different instance sets: {sorted(digests)}")
    instances, order, instances_digest = last[:3]
    setup_s = statistics.median(scaled_s)
    generate_ms = statistics.median(r.times.generate_ns for r in repeats) / 1e6
    label_ms = statistics.median(r.times.label_ns for r in repeats) / 1e6
    del last

    # A traced run splits its time between an untraced and a traced phase.
    seconds = args.seconds / 2 if args.trace else args.seconds
    gc.collect()
    gc.freeze()  # keep the instance sets out of the collector's scans
    timed = run_phase(instances, order, seconds, recognize)
    phases = [timed]
    digest = results_digest(timed.keys)

    correct = True
    if args.trace:
        tracer = Tracer(recognition, Graph)
        gc.collect()
        with tracer:
            traced = run_phase(instances, order, seconds, recognize, tracer)
        phases.append(traced)
        traced_digest = results_digest(traced.keys)
        if traced_digest != digest:
            correct = False
            _diag(error="traced results differ from untraced results", traced_digest=traced_digest)
        _diag(trace_absent=tracer.absent)
    gc.unfreeze()

    attempted = sum(p.calls for p in phases)
    failed = sum(p.failed for p in phases)
    correct = correct and failed == 0
    decide_ms = timed.decide_ms()
    _diag(
        workload=args.workload,
        seed=args.seed,
        decide_samples=len(decide_ms),
        passes=timed.passes,
        calls=timed.calls,
        unscaled_decide_p50_ms=statistics.median(timed.raw_ms()),
        gauge_ms=statistics.median(timed.gauge.ns) / 1e6,
        failed_ratio=failed / attempted,
        errors=[e for p in phases for e in p.errors],
        instances_digest=instances_digest,
        results_digest=digest,
        outcomes=timed.outcomes,
    )
    _diag(calibration_ms={"before": calibration_before, "after": gauge.median_ms(CALIBRATION_READINGS)})

    if args.trace:
        metrics = tracer.metrics(traced.passes)
        metrics.update(
            {
                **{
                    f"verdict.{name}": (timed.outcomes.get(name, 0), "count")
                    for name in ("yes", "bounds_cutoff", "search_exhausted")
                },
                "generate.ms": (generate_ms, "ms"),
                "baselines.label_ms": (label_ms, "ms"),
                "trace.overhead_ratio": (sum(traced.decide_ms()) / sum(decide_ms) - 1, "ratio"),
            }
        )
    else:
        metrics = {
            "decide_p50_ms": (statistics.median(decide_ms), "ms"),
            "decide_p90_ms": (statistics.quantiles(decide_ms, n=10)[8], "ms"),
            "decisions_per_s": (len(decide_ms) / (sum(decide_ms) / 1e3), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
