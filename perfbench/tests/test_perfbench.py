"""Tests of the benchmark itself: seeding, failure accounting and tracing.

Run from the root of the checkout with ``python -m pytest perfbench/tests``.
"""

import subprocess
import sys

import pytest
from bandrec import recognition
from bandrec.graph import Graph, Layout
from bandrec.recognition import RecognitionResult, recognize

import gauge
import run
from instances import WORKLOADS, build, instances_digest
from tracing import Tracer
from verify import failure, results_digest


@pytest.fixture(scope="module")
def affirm():
    return build("affirm", 3)[0][:6]


@pytest.fixture(scope="module")
def components():
    # The first ten instances cover every kind in the plan.
    return build("components", 3)[0][:10]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_instances_other_seed_other_instances(workload):
    first = instances_digest(build(workload, 5)[0])
    assert instances_digest(build(workload, 5)[0]) == first
    assert instances_digest(build(workload, 6)[0]) != first


def test_labels_hold_and_correct_results_pass(components):
    assert {inst.label for inst in components} == {True, False}
    phase = run.run_phase(components, range(len(components)), 0, recognize)
    assert phase.failed == 0 and phase.errors == []
    assert phase.passes >= run.MIN_PASSES and phase.calls == phase.passes * len(components)


def _phase(instances, fake):
    return run.run_phase(instances, range(len(instances)), 0, fake)


def test_wrong_verdict_counts_as_failed(affirm):
    phase = _phase(affirm, lambda g, k: RecognitionResult(False, None, "search_exhausted"))
    assert phase.failed == phase.calls > 0
    assert "verdict False, label True" in phase.errors[0]


def test_bad_certificates_count_as_failed(affirm):
    # The generator scrambles until the identity layout stretches an edge past k.
    identity = _phase(affirm, lambda g, k: RecognitionResult(True, Layout.identity(g.n)))
    assert identity.failed == identity.calls
    assert "stretches an edge" in identity.errors[0]

    class Repeated:
        forward = (0,) * affirm[0].graph.n

    repeated = _phase(affirm[:1], lambda g, k: RecognitionResult(True, Repeated()))
    assert repeated.failed == repeated.calls
    assert "not a bijection" in repeated.errors[0]


def test_raising_call_counts_as_failed(affirm):
    def boom(g, k):
        raise RuntimeError("boom")

    phase = _phase(affirm, boom)
    assert phase.failed == phase.calls
    assert "boom" in phase.errors[0]


def test_changed_result_between_passes_counts_as_failed(affirm):
    calls = []

    def flaky(g, k):
        calls.append(1)
        result = recognize(g, k)
        if len(calls) > len(affirm):
            return RecognitionResult(True, result.certificate.reversed())
        return result

    phase = _phase(affirm, flaky)
    assert phase.failed == phase.calls - len(affirm)


def test_certificate_check_survives_python_O():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from types import SimpleNamespace as NS\n"
        "from verify import failure\n"
        "inst = NS(graph=NS(n=3), edges=((0, 2),), k=1, label=True)\n"
        "bad = NS(verdict=True, certificate=NS(forward=(0, 1, 2)), negative_reason=None)\n"
        "sys.exit(0 if failure(inst, bad) else 1)\n"
    )
    paths = [p for p in sys.path if p.endswith(("perfbench", "src"))]
    done = subprocess.run([sys.executable, "-O", "-c", code, *paths], timeout=60)
    assert done.returncode == 0


def test_failure_accepts_right_answers():
    g = Graph(3, [(0, 2)])
    inst = type("I", (), {"graph": g, "edges": g.edges, "k": 1, "label": True})
    assert failure(inst, recognize(g, 1)) is None


def test_traced_results_match_and_originals_come_back(components):
    order = range(len(components))
    plain = run.run_phase(components, order, 0, recognize)
    original = recognition.bandwidth_bounds
    tracer = Tracer(recognition, Graph)
    with tracer:
        traced = run.run_phase(components, order, 0, recognize, tracer)
    assert recognition.bandwidth_bounds is original
    assert results_digest(traced.keys) == results_digest(plain.keys)
    assert tracer.absent == []
    metrics = tracer.metrics(traced.passes)
    assert metrics["recognition.searches"][0] > 0
    assert 0 < metrics["recognition.hall.pass_ratio"][0] < 1
    assert metrics["bounds.calls"][0] == float(int(metrics["bounds.calls"][0]))


def test_trace_reports_a_removed_boundary_as_absent(components, monkeypatch):
    build_index = recognition.build_blocked_index

    def search_without_index_name(g, k):
        for left in recognition.enumerate_left_partial_layouts(g, k):
            right = recognition.check_hall_and_build_right(build_index(g, left), g.n, k)
            if right is not None:
                return recognition.assemble_certificate(left, right, g, k)
        return None

    order = range(len(components))
    plain = run.run_phase(components, order, 0, recognize)
    monkeypatch.delattr(recognition, "build_blocked_index")
    monkeypatch.setattr(recognition, "_solve_component", search_without_index_name)
    tracer = Tracer(recognition, Graph)
    with tracer:
        traced = run.run_phase(components, order, 0, recognize, tracer)
    assert tracer.absent == ["recognition.index"]
    metrics = tracer.metrics(traced.passes)
    assert "recognition.index.ms" not in metrics
    assert metrics["recognition.hall.ms"][0] > 0
    assert results_digest(traced.keys) == results_digest(plain.keys)


def test_gauge_scaling_cancels_a_uniform_slowdown():
    fast, slow = gauge.Readings(), gauge.Readings()
    for t in range(0, 100, 10):
        fast.at.append(t)
        fast.ns.append(1_000_000)
        slow.at.append(t)
        slow.ns.append(1_500_000)
    assert fast.scale(45, 2_000_000) == slow.scale(45, 3_000_000) == 2 * gauge.REFERENCE_MS
    # Only the readings nearest in time count.
    slow.ns[-1] = 10**9
    assert slow.scale(15, 3_000_000) == 2 * gauge.REFERENCE_MS
