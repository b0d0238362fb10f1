"""Per-layer spans around the functions ``recognize`` calls, recorded from outside.

``recognize`` and the component search look their helpers up as module
globals of ``bandrec.recognition`` at call time, so replacing those globals
(and ``Graph.subgraph`` on the class) for the length of a traced phase puts a
timer on every layer boundary without touching the package. Only names that
exist are wrapped; a boundary that a later version removes is reported as
absent, and the metrics that depend on it are left out rather than read as 0.

Each ``recognize`` call is one request with an id. Boundaries that run a
bounded number of times per call (bounds, components, subgraph, layout
bandwidth, assembly) keep one span each. The per-left boundaries
(enumeration steps, blocked index, Hall check) run thousands of times per
call, so each request keeps only their count and total nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns

# Global name in bandrec.recognition -> layer it belongs to.
SPANNED = {
    "bandwidth_bounds": "bounds",
    "connected_components": "graph.components",
    "layout_bandwidth": "graph.layout_bandwidth",
    "assemble_certificate": "recognition.assemble",
}
PER_LEFT = {
    "enumerate_left_partial_layouts": "recognition.enumerate",
    "build_blocked_index": "recognition.index",
    "check_hall_and_build_right": "recognition.hall",
}
SUBGRAPH = "graph.subgraph"
ENUMERATE = PER_LEFT["enumerate_left_partial_layouts"]
HALL = PER_LEFT["check_hall_and_build_right"]


@dataclass
class Request:
    """Everything traced inside one ``recognize`` call."""

    id: int
    total_ns: int = 0
    child_ns: int = 0  # time covered by outermost traced children
    spans: list[tuple[str, int, int]] = field(default_factory=list)
    per_left: dict[str, list[int]] = field(default_factory=dict)  # layer -> [calls, ns]
    lefts: int = 0
    searches: int = 0
    hall_passes: int = 0


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, recognition_module, graph_class) -> None:
        self._module = recognition_module
        self._graph_class = graph_class
        self._saved: list[tuple[object, str, object]] = []
        self._depth = 0
        self._current: Request | None = None
        self.requests: list[Request] = []
        names = {**SPANNED, **PER_LEFT}
        self.present = {layer for name, layer in names.items() if hasattr(recognition_module, name)}
        if hasattr(graph_class, "subgraph"):
            self.present.add(SUBGRAPH)
        self.absent = sorted((set(names.values()) | {SUBGRAPH}) - self.present)

    def __enter__(self) -> "Tracer":
        for name, layer in SPANNED.items():
            self._patch(self._module, name, self._spanned(layer))
        for name, layer in PER_LEFT.items():
            wrap = self._enumerate if layer == ENUMERATE else self._per_left(layer)
            self._patch(self._module, name, wrap)
        self._patch(self._graph_class, "subgraph", self._spanned(SUBGRAPH))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, make_wrapper) -> None:
        original = getattr(owner, name, None)
        if original is None:
            return
        self._saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    def begin(self) -> None:
        self._current = Request(len(self.requests))
        self.requests.append(self._current)

    def end(self, total_ns: int) -> None:
        self._current.total_ns = total_ns
        self._current = None

    def _enter(self) -> bool:
        self._depth += 1
        return self._depth == 1

    def _leave(self, outermost: bool, ns: int) -> None:
        self._depth -= 1
        if outermost:
            self._current.child_ns += ns

    def _spanned(self, layer):
        def make(fn):
            def wrapper(*args, **kwargs):
                outermost = self._enter()
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    self._leave(outermost, t1 - t0)
                    self._current.spans.append((layer, t0, t1))

            return wrapper

        return make

    def _add(self, layer: str, ns: int) -> None:
        slot = self._current.per_left.setdefault(layer, [0, 0])
        slot[0] += 1
        slot[1] += ns

    def _per_left(self, layer):
        def make(fn):
            def wrapper(*args, **kwargs):
                outermost = self._enter()
                t0 = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ns = perf_counter_ns() - t0
                    self._leave(outermost, ns)
                    self._add(layer, ns)
                if layer == HALL and result is not None:
                    self._current.hall_passes += 1
                return result

            return wrapper

        return make

    def _enumerate(self, fn):
        # The enumeration is a generator: time each step, count each left.
        def wrapper(*args, **kwargs):
            self._current.searches += 1
            return self._steps(fn(*args, **kwargs))

        return wrapper

    def _steps(self, iterator):
        iterator = iter(iterator)
        while True:
            outermost = self._enter()
            t0 = perf_counter_ns()
            try:
                left = next(iterator)
            except StopIteration:
                return
            finally:
                ns = perf_counter_ns() - t0
                self._leave(outermost, ns)
                self._add(ENUMERATE, ns)
            self._current.lefts += 1
            yield left

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over all requests: counts per pass over the
        instance set, times per ``recognize`` call, shares of decide time."""
        calls = len(self.requests)
        total_ns = sum(r.total_ns for r in self.requests)
        span_ns: dict[str, int] = {}
        span_calls: dict[str, int] = {}
        for r in self.requests:
            for layer, t0, t1 in r.spans:
                span_ns[layer] = span_ns.get(layer, 0) + t1 - t0
                span_calls[layer] = span_calls.get(layer, 0) + 1
            for layer, (count, ns) in r.per_left.items():
                span_ns[layer] = span_ns.get(layer, 0) + ns
                span_calls[layer] = span_calls.get(layer, 0) + count

        def ms(layer):
            return span_ns.get(layer, 0) / calls / 1e6, "ms"

        def per_pass(count):
            return count / passes, "count"

        out: dict[str, tuple[float, str]] = {}
        present = self.present
        if "bounds" in present:
            out["bounds.calls"] = per_pass(span_calls.get("bounds", 0))
            out["bounds.ms"] = ms("bounds")
            out["bounds.share"] = span_ns.get("bounds", 0) / total_ns, "ratio"
        if SUBGRAPH in present:
            out["graph.subgraph.calls"] = per_pass(span_calls.get(SUBGRAPH, 0))
            out["graph.subgraph.ms"] = ms(SUBGRAPH)
            out["graph.subgraph.share"] = span_ns.get(SUBGRAPH, 0) / total_ns, "ratio"
        for layer in ("graph.components", "graph.layout_bandwidth", "recognition.assemble",
                      "recognition.index", "recognition.hall"):
            if layer in present:
                out[layer + ".ms"] = ms(layer)
        if ENUMERATE in present:
            lefts = sum(r.lefts for r in self.requests)
            out["recognition.lefts"] = per_pass(lefts)
            out["recognition.searches"] = per_pass(sum(r.searches for r in self.requests))
            out["recognition.enumerate.ms"] = ms(ENUMERATE)
            if lefts:
                per_left_ns = sum(span_ns.get(layer, 0) for layer in PER_LEFT.values() if layer in present)
                out["recognition.ns_per_left"] = per_left_ns / lefts, "ns"
        if HALL in present:
            hall_calls = span_calls.get(HALL, 0)
            out["recognition.hall.calls"] = per_pass(hall_calls)
            if hall_calls:
                passed = sum(r.hall_passes for r in self.requests)
                out["recognition.hall.pass_ratio"] = passed / hall_calls, "ratio"
        self_ns = sum(r.total_ns - r.child_ns for r in self.requests)
        out["recognition.search.self_ms"] = self_ns / calls / 1e6, "ms"
        outside_search = sum(
            span_ns.get(layer, 0)
            for layer in ("bounds", SUBGRAPH, "graph.components", "graph.layout_bandwidth")
        )
        out["recognition.search.share"] = 1 - outside_search / total_ns, "ratio"
        return out
