"""Bandwidth recognition for graphs when the target is large.

The package decides whether a graph on n nodes has bandwidth at most k for
k >= floor((n-1)/2), certifies positive answers with an explicit layout, and
ships the supporting cast: breadth-first lower bounds used as early cutoffs,
brute-force oracles for cross-checking, reproducible instance generators,
and a timeout-governed benchmark harness with a CLI front end.
"""

from .baselines import exact_bandwidth_bruteforce, naive_recognition
from .bounds import BandwidthBounds, alpha_bound, bandwidth_bounds, gamma_bound
from .generate import (
    GenerationError,
    GenParams,
    generate_affirmative_case,
    generate_negative_case,
    random_banded_matrix,
)
from .graph import Graph, Layout, connected_components, layout_bandwidth
from .io import GraphParseError, parse_graph_file, parse_graph_text, write_graph_file, write_graph_text
from .recognition import (
    BOUNDS_CUTOFF,
    SEARCH_EXHAUSTED,
    OutOfRegimeError,
    RecognitionResult,
    recognize,
)

__all__ = [
    "BOUNDS_CUTOFF",
    "BandwidthBounds",
    "GenParams",
    "GenerationError",
    "Graph",
    "GraphParseError",
    "Layout",
    "OutOfRegimeError",
    "RecognitionResult",
    "SEARCH_EXHAUSTED",
    "alpha_bound",
    "bandwidth_bounds",
    "connected_components",
    "exact_bandwidth_bruteforce",
    "generate_affirmative_case",
    "generate_negative_case",
    "gamma_bound",
    "layout_bandwidth",
    "naive_recognition",
    "parse_graph_file",
    "parse_graph_text",
    "random_banded_matrix",
    "recognize",
    "write_graph_file",
    "write_graph_text",
]

__version__ = "0.1.0"
