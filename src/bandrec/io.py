"""Edge-list file format: one header line ``n m``, then m lines ``u v``.

Endpoints are 0-based with ``u < v``, fields separated by single spaces,
LF line endings. Every field is ASCII decimal, with no sign and no leading
zero. Canonical output sorts the edge lines ascending, so writing a parsed
canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import os
import re
from typing import Union

from .graph import Graph

PathLike = Union[str, "os.PathLike[str]"]

# ASCII decimal with no leading zero: int() would also take "+1", "-0", "02",
# "1_0", non-ASCII digits and surrounding whitespace such as a CR. A minus
# sign stays before a nonzero value, so "-1" gets its range message.
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


class GraphParseError(ValueError):
    """Malformed graph file; the message names the offending line."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph_text(text: str) -> Graph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise GraphParseError(1, "missing header")

    header = lines[0].split(" ")
    if len(header) != 2:
        raise GraphParseError(1, f"expected header 'n m', got {lines[0]!r}")
    if not all(_INTEGER.fullmatch(field) for field in header):
        raise GraphParseError(1, f"expected integer header 'n m', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if n < 1:
        raise GraphParseError(1, f"node count must be at least 1, got {n}")
    if m < 0:
        raise GraphParseError(1, f"edge count must be nonnegative, got {m}")
    if len(lines) - 1 != m:
        # point at the first surplus line, or the last line present when short
        where = m + 2 if len(lines) - 1 > m else len(lines)
        raise GraphParseError(where, f"header promises {m} edges, file has {len(lines) - 1} edge lines")

    edges = []
    seen = set()
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(" ")
        if len(fields) != 2:
            raise GraphParseError(line_no, f"expected 'u v', got {line!r}")
        if not all(_INTEGER.fullmatch(field) for field in fields):
            raise GraphParseError(line_no, f"expected two integers, got {line!r}")
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            raise GraphParseError(line_no, f"self-loop on node {u}")
        if not u < v:
            raise GraphParseError(line_no, f"endpoints must satisfy u < v, got {u} {v}")
        if v >= n:
            raise GraphParseError(line_no, f"node {v} out of range for n={n}")
        if u < 0:
            raise GraphParseError(line_no, f"node {u} out of range for n={n}")
        if (u, v) in seen:
            raise GraphParseError(line_no, f"duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    return Graph(n, edges)


def parse_graph_file(path: PathLike) -> Graph:
    with open(path, "r", encoding="ascii", newline="") as fh:
        return parse_graph_text(fh.read())


def write_graph_text(g: Graph) -> str:
    """Canonical serialisation: header, then edges in ascending order."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def write_graph_file(g: Graph, path: PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(write_graph_text(g))
