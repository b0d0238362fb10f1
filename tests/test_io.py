import pytest

from bandrec.families import path_graph
from bandrec.graph import Graph
from bandrec.io import (
    GraphParseError,
    parse_graph_file,
    parse_graph_text,
    write_graph_file,
    write_graph_text,
)


def test_parse_path():
    assert parse_graph_text("3 2\n0 1\n1 2\n") == path_graph(3)


def test_write_canonical():
    g = Graph(4, [(2, 3), (0, 1), (0, 2)])
    assert write_graph_text(g) == "4 3\n0 1\n0 2\n2 3\n"


def test_round_trip_is_byte_identical(tmp_path):
    g = Graph(6, [(0, 5), (1, 2), (1, 4), (3, 4)])
    path = tmp_path / "g.graph"
    write_graph_file(g, path)
    first = path.read_bytes()
    write_graph_file(parse_graph_file(path), path)
    assert path.read_bytes() == first


def test_parse_accepts_unsorted_lines():
    g = parse_graph_text("4 2\n2 3\n0 1\n")
    assert g.edges == ((0, 1), (2, 3))


@pytest.mark.parametrize("text", ["3 0", "3 1\n0 1"])
def test_final_lf_may_be_left_out(text):
    g = parse_graph_text(text)
    assert g == parse_graph_text(text + "\n")
    assert write_graph_text(g) == text + "\n"


def test_edgeless():
    g = parse_graph_text("3 0\n")
    assert g.n == 3 and g.m == 0
    assert write_graph_text(g) == "3 0\n"


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("", 1, "header"),
        ("3\n", 1, "header"),
        ("x y\n", 1, "integer header"),
        ("0 0\n", 1, "at least 1"),
        ("3 -1\n", 1, "nonnegative"),
        ("2 1\n0 0\n", 2, "self-loop"),
        ("3 1\n1 0\n", 2, "u < v"),
        ("3 1\n0 3\n", 2, "out of range"),
        ("3 1\n-1 2\n", 2, "out of range"),
        ("3 2\n0 1\n0 1\n", 3, "duplicate"),
        ("3 2\n0 1\n", 2, "2 edges"),
        ("3 1\n0 1\n1 2\n", 3, "1 edges"),
        ("3 1\n0 1 2\n", 2, "expected 'u v'"),
        ("+3 0\n", 1, "integer header"),
        ("1_0 0\n", 1, "integer header"),
        ("\uff13 0\n", 1, "integer header"),
        ("3 1\r\n0 1\r\n", 1, "integer header"),
        ("3 1\n+0 1\n", 2, "two integers"),
        ("12 1\n0 1_0\n", 2, "two integers"),
        ("3 1\n\uff10 1\n", 2, "two integers"),
        ("3 1\n0 1\r\n", 2, "two integers"),
        ("3 1\n-0 2\n", 2, "two integers"),
        ("3 1\n0 02\n", 2, "two integers"),
        ("3 1\n00 2\n", 2, "two integers"),
        ("03 0\n", 1, "integer header"),
        ("3 -0\n", 1, "integer header"),
    ],
)
def test_parse_errors_name_the_line(text, line_no, fragment):
    with pytest.raises(GraphParseError) as excinfo:
        parse_graph_text(text)
    assert excinfo.value.line_no == line_no
    assert fragment in str(excinfo.value)


def test_parse_file_missing(tmp_path):
    with pytest.raises(OSError):
        parse_graph_file(tmp_path / "nope.graph")
