import csv
import subprocess
import sys
from dataclasses import replace
from itertools import combinations

import pytest

from bandrec import cli
from bandrec.bench import BenchConfig
from bandrec.cli import main
from bandrec.families import complete_graph, empty_graph, path_graph
from bandrec.io import parse_graph_file, write_graph_file


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.graph"
    write_graph_file(complete_graph(4), path)
    return str(path)


@pytest.fixture
def edgeless6_file(tmp_path):
    path = tmp_path / "e6.graph"
    write_graph_file(empty_graph(6), path)
    return str(path)


class TestRecognizeCommand:
    def test_negative_via_bounds(self, k4_file, capsys):
        assert main(["recognize", k4_file, "--k", "2"]) == 1
        assert capsys.readouterr().out.strip() == "verdict=false reason=bounds_cutoff"

    def test_affirmative_identity_certificate(self, edgeless6_file, capsys):
        assert main(["recognize", edgeless6_file, "--k", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "verdict=true"
        assert out[1] == "certificate_bandwidth=0"
        assert out[2:] == [f"{i}:{i}" for i in range(6)]

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n0 0\n")
        assert main(["recognize", str(bad), "--k", "1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["recognize", str(tmp_path / "nope"), "--k", "1"]) == 2

    def test_out_of_regime(self, tmp_path, capsys):
        path = tmp_path / "p8.graph"
        write_graph_file(path_graph(8), path)
        assert main(["recognize", str(path), "--k", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestOtherCommands:
    def test_bounds(self, k4_file, capsys):
        assert main(["bounds", k4_file]) == 0
        assert capsys.readouterr().out == "alpha=2\ngamma=3\ncombined=3\n"

    def test_bandwidth(self, k4_file, capsys):
        assert main(["bandwidth", k4_file]) == 0
        assert capsys.readouterr().out == "bandwidth=3\n"

    def test_bandwidth_guard(self, tmp_path, capsys):
        path = tmp_path / "big.graph"
        write_graph_file(empty_graph(10), path)
        assert main(["bandwidth", str(path)]) == 2

    def test_gen_banded_roundtrip(self, tmp_path):
        out = tmp_path / "g.graph"
        argv = ["gen", "--kind", "banded", "--n", "10", "--psi", "3", "--p", "0.4", "--seed", "5", "--output", str(out)]
        assert main(argv) == 0
        g = parse_graph_file(out)
        assert g.n == 10
        assert all(v - u <= 3 for u, v in g.edges)

    def test_gen_seed_defaults_to_0(self, tmp_path, monkeypatch, capsys):
        # The environment has no say: --seed is the only seed source.
        monkeypatch.setenv("BANDREC_SEED", "321")
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        base = ["gen", "--kind", "affirmative", "--n", "12", "--k", "10"]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--seed", "0", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_negative_seed_is_named(self, tmp_path, capsys):
        argv = ["gen", "--kind", "affirmative", "--n", "12", "--k", "10", "--seed", "-1", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_gen_affirmative_k_out_of_range(self, tmp_path, capsys):
        argv = ["gen", "--kind", "affirmative", "--n", "10", "--k", "9", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "[4, 8]" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_gen_affirmative_edgeless_cell(self, tmp_path, capsys):
        # k = 0 at n = 2 is in the regime, but only an edgeless graph has
        # bandwidth 0, and no scramble of it exceeds 0.
        argv = ["gen", "--kind", "affirmative", "--n", "2", "--k", "0", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "no k admits affirmative cases on n=2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "options,unused",
        [
            (["--kind", "banded", "--n", "10", "--psi", "3", "--p", "0.4", "--k", "8"], "--k"),
            (["--kind", "affirmative", "--n", "12", "--k", "10", "--psi", "3", "--p", "0.9"], "--psi, --p"),
        ],
    )
    def test_gen_refuses_options_its_kind_does_not_read(self, tmp_path, capsys, options, unused):
        assert main(["gen", *options, "--output", str(tmp_path / "x")]) == 2
        assert f"does not read {unused}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_gen_missing_params(self, tmp_path):
        assert main(["gen", "--kind", "banded", "--n", "5", "--output", str(tmp_path / "x")]) == 2
        assert main(["gen", "--kind", "negative", "--n", "12", "--output", str(tmp_path / "x")]) == 2


class TestBenchCommand:
    def test_small_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = [
            "bench", "--sizes", "12", "--k-offsets-affirmative", "-2",
            "--k-offsets-negative=", "--cases", "2", "--reps", "3",
            "--seed", "9", "--output", str(out), "--quiet",
        ]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(row["status"] == "solved" and row["verdict"] == "true" for row in rows)
        assert "(12,10)" in capsys.readouterr().out

    def test_invalid_config(self, tmp_path, capsys):
        argv = [
            "bench", "--sizes", "8", "--k-offsets-affirmative", "-7",
            "--k-offsets-negative=", "--output", str(tmp_path / "x.csv"), "--quiet",
        ]
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_non_finite_timeout(self, tmp_path, capsys, timeout):
        out = tmp_path / "x.csv"
        argv = ["bench", "--sizes", "10", "--cases", "1", "--timeout", timeout, "--output", str(out), "--quiet"]
        assert main(argv) == 2
        assert "timeout must be a finite positive number" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_come_from_bench_config(self, tmp_path, monkeypatch):
        built = []

        def capture(config, progress=None):
            built.append(config)
            return []

        monkeypatch.setattr(cli, "run_bench", capture)
        assert main(["bench", "--output", str(tmp_path / "x.csv"), "--quiet"]) == 0
        (config,) = built
        assert config == replace(BenchConfig(), seed=config.seed)

    def test_unwritable_output(self, tmp_path, capsys):
        output = str(tmp_path / "missing_dir" / "x.csv")
        argv = [
            "bench", "--sizes", "12", "--k-offsets-affirmative", "-2",
            "--k-offsets-negative=", "--cases", "1", "--reps", "3",
            "--seed", "9", "--output", output, "--quiet",
        ]
        assert main(argv) == 2
        assert output in capsys.readouterr().err

    def test_spawn_failure_is_not_blamed_on_output(self, tmp_path, monkeypatch, capsys):
        def failing_run_bench(config, progress=None):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "run_bench", failing_run_bench)
        assert main(["bench", "--seed", "1", "--output", str(tmp_path / "ok.csv"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "Resource temporarily unavailable" in err
        assert "cannot write" not in err

    def test_failed_run_keeps_existing_output(self, tmp_path, monkeypatch, capsys):
        def failing_run_bench(config, progress=None):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        out = tmp_path / "old.csv"
        out.write_bytes(b"instance_id,kept\r\n1,yes\r\n")
        monkeypatch.setattr(cli, "run_bench", failing_run_bench)
        assert main(["bench", "--seed", "1", "--output", str(out), "--quiet"]) == 2
        assert out.read_bytes() == b"instance_id,kept\r\n1,yes\r\n"
        assert [path.name for path in tmp_path.iterdir()] == ["old.csv"]

    def test_directory_output_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def unreachable(config, progress=None):
            raise AssertionError("the benchmark ran")

        monkeypatch.setattr(cli, "run_bench", unreachable)
        assert main(["bench", "--seed", "1", "--output", str(tmp_path), "--quiet"]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _graph_file(tmp_path, spec):
    """A graph file from ``spec``: ``(kind, n, k)`` generated at seed 1, or
    the file's text."""
    path = tmp_path / "g.graph"
    if isinstance(spec, str):
        path.write_text(spec)
    else:
        kind, n, k = spec
        argv = ["gen", "--kind", kind, "--n", str(n), "--k", str(k), "--seed", "1", "--output", str(path)]
        assert main(argv) == 0
    return str(path)


# A C6 on the even ids and a K3,3 on {1,3,5} x {7,9,11}, n=12. Both bounds
# pass at k=3, where the K3,3 exhausts its search; at k=4 both components are
# searched through the component view and the answer is yes.
C6_K33 = "12 15\n0 2\n0 10\n1 7\n1 9\n1 11\n2 4\n3 7\n3 9\n3 11\n4 6\n5 7\n5 9\n5 11\n6 8\n8 10\n"
K6 = "6 15\n" + "".join(f"{u} {v}\n" for u, v in combinations(range(6), 2))


class TestEndToEnd:
    """Files on disk through ``main``: generated instances, the brute-force
    oracle, exhausted searches, certificates, bounds and the bench harness."""

    def test_negative_bandwidth_above_k(self, tmp_path, capsys):
        path = _graph_file(tmp_path, ("negative", 9, 4))
        capsys.readouterr()
        assert main(["bandwidth", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("bandwidth=")
        assert int(out.removeprefix("bandwidth=")) > 4

    @pytest.mark.parametrize(
        "spec,k",
        [(("negative", 9, 4), 4), (C6_K33, 3)],
        ids=["negative-9-4", "c6-k33-k3"],
    )
    def test_search_exhausted(self, tmp_path, capsys, spec, k):
        path = _graph_file(tmp_path, spec)
        capsys.readouterr()
        assert main(["recognize", path, "--k", str(k)]) == 1
        assert "reason=search_exhausted" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spec,k",
        [(("affirmative", 12, 8), 8), ("4 1\n0 2\n", 3), (C6_K33, 4)],
        ids=["affirmative-12-8", "one-edge-k3", "c6-k33-k4"],
    )
    def test_certificate_within_k(self, tmp_path, capsys, spec, k):
        path = _graph_file(tmp_path, spec)
        capsys.readouterr()
        assert main(["recognize", path, "--k", str(k)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "verdict=true"
        assert out[1].startswith("certificate_bandwidth=")
        assert int(out[1].removeprefix("certificate_bandwidth=")) <= k

    @pytest.mark.parametrize(
        "text,expected",
        [
            # Every walk ends on its first layer.
            (K6, "alpha=3\ngamma=5\ncombined=5\n"),
            # Two triangles and an isolated node: no walk reaches every node.
            ("7 6\n0 1\n0 2\n1 2\n4 5\n5 6\n4 6\n", "alpha=1\ngamma=0\ncombined=1\n"),
        ],
        ids=["k6", "two-triangles-isolated"],
    )
    def test_bounds(self, tmp_path, capsys, text, expected):
        assert main(["bounds", _graph_file(tmp_path, text)]) == 0
        assert capsys.readouterr().out == expected

    def test_bench_verdicts_match_case_kinds(self, tmp_path):
        # One instance per cell at n=10: three affirmative, two negative.
        out = tmp_path / "b.csv"
        argv = ["bench", "--sizes", "10", "--cases", "1", "--reps", "3", "--seed", "1", "--output", str(out), "--quiet"]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row in rows:
            assert row["status"] == "solved"
            assert row["verdict"] == ("true" if row["case_kind"] == "affirmative" else "false")


def test_package_main_runs(k4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "bandrec", "recognize", k4_file, "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bandrec.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
