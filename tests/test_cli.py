import csv
import subprocess
import sys
from dataclasses import replace

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
        assert main(["recognize", edgeless6_file, "--k", "3", "--verify"]) == 0
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

    def test_gen_seed_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BANDREC_SEED", "321")
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        base = ["gen", "--kind", "affirmative", "--n", "12", "--k", "10"]
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--seed", "321", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_negative_seed_is_named(self, tmp_path, capsys):
        argv = ["gen", "--kind", "affirmative", "--n", "12", "--k", "10", "--seed", "-1", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "--seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_gen_bad_env_seed_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BANDREC_SEED", "abc")
        argv = ["gen", "--kind", "affirmative", "--n", "12", "--k", "10", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "BANDREC_SEED must be a nonnegative integer, got 'abc'" in capsys.readouterr().err

    def test_gen_affirmative_k_out_of_range(self, tmp_path, capsys):
        argv = ["gen", "--kind", "affirmative", "--n", "10", "--k", "9", "--output", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "[4, 8]" in capsys.readouterr().err
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

    def test_csv_format_prints_rows(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = [
            "bench", "--sizes", "12", "--k-offsets-affirmative", "-2",
            "--k-offsets-negative=", "--cases", "1", "--reps", "3",
            "--seed", "9", "--output", str(out), "--format", "csv", "--quiet",
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("instance_id,")

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

    def test_unwritable_output(self, tmp_path):
        argv = [
            "bench", "--sizes", "12", "--k-offsets-affirmative", "-2",
            "--k-offsets-negative=", "--cases", "1", "--reps", "3",
            "--seed", "9", "--output", str(tmp_path / "missing_dir" / "x.csv"), "--quiet",
        ]
        assert main(argv) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bandrec.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
