import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ipso
from ipso import cli
from ipso.cli import main
from ipso.enumeration import kendall_tau
from ipso.experiment import (
    DEFAULT_ALPHA, METRIC_TESTS, AgreementCategory, SweepResult, SweepRow, compare_systems,
    sweep_all_pairs, topic_table)
from ipso.metrics import certify_compliance, metric_suite
from ipso.trecio import DEFAULT_TRUNCATION, parse_qrels

DATA = Path(__file__).parent / "data"
RUNS = DATA / "runs"
QRELS = DATA / "qrels.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_csv(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--k", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,equal,separable,non_separable,total,mode,seed"
        assert lines[1] == "3,8,54,2,64,exact,"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["non_separable"] == 344168
        assert payload["percent"]["non_separable"] == 32.82

    def test_sampled(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--k", "10", "--samples", "200000",
                               "--seed", "42", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "sampled"
        assert payload["seed"] == 42
        assert payload["non_separable"] == 65358

    def test_sampled_workers_invariant(self, capsys):
        _, single, _ = run_cli(capsys, "enumerate", "--k", "12", "--samples", "100000",
                               "--seed", "7")
        _, multi, _ = run_cli(capsys, "enumerate", "--k", "12", "--samples", "100000",
                              "--seed", "7", "--workers", "4")
        assert single == multi

    def test_oversized_k_is_exact(self, capsys):
        for k in (16, 30):
            code, out, _ = run_cli(capsys, "enumerate", "--k", str(k), "--format", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload["mode"] == "exact"
            assert payload["equal"] == 2 ** k
            assert payload["equal"] + payload["separable"] + payload["non_separable"] \
                == payload["total"] == 4 ** k
        code, out, _ = run_cli(capsys, "enumerate", "--k", "16", "--samples", "1000")
        assert code == 0
        code, _, err = run_cli(capsys, "enumerate", "--k", "0")
        assert code == 2
        assert err

    def test_samples_deeper_than_the_walk_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--k", "32768", "--samples", "10")
        assert code == 2
        assert "32767" in err
        assert out == ""

    @pytest.mark.parametrize("seed", [str(-1), str(2**128)])
    def test_seeds_outside_the_philox_key_exit_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "enumerate", "--k", "20", "--samples", "10",
                                 "--seed", seed)
        assert code == 2
        assert f"seed must be between 0 and 2**128 - 1, got {seed}" in err
        assert out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr("ipso.enumeration.ThreadPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, "enumerate", "--k", "20", "--samples", "10",
                                 "--workers", workers)
        assert code == 2
        assert "workers must be >= 1" in err
        assert out == ""


class TestGrid:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--k", "1", "--rows", "P@1",
                               "--cols", "P@1")
        assert code == 0
        assert out.strip().splitlines() == [",0,1", "0,==,ns", "1,ni,=="]

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "grid", "--k", "3", "--rows", "RBP0.5@3",
                               "--cols", "NDCG@3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 8
        assert len(payload["cells"]) == 8

    def test_bad_metric(self, capsys):
        code, _, err = run_cli(capsys, "grid", "--k", "3", "--rows", "XYZ@3",
                               "--cols", "P@3")
        assert code == 2
        assert err

    def test_oversized_k(self, capsys):
        code, _, _ = run_cli(capsys, "grid", "--k", "13", "--rows", "P@13",
                             "--cols", "P@13")
        assert code == 2


class TestHasse:
    def test_csv_bare_edges(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "--k", "1")
        assert code == 0
        assert out == "1,0\n"

    def test_k3_edge_count(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "--k", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "hasse", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2

    def test_oversized_k(self, capsys):
        code, _, _ = run_cli(capsys, "hasse", "--k", "9")
        assert code == 2


class TestCompare:
    def args(self, *extra):
        return ["compare", "--run-a", str(RUNS / "alpha.run"),
                "--run-b", str(RUNS / "bravo.run"), "--qrels", str(QRELS),
                "--k", "5", *extra]

    def test_csv(self, capsys):
        code = main(self.args())
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("system_a,system_b,k,metric,test,alpha")
        fields = lines[1].split(",")
        assert fields[:5] == ["alpha", "bravo", "5", "P@5", "t"]

    def test_text(self, capsys):
        code = main(self.args("--format", "text"))
        out = capsys.readouterr().out
        assert code == 0
        assert "alpha (A) vs bravo (B)" in out
        assert "groups: **/ns 1 | ns 1 | == 2 | ni 1 | **/ni 1" in out

    def test_json(self, capsys):
        code = main(self.args("--format", "json", "--metric", "RBP0.5@5",
                              "--test", "wilcoxon"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["metric"] == "RBP0.5@5"
        assert payload["test"] == "wilcoxon"

    def test_bare_metric_takes_cli_depth(self, capsys):
        code = main(self.args("--metric", "RR", "--format", "json"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["metric"] == "RR@5"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.run"
        bad.write_text("only three fields\n")
        code = main(["compare", "--run-a", str(bad), "--run-b", str(bad),
                     "--qrels", str(QRELS), "--k", "5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "parse error" in err

    def test_missing_file_exit_code(self, capsys, tmp_path):
        code = main(["compare", "--run-a", str(tmp_path / "nope.run"),
                     "--run-b", str(RUNS / "bravo.run"),
                     "--qrels", str(QRELS), "--k", "5"])
        assert code == 2

    def test_unknown_test_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.args("--test", "anova"))
        assert exc.value.code == 2


class TestTopics:
    def test_csv(self, capsys):
        code = main(["topics", "--run-a", str(RUNS / "alpha.run"),
                     "--run-b", str(RUNS / "bravo.run"),
                     "--qrels", str(QRELS), "--k", "5", "--metrics", "P,RR@5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "topic,group,serp_a,serp_b,trajectory,diff_P@5,diff_RR@5"
        assert lines[1].startswith("605,**/ns,01100,10001,ns ns ** ** **")
        assert len(lines) == 7

    def test_json(self, capsys):
        code = main(["topics", "--run-a", str(RUNS / "alpha.run"),
                     "--run-b", str(RUNS / "bravo.run"),
                     "--qrels", str(QRELS), "--k", "5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["topic"] for row in payload] == ["605", "602", "603", "606", "601", "604"]
        assert payload[0]["trajectory"] == ["ns", "ns", "**", "**", "**"]


@pytest.mark.filterwarnings("ignore:system charlie")
class TestSweep:
    def test_csv(self, capsys):
        code = main(["sweep", "--runs", str(RUNS), "--qrels", str(QRELS),
                     "--k", "3,5", "--metrics", "P", "--tests", "t,sign"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "system_a,system_b,k,metric,test,metric_p,ipso_p,category"
        assert len(lines) == 1 + 3 * 2 * 2  # pairs x depths x tests
        assert any(",P@3," in line for line in lines[1:])
        assert any(",P@5," in line for line in lines[1:])

    def test_json(self, capsys):
        code = main(["sweep", "--runs", str(RUNS), "--qrels", str(QRELS),
                     "--k", "5", "--metrics", "RBP0.5@5", "--tests", "t",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        ac = [row for row in payload["rows"]
              if row["system_a"] == "alpha" and row["system_b"] == "charlie"]
        assert ac[0]["category"] == "Metric:Yes"

    @pytest.mark.parametrize("option, value", [
        ("--k", "5,5"), ("--metrics", "P,P@5"), ("--tests", "t,t"),
    ])
    def test_repeated_condition_is_one_condition(self, capsys, option, value):
        argv = ["sweep", "--runs", str(RUNS), "--qrels", str(QRELS),
                "--k", "5", "--metrics", "P", "--tests", "t"]
        once = run_cli(capsys, *argv)
        argv[argv.index(option) + 1] = value
        assert once[0] == 0
        assert run_cli(capsys, *argv) == once

    def test_empty_dir(self, capsys, tmp_path):
        code = main(["sweep", "--runs", str(tmp_path), "--qrels", str(QRELS),
                     "--k", "5", "--metrics", "P", "--tests", "t"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no run files" in err


class TestDuplicateTags:
    """Two different runs tagged alike are refused, not merged under one key."""

    @pytest.fixture
    def runs(self, tmp_path):
        for name in ("alpha", "bravo"):
            text = (RUNS / f"{name}.run").read_text().replace(f" {name}\n", " s\n")
            (tmp_path / f"{name}.run").write_text(text)
        return tmp_path

    @pytest.mark.parametrize("command", ["compare", "topics"])
    def test_pair_commands(self, capsys, runs, command):
        code = main([command, "--run-a", str(runs / "alpha.run"),
                     "--run-b", str(runs / "bravo.run"), "--qrels", str(QRELS), "--k", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "system tag 's'" in captured.err

    def test_sweep_over_directory(self, capsys, runs):
        code = main(["sweep", "--runs", str(runs), "--qrels", str(QRELS),
                     "--k", "5", "--metrics", "P", "--tests", "t"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "system tag 's'" in captured.err

    def test_coverage_over_directory(self, capsys, runs):
        code = main(["coverage", "--runs", str(runs), "--qrels", str(QRELS)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "system tag 's'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--k", "5", "--metrics", "P,AP", "--tests", "t,sign", "--format", "json"],
        ["coverage"],
    ])
    def test_copied_file_in_directory_is_one_input(self, capsys, tmp_path, argv):
        for name in ("alpha", "bravo"):
            (tmp_path / f"{name}.run").write_text((RUNS / f"{name}.run").read_text())
        expected = run_cli(capsys, *argv, "--runs", str(tmp_path), "--qrels", str(QRELS))
        (tmp_path / "alpha_copy.run").write_text((RUNS / "alpha.run").read_text())
        got = run_cli(capsys, *argv, "--runs", str(tmp_path), "--qrels", str(QRELS))
        assert expected[0] == 0
        assert got == expected

    def test_directory_of_one_run_copied_is_refused(self, capsys, tmp_path):
        for name in ("alpha", "alpha_copy"):
            (tmp_path / f"{name}.run").write_text((RUNS / "alpha.run").read_text())
        code, out, err = run_cli(capsys, "sweep", "--runs", str(tmp_path), "--qrels", str(QRELS),
                                 "--k", "5")
        assert (code, out) == (2, "")
        assert "two distinct runs" in err

    def test_same_file_twice_is_one_input(self, capsys):
        code = main(["compare", "--run-a", str(RUNS / "alpha.run"),
                     "--run-b", str(RUNS / "alpha.run"),
                     "--qrels", str(QRELS), "--k", "5", "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["ipso_counts"]["=="] == 6


class TestCoverage:
    def test_csv(self, capsys):
        code = main(["coverage", "--runs", str(RUNS), "--qrels", str(QRELS)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "system,topic,first_unjudged_rank,n_unjudged,n_retrieved"
        assert len(lines) == 1 + 17  # alpha/bravo 6 topics each, charlie 5

    def test_json(self, capsys):
        code = main(["coverage", "--runs", str(RUNS), "--qrels", str(QRELS),
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["n_lists"] == 17
        assert payload["fraction_with_unjudged"] == pytest.approx(4 / 17)


class TestJsonBlocks:
    """JSON goes out in blocks of encoder chunks, with the bytes of json.dumps(indent=2)."""

    def test_blocks_join_to_json_dumps(self, monkeypatch):
        writes = []

        class Counting(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        payload = {"rows": [{"p": 0.1 + 0.2, "q": None, "tag": "é\"x"} for _ in range(5)],
                   "n": 5, "empty": [], "nested": {"inf": float("inf")}}
        chunks = list(json.JSONEncoder(indent=2).iterencode(payload))
        monkeypatch.setattr(cli, "_JSON_BLOCK", 7)
        monkeypatch.setattr(sys, "stdout", Counting())
        cli._emit_json(payload)
        assert "".join(writes) == json.dumps(payload, indent=2) + "\n"
        assert len(writes) == -(-len(chunks) // 7) + 1

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unbuffered_sweep_prints_json_dumps(self):
        depths = list(range(1, 11))  # 360 rows: more chunks than one block holds
        metrics, tests = ["P", "AP", "NDCG", "RBP0.8"], ["t", "sign", "wilcoxon"]
        runs, qrels = cli._load_runs_dir(RUNS, truncate=10), cli.parse_qrels(QRELS)
        payload = cli.sweep_all_pairs(runs, qrels, depths, metrics, tests).to_dict()
        chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
        assert chunks > cli._JSON_BLOCK
        src = str(Path(ipso.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONUNBUFFERED": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["sweep", "--runs", str(RUNS), "--qrels", str(QRELS), "--format", "json",
                "--k", ",".join(map(str, depths)), "--metrics", ",".join(metrics),
                "--tests", ",".join(tests)]
        done = subprocess.run([sys.executable, "-m", "ipso.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == (json.dumps(payload, indent=2) + "\n").encode()


def _rowwise_sweep_csv(result) -> bytes:
    """SweepResult.write_csv's text, one csv.writer row at a time."""
    stream = io.StringIO()
    writer = csv.writer(stream)
    writer.writerow(SweepRow._fields)
    for row in result.rows:
        writer.writerow((row.system_a, row.system_b, row.k, row.metric, row.test,
                         "" if row.metric_p is None else repr(row.metric_p),
                         "" if row.ipso_p is None else repr(row.ipso_p), row.category.label))
    return stream.getvalue().encode()


class TestCsvBlocks:
    """A sweep's CSV goes out 4,096 rows a write, with the bytes of one csv.writer row a write."""

    def test_blocks_join_to_rowwise_csv(self):
        writes = []

        class Counting(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        rows = [SweepRow("a,1", 'b"2', k, "P@5", "t", p, q, category)
                for k in range(1, 3001)
                for p, q, category in [(None, 0.5, AgreementCategory.METRIC_NO),
                                       (0.1 + 0.2, None, AgreementCategory.BOTH_YES)]]
        for result in (SweepResult(tuple(rows), 0.05), SweepResult((), 0.05)):
            writes.clear()
            result.write_csv(Counting())
            assert "".join(writes).encode() == _rowwise_sweep_csv(result)
            assert len(writes) == -(-(len(result.rows) + 1) // 4096)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unbuffered_sweep_prints_rowwise_csv(self):
        depths, metrics, tests = list(range(1, 11)), ["P", "AP", "NDCG", "RBP0.8"], ["t", "sign"]
        runs, qrels = cli._load_runs_dir(RUNS, truncate=10), cli.parse_qrels(QRELS)
        expected = _rowwise_sweep_csv(cli.sweep_all_pairs(runs, qrels, depths, metrics, tests))
        src = str(Path(ipso.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONUNBUFFERED": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["sweep", "--runs", str(RUNS), "--qrels", str(QRELS), "--format", "csv",
                "--k", ",".join(map(str, depths)), "--metrics", ",".join(metrics),
                "--tests", ",".join(tests)]
        done = subprocess.run([sys.executable, "-m", "ipso.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected


def _bench_collection():
    """bench/collection.py, the seeded Robust-2004-shaped generator, loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "collection.py"
    spec = importlib.util.spec_from_file_location("bench_collection", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tied_runs(directory: Path) -> None:
    """Two runs whose score ties straddle ranks 5, 10, 20 and 100, with judged docs past 100.

    Scores fall in blocks of three ranks ([3, 4, 5], [9, 10, 11], [18, 19, 20],
    [99, 100, 101] are blocks), so each cut splits a tie that the doc ids
    break; lines are shuffled, and about half the documents are relevant.
    """
    rng = random.Random(11)
    topics, docs = ("401", "402", "403"), [f"d{j:03d}" for j in range(160)]
    (directory / "runs").mkdir()
    (directory / "qrels.txt").write_text("".join(
        f"{t} 0 {d} {rng.choice((0, 1))}\n" for t in topics for d in docs if rng.random() < 0.9))
    for tag in ("tiesA", "tiesB"):
        lines = [f"{t} Q0 {d} {j + 1} {-(j // 3)}.5 {tag}\n"
                 for t in topics for j, d in enumerate(rng.sample(docs, len(docs)))]
        rng.shuffle(lines)
        (directory / "runs" / f"{tag}.run").write_text("".join(lines))


#: A parse depth past every line of the test inputs.
EVERY_LINE = 1 << 30


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestParseDepthPushdown:
    """sweep, compare and topics parse runs to the deepest of max(k) and every full label's
    depth, with no cap, and print what a parse of every line does."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tied = tmp_path_factory.mktemp("tied")
        _tied_runs(tied)
        seeded = tmp_path_factory.mktemp("seeded")
        _bench_collection().write_collection(seeded, 3, 3, 100)
        return {"fixture": (RUNS, QRELS), "tied": (tied / "runs", tied / "qrels.txt"),
                "seeded": (seeded / "runs", seeded / "qrels.txt")}

    @staticmethod
    def outputs(capsys, monkeypatch, argv):
        """(output with the pushdown, output parsing every line of every run, depths asked)."""
        parse_run, depths = cli.parse_run, []

        def recorded(source, truncate=DEFAULT_TRUNCATION, **options):
            depths.append(truncate)
            return parse_run(source, truncate=truncate, **options)

        def full_depth(source, truncate=DEFAULT_TRUNCATION, **options):
            return parse_run(source, truncate=EVERY_LINE, **options)

        results = []
        for stand_in in (recorded, full_depth):
            monkeypatch.setattr(cli, "parse_run", stand_in)
            results.append(run_cli(capsys, *argv))
        monkeypatch.undo()
        assert results[0][0] == 0, results[0][2]
        return results[0][1], results[1][1], set(depths)

    @pytest.mark.parametrize("name, k_values", [
        ("fixture", "3,5"), ("seeded", "5,10,20"), ("tied", "5,10,20"), ("tied", "5,150"),
    ])
    def test_output_matches_a_full_parse(self, capsys, monkeypatch, inputs, name, k_values):
        runs, qrels = inputs[name]
        k = max(int(token) for token in k_values.split(","))
        files = sorted(str(path) for path in runs.iterdir())
        pair = ["--run-a", files[0], "--run-b", files[-1], "--qrels", str(qrels), "--k", str(k)]
        for argv in (
            ["sweep", "--runs", str(runs), "--qrels", str(qrels), "--k", k_values,
             "--metrics", "P,AP,NDCG,RBP0.8", "--tests", "t,sign,wilcoxon", "--format", "json"],
            ["compare", *pair, "--metric", "AP", "--format", "json"],
            ["topics", *pair, "--metrics", "P,AP,NDCG,RR"],
        ):
            pushed, full, depths = self.outputs(capsys, monkeypatch, argv)
            assert depths == {k}
            assert pushed == full, argv[0]

    @pytest.mark.parametrize("label, depth", [("P@10", 10), ("NDCG@150", 150)])
    def test_full_labels_deeper_than_k_set_the_depth(self, capsys, monkeypatch, inputs, label,
                                                     depth):
        runs, qrels = (str(path) for path in inputs["tied"])
        pair = ["--run-a", f"{runs}/tiesA.run", "--run-b", f"{runs}/tiesB.run", "--qrels", qrels]
        for argv in (["sweep", "--runs", runs, "--qrels", qrels, "--metrics", f"P,{label}"],
                     ["compare", *pair, "--metric", label], ["topics", *pair, "--metrics", label]):
            pushed, full, depths = self.outputs(capsys, monkeypatch, [*argv, "--k", "3"])
            assert (pushed, depths) == (full, {depth}), argv[0]

    def test_k_deeper_than_the_default_grades_every_rank(self, capsys, inputs):
        """At k = 150 the outputs are the library's on runs parsed to 150: ranks 101-150 count."""
        runs, qrels = inputs["tied"]
        run_a, run_b = runs / "tiesA.run", runs / "tiesB.run"
        pair = ["--run-a", run_a, "--run-b", run_b, "--qrels", qrels, "--k", 150]
        parsed = [cli.parse_run(path, truncate=150) for path in (run_a, run_b)]
        judged = parse_qrels(qrels)
        for argv, result in (
            (["compare", *pair, "--metric", "AP"], compare_systems(*parsed, judged, 150, "AP@150")),
            (["topics", *pair, "--metrics", "P,NDCG"],
             topic_table(*parsed, judged, 150, ["P@150", "NDCG@150"])),
            (["sweep", "--runs", runs, "--qrels", qrels, "--k", "5,150", "--metrics", "P,AP"],
             sweep_all_pairs(parsed, judged, [5, 150], ["P", "AP"], ["t"])),
        ):
            code, out, err = run_cli(capsys, *map(str, argv), "--format", "json")
            assert code == 0, err
            assert out == json.dumps(result.to_dict(), indent=2) + "\n", argv[0]


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_format_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--k", "3", "--format", "xml"])
        assert exc.value.code == 2

    def test_defaults_are_the_library_values(self):
        pair = ["--run-a", "a", "--run-b", "b", "--qrels", "q", "--k", "5"]
        for argv in (["compare", *pair], ["sweep", "--runs", "r", "--qrels", "q", "--k", "5"]):
            assert cli._parser().parse_args(argv).alpha == DEFAULT_ALPHA
        compare = cli._parser()._subparsers._group_actions[0].choices["compare"]
        assert compare._option_string_actions["--test"].choices == tuple(METRIC_TESTS)

    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        parsers, parse_args = [], argparse.ArgumentParser.parse_args

        def recorded(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        assert run_cli(capsys, "hasse", "--k", "2") == run_cli(capsys, "hasse", "--k", "2")
        assert len(parsers) == 2 and parsers[0] is parsers[1]


_PAIR = ["--run-a", RUNS / "alpha.run", "--run-b", RUNS / "charlie.run", "--qrels", QRELS,
         "--k", "5", "--alpha", "0.1"]
_SWEEP = ["--runs", RUNS, "--qrels", QRELS, "--k", "3,5", "--metrics", "P,AP",
          "--tests", "t,sign,wilcoxon", "--alpha", "0.1"]
_GRID = ["--k", "4", "--rows", "RBP0.5@4", "--cols", "NDCG@4"]

#: Every subcommand in every format it takes, on the bundled fixture.
FORMAT_CASES = {
    "enumerate_exact_csv": ["enumerate", "--k", "6"],
    "enumerate_exact_json": ["enumerate", "--k", "6", "--format", "json"],
    "enumerate_sampled_csv": ["enumerate", "--k", "6", "--samples", "1000", "--seed", "3"],
    "grid_csv": ["grid", *_GRID],
    "grid_json": ["grid", *_GRID, "--format", "json"],
    "hasse_csv": ["hasse", "--k", "4"],
    "hasse_json": ["hasse", "--k", "4", "--format", "json"],
    "compare_csv": ["compare", *_PAIR],
    "compare_json": ["compare", *_PAIR, "--format", "json"],
    "compare_text": ["compare", *_PAIR, "--format", "text"],
    "compare_text_ascii": ["compare", *_PAIR, "--format", "text", "--ascii"],
    "topics_csv": ["topics", *_PAIR[:-2], "--metrics", "P,AP,NDCG,RR"],
    "topics_json": ["topics", *_PAIR[:-2], "--metrics", "P,AP,NDCG,RR", "--format", "json"],
    "sweep_csv": ["sweep", *_SWEEP],
    "sweep_json": ["sweep", *_SWEEP, "--format", "json"],
    "coverage_csv": ["coverage", "--runs", RUNS, "--qrels", QRELS],
    "coverage_json": ["coverage", "--runs", RUNS, "--qrels", QRELS, "--format", "json"],
}

#: SHA-256 of each FORMAT_CASES output, as each handler printed its own format.
FORMAT_GOLDEN = {
    "enumerate_exact_csv": "450d6dd690d396ff3bcdebc25c5998f0867fdbf8b6864dccfe4ab95c249d2696",
    "enumerate_exact_json": "5069e1812af018faf6d69de61974fa38213cb3b55c5fef9d6a2b456d8ec2a309",
    "enumerate_sampled_csv": "d760b9f651c8387eada3de57130bdf89a0abe3df0ab7ec62a9160600164cdca4",
    "grid_csv": "d0477f3c4b113a97abf45a3652127a5cf50c2506b931ae9273feb9a82a69a985",
    "grid_json": "aacea4e127de96a13d2803121983b0718cfd6199cd0f90bb20f0e2dad3f87648",
    "hasse_csv": "74595b62ecd4f86a222f21ec948aa27b330fd27e3b0679255d3189af898f27a0",
    "hasse_json": "fb7a39d0e4ec4d7f799b15a443a7e8f6ebc8bc09db60d47a6bba02b5f3956575",
    "compare_csv": "b061d3060ae666b684616d5ec420027618ab3a27231f66a6e27c513585cda27b",
    "compare_json": "4d77c28c704d2ee7962a0e0fbc2db425e731a98cf44a244333ca336cef6b9ee3",
    "compare_text": "a53c93dd7eafb5715cbb7b17d7c632ddedfc5b8bd61b071ec5114af20192d469",
    "compare_text_ascii": "ddaf72d7f548e28cdc598a8fefebbab7c9f8d97c291275bbfeb2c2a653ada2ce",
    "topics_csv": "38f7af348989409802434bf23a7c44c138309901be8acbf6f138b69fc264eba4",
    "topics_json": "f16f1ca9959240c0807299d324813a0d7d3b92e5c3c3682ba4efd71a18fd3a3d",
    "sweep_csv": "e1ac555846687cef655f0464cd4166a06b93876811c705a41ee336ec77a63440",
    "sweep_json": "07f9e54351c20ae2fd9c49cc512dde3cb4510953b403a8d294bd7dea88867296",
    "coverage_csv": "a652542e54d376b93f3f3308e10188d84d273fd273a44514331c041d2ed38b0c",
    "coverage_json": "39421139a6a4ad0ac1a8d3f6ed9b47d17722a86f6666e074e497ceb2d8927fe8",
}


@pytest.mark.filterwarnings("ignore:system charlie")
@pytest.mark.parametrize("name", FORMAT_CASES)
def test_every_format_prints_its_golden_bytes_twice(capsys, name):
    """Each output matches its digest, and a second run in the same process prints it again."""
    first, second = (run_cli(capsys, *map(str, FORMAT_CASES[name])) for _ in range(2))
    assert first[0] == 0, first[2]
    assert first == second
    assert hashlib.sha256(first[1].encode()).hexdigest() == FORMAT_GOLDEN[name]



def write_forty_topic_pair(directory: Path) -> tuple:
    """Two seeded 10-deep runs and their qrels over 40 topics; return (runs dir, qrels path).

    Their NDCG@10 differences are nonzero on more than 25 topics, so the
    Wilcoxon test on them takes the normal tail.
    """
    rng = random.Random(20)
    docs = [f"d{i}" for i in range(20)]
    runs = directory / "runs"
    runs.mkdir()
    topics = range(1, 41)
    qrels = [f"{topic} 0 {doc} {rng.choice((0, 0, 1, 2))}" for topic in topics for doc in docs]
    (directory / "qrels.txt").write_text("\n".join(qrels) + "\n")
    for tag in ("one", "two"):
        lines = []
        for topic in topics:
            ranking = enumerate(rng.sample(docs, 10), 1)
            lines += [f"{topic} Q0 {doc} {rank} {10 - rank} {tag}" for rank, doc in ranking]
        (runs / f"{tag}.run").write_text("\n".join(lines) + "\n")
    return runs, directory / "qrels.txt"


def test_cli_runs_without_loading_scipy_stats(tmp_path):
    """No subcommand loads scipy, not even scipy.special: the t and normal tails are ipso's own.

    Every subcommand runs, and compare, topics and sweep run the t and
    Wilcoxon tests, on the fixture and on a 40-topic pair whose Wilcoxon
    test takes the normal tail.  (scipy.stats alone takes about a second to
    import.)
    """
    runs, qrels = write_forty_topic_pair(tmp_path)
    script = f"""
import contextlib, io, sys
import ipso, ipso.cli
fixture = ["--run-a", {str(RUNS / "alpha.run")!r}, "--run-b", {str(RUNS / "bravo.run")!r},
           "--qrels", {str(QRELS)!r}, "--k", "5"]
forty = ["--run-a", {str(runs / "one.run")!r}, "--run-b", {str(runs / "two.run")!r},
         "--qrels", {str(qrels)!r}, "--k", "10"]
sweep = ["--k", "5,10", "--metrics", "P,AP,NDCG", "--tests", "t,sign,wilcoxon", "--format", "json"]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["enumerate", "--k", "6"], ["grid", "--k", "4", "--rows", "RBP0.5@4",
                 "--cols", "NDCG@4"], ["hasse", "--k", "3"],
                 ["coverage", "--runs", {str(RUNS)!r}, "--qrels", {str(QRELS)!r}],
                 ["compare", *fixture], ["compare", *fixture, "--test", "wilcoxon"],
                 ["compare", *fixture, "--test", "sign"],
                 ["topics", *fixture, "--metrics", "P,AP,NDCG"],
                 ["compare", *forty, "--metric", "NDCG"], ["compare", *forty, "--metric", "NDCG",
                 "--test", "wilcoxon"], ["topics", *forty, "--metrics", "P,NDCG"],
                 ["sweep", "--runs", {str(RUNS)!r}, "--qrels", {str(QRELS)!r}, *sweep],
                 ["sweep", "--runs", {str(runs)!r}, "--qrels", {str(qrels)!r}, *sweep]):
        assert ipso.cli.main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
sys.exit(f"scipy modules loaded: {{loaded}}" if loaded else 0)
"""
    src = str(Path(ipso.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_forty_topic_pair_takes_the_normal_tail(tmp_path):
    runs, qrels = write_forty_topic_pair(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["topics", "--run-a", str(runs / "one.run"), "--run-b", str(runs / "two.run"),
                     "--qrels", str(qrels), "--k", "10", "--metrics", "NDCG",
                     "--format", "json"]) == 0
    diffs = [row["score_diffs"]["NDCG@10"] for row in json.loads(out.getvalue())]
    assert len(diffs) == 40
    assert sum(abs(d) > 1e-12 for d in diffs) > 25


#: SHA-256 of the fixture's sweep, compare and topics outputs, as the
#: per-topic scalar scoring and per-cell tests printed them.  The sweep and
#: compare digests moved when the t tail moved from scipy.special.stdtr to
#: ipso.stats._t_tail: 24 of the sweep's 36 t-test p-values and 16 of the
#: compare JSON p-values changed in their last bits (at most 1.1e-14
#: relative), and no agreement category or significance decision changed.
GOLDEN = {
    "sweep": "2834db57ef64eaa5929364a79f097b39884c051ba2edb13204122bfcf679101b",
    "compare": "4eac24a795d094431009b755e2611afbaf28264fa94f0d1e6937410b260c83d5",
    "topics": "723bc3781bfe3c30aae8886feee0a29e0aafca273c2566e8c9510921e8c2caba",
}


def golden_outputs() -> dict:
    """The bundled fixture's sweep, compare and topics outputs, one text each."""
    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # charlie lacks a topic
            assert main([str(a) for a in argv]) == 0, argv
        return out.getvalue()

    pairs = [("alpha", "bravo"), ("alpha", "charlie"), ("bravo", "charlie")]
    texts = {"sweep": cli("sweep", "--runs", RUNS, "--qrels", QRELS, "--k", "5,10,20",
                          "--metrics", "P,AP,NDCG,RBP0.8", "--tests", "t,sign,wilcoxon",
                          "--format", "json")}
    texts["compare"] = texts["topics"] = ""
    for a, b in pairs:
        pair = ["--run-a", RUNS / f"{a}.run", "--run-b", RUNS / f"{b}.run", "--qrels", QRELS]
        for k in ("5", "10"):
            for metric in ("P", "AP", "NDCG", "RBP0.8"):
                for test in ("t", "sign", "wilcoxon"):
                    texts["compare"] += cli("compare", *pair, "--k", k, "--metric", metric,
                                            "--test", test, "--format", "json")
            texts["compare"] += cli("compare", *pair, "--k", k, "--format", "text")
            texts["topics"] += cli("topics", *pair, "--k", k, "--metrics", "P,AP,NDCG,RBP0.8,RR")
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


def test_fixture_outputs_match_golden_digests():
    assert golden_outputs() == GOLDEN


#: SHA-256 of the census outputs that the cover table serves, and the
#: compliance counts and Kendall reprs behind the benchmark's census digests,
#: as the dominance-pair scan and the float32 matrix-product reduction printed them.
CENSUS_GOLDEN = {
    "hasse_k1_csv": "e34c25fc2aecfd275f72c70684c4b4e61346cd238beb01b2446abf1149b95957",
    "hasse_k2_csv": "ccfdc3f33b3bc658d3e7a5085e2c44b701671581f1973bdeebde694b159d7546",
    "hasse_k3_csv": "8a5b2e4a7b695518dab111519058104ce3aebd209d6197376211bcacda36558b",
    "hasse_k4_csv": "74595b62ecd4f86a222f21ec948aa27b330fd27e3b0679255d3189af898f27a0",
    "hasse_k5_csv": "564cfc7cccd0bb9e8b4fe7798e5ddac078331f64e7ec7bdd1be8359065177387",
    "hasse_k6_csv": "1f14caf3daaac67921eac8b6680ebec80eb3986f33fb0445cbbf194b71bf2a75",
    "hasse_k7_csv": "f6195a33d4628724d231f1a485c27d37cd76e8eba8e1576f0c0c5d06f2c710b2",
    "hasse_k8_csv": "8dd54030319a30d359d1236f80c4b37228263948867626239dbba74099960378",
    "hasse_k4_json": "fb7a39d0e4ec4d7f799b15a443a7e8f6ebc8bc09db60d47a6bba02b5f3956575",
    "grid_k8_csv": "9e5ac9f02e5dca7bb384267a46e1b3d3d56d3c5d3c64750d5afed3103feface3",
    "kendall_suite12": "14aa77c5125bea29a74c3bbf2a2971babdfb4ff7ce8f41e71326e30713516ec7",
    "certify_suite10": {"P@10": 0, "RR@10": 0, "S@10": 0, "RBP0.5@10": 0, "RBP0.8@10": 0,
                        "AP@10": 0, "NDCG@10": 0},
}


def census_outputs() -> dict:
    """Hasse csv at k = 1…8 and json at k = 4, grid csv at k = 8, certify counts and Kendall reprs."""
    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(a) for a in argv]) == 0, argv
        return out.getvalue()

    texts = {f"hasse_k{k}_csv": cli("hasse", "--k", k) for k in range(1, 9)}
    texts["hasse_k4_json"] = cli("hasse", "--k", 4, "--format", "json")
    texts["grid_k8_csv"] = cli("grid", "--k", 8, "--rows", "RBP0.5@8", "--cols", "NDCG@8")
    suite = metric_suite(12)
    texts["kendall_suite12"] = "\n".join(repr(kendall_tau(a, b, 12))
                                         for a, b in itertools.product(suite, repeat=2))
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    digests["certify_suite10"] = {m.label: len(certify_compliance(m, 10)) for m in metric_suite(10)}
    return digests


def test_census_outputs_match_golden_digests():
    assert census_outputs() == CENSUS_GOLDEN
