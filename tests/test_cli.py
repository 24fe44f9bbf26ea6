import contextlib
import hashlib
import importlib.util
import io
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
from ipso.trecio import DEFAULT_TRUNCATION

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


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestParseDepthPushdown:
    """sweep, compare and topics parse runs to min(max(k), 100) and print what a full parse does."""

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
        """(output with the pushdown, output parsing every run to the default, depths asked)."""
        parse_run, depths = cli.parse_run, []

        def recorded(source, truncate=DEFAULT_TRUNCATION, **options):
            depths.append(truncate)
            return parse_run(source, truncate=truncate, **options)

        def full_depth(source, truncate=DEFAULT_TRUNCATION, **options):
            return parse_run(source, **options)

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
            assert depths == {min(k, DEFAULT_TRUNCATION)}
            assert pushed == full, argv[0]


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
