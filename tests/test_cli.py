import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ipso
from ipso.cli import main

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



def test_cli_runs_without_loading_scipy_stats():
    """scipy.stats takes about a second to import; no subcommand may load it.

    scipy.special is loaded only by the t and Wilcoxon tests that need it,
    so the subcommands without a significance test never load scipy.
    """
    script = f"""
import contextlib, io, sys
import ipso, ipso.cli
pair = ["--run-a", {str(RUNS / "alpha.run")!r}, "--run-b", {str(RUNS / "bravo.run")!r},
        "--qrels", {str(QRELS)!r}, "--k", "5"]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["enumerate", "--k", "6"], ["grid", "--k", "4", "--rows", "RBP0.5@4",
                 "--cols", "NDCG@4"], ["hasse", "--k", "3"],
                 ["coverage", "--runs", {str(RUNS)!r}, "--qrels", {str(QRELS)!r}]):
        assert ipso.cli.main(argv) == 0, argv
    assert "scipy.special" not in sys.modules, "scipy.special loaded"
    assert ipso.cli.main(["compare", *pair]) == 0
sys.exit("scipy.stats" in sys.modules)
"""
    src = str(Path(ipso.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


#: SHA-256 of the fixture's sweep, compare and topics outputs, as the
#: per-topic scalar scoring and per-cell tests printed them.
GOLDEN = {
    "sweep": "103a3b6f96f5a8b52aa902fba5067fd2af23c6216ec56d1f8c831ada77fa8a61",
    "compare": "23cf6c127cef54076dccafdbb1e1c3b76db08dec201002aa6e97d36042599678",
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
