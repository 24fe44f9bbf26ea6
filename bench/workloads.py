"""The three workloads: their inputs, their operations and their output checks.

An operation is one user-visible job: a CLI invocation through
`ipso.cli.main` with stdout captured, or a library call whose result is
rendered as JSON.  Operations look functions up on their module at call
time, so the tracer's wrappers see them.  Checks run after the timed
loop, on the first output of each operation; every later output of the
same operation must hash the same.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

import collection

#: Workload -> (systems, documents per topic) of its synthetic collection.
SHAPES = {
    "trec-sweep": (5, 100),
    "trec-ingest": (2, 1000),
    "census": None,
}
WORKLOADS = tuple(SHAPES)

SWEEP_K = (5, 10, 20)
SWEEP_METRICS = ("P", "AP", "NDCG", "RBP0.8")
SWEEP_TESTS = ("t", "sign", "wilcoxon")
SWEEP_CHECKED_PAIRS = 2
INGEST_K = 10
CENSUS_SAMPLES = 1_000_000
CENSUS_SAMPLED_K = (20, 50, 100)
SE_LIMIT = 5.0


class Op(NamedTuple):
    name: str
    run: Callable[[], str]
    cli: bool


class OperationError(Exception):
    """A CLI operation exited non-zero or rejected its arguments."""


def _cli(name: str, argv: list) -> Op:
    import ipso.cli

    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ipso.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        if code != 0:
            raise OperationError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()
    return Op(name, run, True)


def _json(value) -> str:
    return json.dumps(value, sort_keys=True) + "\n"


def prepare(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files; return the collection manifest."""
    shape = SHAPES[workload]
    if shape is None:
        directory.mkdir(parents=True)
        return {"lines": {}}
    return collection.write_collection(directory, seed, *shape)


def operations(workload: str, manifest: dict, seed: int) -> list:
    return {
        "trec-sweep": _sweep_ops,
        "trec-ingest": _ingest_ops,
        "census": _census_ops,
    }[workload](manifest, seed)


def _sweep_ops(manifest: dict, seed: int) -> list:
    from ipso import experiment, trecio

    def fractions() -> str:
        runs = [trecio.parse_run(path) for path in manifest["runs"]]
        qrels = trecio.parse_qrels(manifest["qrels"])
        return _json([experiment.category_fractions(runs, qrels, k).to_dict()
                      for k in SWEEP_K])

    return [
        _cli("sweep", [
            "sweep", "--runs", manifest["runs_dir"], "--qrels", manifest["qrels"],
            "--k", ",".join(map(str, SWEEP_K)), "--metrics", ",".join(SWEEP_METRICS),
            "--tests", ",".join(SWEEP_TESTS), "--format", "json",
        ]),
        Op("category_fractions", fractions, False),
    ]


def _ingest_ops(manifest: dict, seed: int) -> list:
    run_a, run_b = manifest["runs"][:2]
    pair = ["--run-a", run_a, "--run-b", run_b, "--qrels", manifest["qrels"],
            "--k", str(INGEST_K)]
    return [
        _cli("coverage", ["coverage", "--runs", manifest["runs_dir"],
                          "--qrels", manifest["qrels"]]),
        _cli("compare", ["compare", *pair, "--metric", "AP", "--format", "text"]),
        _cli("topics", ["topics", *pair, "--metrics", "P,AP,NDCG,RR"]),
    ]


def _census_ops(manifest: dict, seed: int) -> list:
    from ipso import enumeration, metrics

    def dp() -> str:
        return _json([enumeration.dp_counts(k).to_dict() for k in (15, 100)])

    def certify() -> str:
        return _json({m.label: len(metrics.certify_compliance(m, 10))
                      for m in metrics.metric_suite(10)})

    def kendall() -> str:
        suite = metrics.metric_suite(12)
        return _json([[a.label, b.label, enumeration.kendall_tau(a, b, 12)]
                      for a, b in itertools.combinations_with_replacement(suite, 2)])

    ops = [_cli("enumerate_k15", ["enumerate", "--k", "15"]), Op("dp_counts", dp, False)]
    for k in CENSUS_SAMPLED_K:
        for workers in (1, 2):
            ops.append(_cli(f"sample_k{k}_w{workers}", [
                "enumerate", "--k", str(k), "--samples", str(CENSUS_SAMPLES),
                "--seed", str(seed), "--workers", str(workers),
            ]))
    ops += [
        _cli("grid_k10", ["grid", "--k", "10", "--rows", "RBP0.5@10", "--cols", "NDCG@10"]),
        _cli("hasse_k8", ["hasse", "--k", "8"]),
        Op("certify_suite10", certify, False),
        Op("kendall_suite12", kendall, False),
    ]
    return ops


# ---------------------------------------------------------------- checks
#
# Each check returns {operation: [problem, ...]}; an operation with a
# problem counts as failed.  `mix` collects what the inputs exercised.


def check(workload: str, manifest: dict, seed: int, outputs: dict, mix: dict) -> dict:
    checker = {
        "trec-sweep": _check_sweep,
        "trec-ingest": _check_ingest,
        "census": _check_census,
    }[workload]
    problems = {name: [] for name in outputs}
    checker(manifest, seed, outputs, problems, mix)
    return problems


def _check_sweep(manifest, seed, outputs, problems, mix) -> None:
    from ipso import AgreementCategory, build_serps, compare_systems, parse_qrels, parse_run

    runs = [parse_run(path) for path in manifest["runs"]]
    qrels = parse_qrels(manifest["qrels"])
    pairs = list(itertools.combinations(range(len(runs)), 2))
    n_topics = manifest["topics"]

    if "sweep" in outputs:
        rows = json.loads(outputs["sweep"])["rows"]
        cells = len(SWEEP_K) * len(SWEEP_METRICS) * len(SWEEP_TESTS)
        if len(rows) != len(pairs) * cells:
            problems["sweep"].append(f"{len(rows)} rows, expected {len(pairs)} x {cells}")
        categories: dict = {}
        for row in rows:
            categories[row["category"]] = categories.get(row["category"], 0) + 1
        mix["agreement_categories"] = dict(sorted(categories.items()))
        by_cell = {(r["system_a"], r["system_b"], r["k"], r["metric"], r["test"]): r
                   for r in rows}
        groups: dict = {}
        for i, j in random.Random(seed).sample(pairs, SWEEP_CHECKED_PAIRS):
            a, b = runs[i], runs[j]
            for k, family, test in itertools.product(SWEEP_K, SWEEP_METRICS, SWEEP_TESTS):
                report = compare_systems(a, b, qrels, k, metric=f"{family}@{k}", test=test)
                category = AgreementCategory.from_flags(
                    report.metric_significant,
                    report.ipso_p is not None and report.ipso_p < report.alpha)
                row = by_cell.get((a.system_tag, b.system_tag, k, report.metric.label, test))
                want = (report.metric_p, report.ipso_p, category.label)
                if row is None or (row["metric_p"], row["ipso_p"], row["category"]) != want:
                    problems["sweep"].append(
                        f"cell {a.system_tag}/{b.system_tag} k={k} {report.metric.label} "
                        f"{test} differs from compare_systems")
                if family == SWEEP_METRICS[0] and test == SWEEP_TESTS[0]:
                    serps = build_serps([a, b], qrels, k)
                    walked = {}
                    for topic in serps.topics():
                        group = _walk_group(serps.get(a.system_tag, topic).bitstring,
                                            serps.get(b.system_tag, topic).bitstring)
                        walked[group] = walked.get(group, 0) + 1
                    counts = {g: n for g, n in report.to_dict()["ipso_counts"].items() if n}
                    if counts != walked:
                        problems["sweep"].append(
                            f"{a.system_tag}/{b.system_tag} k={k}: groups {counts}, the "
                            f"prefix walk gives {walked}")
                    for group, count in counts.items():
                        groups[group] = groups.get(group, 0) + count
        mix["topic_groups_in_checked_pairs"] = groups

    if "category_fractions" in outputs:
        for counts in json.loads(outputs["category_fractions"]):
            if counts["total"] != n_topics * len(pairs):
                problems["category_fractions"].append(
                    f"k={counts['k']}: total {counts['total']}, expected "
                    f"{n_topics} x {len(pairs)}")
            if counts["equal"] + counts["separable"] + counts["non_separable"] != counts["total"]:
                problems["category_fractions"].append(f"k={counts['k']}: parts do not sum")


def _walk_group(serp_a: str, serp_b: str) -> str:
    """Five-way group from the prefix walk alone, as an oracle independent of ipso.

    Equal if the running difference of relevant counts never leaves 0;
    ni / ns if it only ever goes positive / negative; otherwise
    non-separable, with the midpoint given by the sign it took first.
    """
    walk, first = 0, {}
    for depth, (a, b) in enumerate(zip(serp_a, serp_b)):
        walk += int(a) - int(b)
        if walk:
            first.setdefault(walk > 0, depth)
    if not first:
        return "=="
    if len(first) == 1:
        return "ni" if True in first else "ns"
    return "**/ni" if first[True] < first[False] else "**/ns"


def _check_ingest(manifest, seed, outputs, problems, mix) -> None:
    from ipso import Serp, classify_group
    from ipso.trecio import DEFAULT_TRUNCATION

    n_topics = manifest["topics"]
    if "coverage" in outputs:
        rows = list(csv.reader(io.StringIO(outputs["coverage"])))[1:]
        expected = len(manifest["runs"]) * n_topics
        if len(rows) != expected:
            problems["coverage"].append(f"{len(rows)} rows, expected {expected}")
        kept = min(manifest["depth"], DEFAULT_TRUNCATION)
        if any(int(row[4]) != kept for row in rows):
            problems["coverage"].append(f"a list does not hold {kept} documents")
        mix["lists_with_unjudged"] = sum(1 for row in rows if row[3] != "0")

    tally: dict = {}
    if "topics" in outputs:
        rows = list(csv.DictReader(io.StringIO(outputs["topics"])))
        if len(rows) != n_topics:
            problems["topics"].append(f"{len(rows)} rows, expected {n_topics}")
        for row in rows:
            group = classify_group(Serp.from_bitstring(row["serp_a"]),
                                   Serp.from_bitstring(row["serp_b"]), INGEST_K).label
            walked = _walk_group(row["serp_a"], row["serp_b"])
            if not row["group"] == group == walked:
                problems["topics"].append(
                    f"topic {row['topic']}: group {row['group']}, classify_group says "
                    f"{group}, the prefix walk says {walked}")
            tally[walked] = tally.get(walked, 0) + 1
        mix["topic_groups"] = tally

    if "compare" in outputs:
        text = outputs["compare"]
        if f"topics evaluated: {n_topics} " not in text:
            problems["compare"].append("did not evaluate every topic")
        line = next((ln for ln in text.splitlines() if ln.strip().startswith("groups:")), "")
        reported = {}
        for part in line.split(":", 1)[-1].split("|"):
            label, _, count = part.strip().rpartition(" ")
            if label:
                reported[label] = int(count)
        if tally and {g: c for g, c in reported.items() if c} != tally:
            problems["compare"].append(f"groups {reported} disagree with topics {tally}")


def _check_census(manifest, seed, outputs, problems, mix) -> None:
    from ipso import dp_counts, relationship_counts

    def counts_row(name):
        header, row = list(csv.reader(io.StringIO(outputs[name])))[:2]
        return dict(zip(header, row))

    exact = {k: dp_counts(k) for k in (15, *CENSUS_SAMPLED_K)}

    if "enumerate_k15" in outputs:
        row = counts_row("enumerate_k15")
        got = tuple(int(row[c]) for c in ("equal", "separable", "non_separable", "total"))
        want = (exact[15].equal, exact[15].separable, exact[15].non_separable, exact[15].total)
        if got != want:
            problems["enumerate_k15"].append(f"enumerate_pairs(15) {got} != dp_counts(15) {want}")

    if "dp_counts" in outputs:
        for counts in json.loads(outputs["dp_counts"]):
            if counts["total"] != 4 ** counts["k"]:
                problems["dp_counts"].append(f"k={counts['k']}: total is not 4^k")
            if counts["equal"] + counts["separable"] + counts["non_separable"] != counts["total"]:
                problems["dp_counts"].append(f"k={counts['k']}: parts do not sum")

    for k in CENSUS_SAMPLED_K:
        one, two = f"sample_k{k}_w1", f"sample_k{k}_w2"
        if one in outputs and two in outputs and outputs[one] != outputs[two]:
            problems[two].append("2-worker result differs from 1-worker result")
        if one not in outputs:
            continue
        row = counts_row(one)
        n = int(row["total"])
        for category in ("equal", "separable", "non_separable"):
            p = getattr(exact[k], category) / exact[k].total
            se = math.sqrt(n * p * (1 - p))
            z = (int(row[category]) - n * p) / se if se else 0.0
            mix[f"sample_k{k}_{category}_z"] = round(z, 3)
            if abs(z) > SE_LIMIT:
                problems[one].append(f"{category} is {z:+.2f} SE from dp_counts({k})")

    if "grid_k10" in outputs:
        rows = list(csv.reader(io.StringIO(outputs["grid_k10"])))[1:]
        tally: dict = {}
        for row in rows:
            for code in row[1:]:
                tally[code] = tally.get(code, 0) + 1
        want = {rel.code: n for rel, n in relationship_counts(10).items() if n}
        if tally != want:
            problems["grid_k10"].append(f"grid tallies {tally} != relationship_counts(10)")

    if "hasse_k8" in outputs:
        # the covers of dominance are the elementary weakenings: move a
        # relevant document one rank later, or drop one from the last rank
        k = 8
        want = set()
        for code in range(1 << k):
            s = format(code, f"0{k}b")
            want |= {(s, s[:i] + "01" + s[i + 2:]) for i in range(k - 1) if s[i:i + 2] == "10"}
            if s.endswith("1"):
                want.add((s, s[:-1] + "0"))
        got = {tuple(line.split(",")) for line in outputs["hasse_k8"].splitlines()}
        if got != want:
            problems["hasse_k8"].append("edges are not the elementary weakenings")

    if "certify_suite10" in outputs:
        dirty = {m: n for m, n in json.loads(outputs["certify_suite10"]).items() if n}
        if dirty:
            problems["certify_suite10"].append(f"violations: {dirty}")

    if "kendall_suite12" in outputs:
        for a, b, tau in json.loads(outputs["kendall_suite12"]):
            if a == b and tau != 1.0:
                problems["kendall_suite12"].append(f"kendall_tau({a}, {a}) = {tau}")
            if not -1.0 <= tau <= 1.0:
                problems["kendall_suite12"].append(f"kendall_tau({a}, {b}) = {tau}")
