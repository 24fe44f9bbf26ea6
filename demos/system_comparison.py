"""A complete system-vs-system comparison on the bundled fixture data.

Reads TREC-format run files and qrels, reduces each topic to a binary
SERP pair, and reports both halves of the protocol: the usual paired
metric test, and the metric-independent evidence — per-topic innate
relationships, a sign test over their directions, and whether the two
agree.  A dagger on the metric p marks metric-only significance; a
double dagger marks metric significance corroborated by the innate
ordering.
"""

import sys
from pathlib import Path

from ipso.experiment import compare_systems, sweep_all_pairs, topic_table
from ipso.trecio import judgment_coverage, parse_qrels, parse_run

FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "data"


def main(data_dir=FIXTURE):
    run_dir = Path(data_dir) / "runs"
    runs = [parse_run(p, truncate=5) for p in sorted(run_dir.iterdir())]
    qrels = parse_qrels(Path(data_dir) / "qrels.txt")
    tags = [r.system_tag for r in runs]
    print("systems:", ", ".join(tags))

    # how much of what we retrieved was ever judged?
    coverage = judgment_coverage(runs, qrels)
    print(f"lists with unjudged documents: "
          f"{coverage.fraction_with_unjudged:.1%} of {coverage.n_lists}")

    # one pair in full
    alpha, bravo, charlie = runs
    report = compare_systems(alpha, bravo, qrels, 5, metric="P@5", test="t")
    print()
    print(report.to_text())

    # the per-topic table behind that verdict, sectioned by group
    print()
    topic_table(alpha, bravo, qrels, 5, metrics=["P@5"]).write_csv(sys.stdout)

    # every pair, every depth: the sweep tabulates how often the metric
    # test and the innate-ordering evidence reach the same answer
    sweep = sweep_all_pairs(runs, qrels, k_values=[3, 5],
                            metrics=["P"], tests=["t"])
    print()
    print("metric-test vs innate-ordering agreement, by depth:")
    for (k, metric, test), cell in sorted(sweep.fractions().items()):
        cats = ", ".join(f"{label} {cell[label]:.2f}" for label in
                         ("Both:Yes", "Both:No", "Metric:Yes", "Metric:No"))
        print(f"  k={k} {metric} ({test}) over {cell['n_pairs']} pairs: {cats}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
