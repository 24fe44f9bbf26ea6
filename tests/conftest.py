"""Shared pytest wiring.

The tests in test_acceptance.py are numbered release criteria.  After any
run that touched them, a closing summary prints one PASS/FAIL line per
criterion so readiness can be read straight off the terminal, plus a note
where a criterion needs context (see ACCEPTANCE_NOTES).  The
`colliding_hashes` fixture serves the trecio tests of both files.
"""

from __future__ import annotations

import re

import pytest

_CRITERION_ID = re.compile(r"test_acceptance\.py.*::test_criterion_(\d+)")

ACCEPTANCE_TITLES = {
    1: "exhaustive pair-category percentages at k=5/10/15, k=15 inside the time budget",
    2: "sampled non-separable rates at k=20/50/100 within 0.3 points of target",
    3: "dynamic-programming tallies and walk-vs-dominance dual routes agree",
    4: "depth-3 pair: four metrics prefer B, two tie exactly, two prefer A",
    5: "order-compliance certification clean through k=8; planted violator caught",
    6: "k=3 relationship census and Hasse incomparability",
    7: "two-sided exact sign test for a 109-vs-81 split",
    8: "rank correlation of metric orderings at k=6",
    9: "run-file ingestion and system-comparison pipeline end to end",
    10: "randomized invariant suites (1e5 instances each); worker-invariant sampling",
}

ACCEPTANCE_NOTES = {
    1: ("the k=10 non-separable cell is asserted as the exact count "
        "344168/2^20 -> 32.82%; the 32.81% target kept alongside it in the "
        "test is unreachable by any rounding of the exact count (both "
        "independent routes agree, and 0.10 + 67.08 + 32.81 leaves the row "
        "short of 100.00), so it is treated as an upstream rounding slip"),
}

_outcomes: dict[int, set] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_ID.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    bucket = _outcomes.setdefault(number, set())
    if report.failed:
        bucket.add("fail")
    elif report.skipped:
        bucket.add("skip")
    elif report.when == "call" and report.passed:
        bucket.add("pass")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_outcomes):
        bucket = _outcomes[number]
        if "fail" in bucket:
            status = "FAIL"
        elif "pass" in bucket:
            status = "PASS"
        else:
            status = "SKIP"
        title = ACCEPTANCE_TITLES.get(number, "")
        terminalreporter.write_line(f"criterion {number:02d} {status}  {title}")
        note = ACCEPTANCE_NOTES.get(number)
        if number == 9 and "skip" in bucket and "fail" not in bucket:
            note = ("optional TREC Robust 2004 branch skipped (point "
                    "IPSO_ROBUST_RUN_DIR and IPSO_ROBUST_QRELS at the track "
                    "data to enable it); bundled-fixture pipeline verified")
        if note:
            terminalreporter.write_line(f"             note: {note}")


@pytest.fixture
def colliding_hashes(monkeypatch):
    """Every doc id of a topic hashes alike under seed 0; other seeds hash as before."""
    import numpy as np

    from ipso import trecio

    hashes = trecio._id_hashes

    def colliding(codes, docs, lengths=0, seed=0, width=0):
        return hashes(codes, docs, lengths, seed, width) if seed else codes.astype(np.uint64)

    monkeypatch.setattr(trecio, "_id_hashes", colliding)
